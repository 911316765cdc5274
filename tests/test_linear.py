"""Matrix analysis layer: eigenvalue bounds, quadrature, mass paths,
sufficient-condition verdicts, transition factors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loewner_basin.errors import (DegenerateTransitionError,
                                  InvalidInputError, NumericalFailureError)
from loewner_basin.linear import (CRITERIA, GRID_MARGIN, MAX_DIM,
                                  InverseTransitionProduct, LinearPath,
                                  VERDICT_SATISFIED, VERDICT_UNDECIDABLE,
                                  VERDICT_VIOLATED, classify_hypotheses,
                                  eigenvalues, ell_estimate, gauss_kronrod,
                                  hermitian_bounds, operator_norm,
                                  spectral_abscissa, transition_matrix)

from conftest import gauss_legendre_mass, trig_coefficients


def _random_complex(rng, q):
    return rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))


# ---------------------------------------------------------------------------
# eigenvalue machinery


@pytest.mark.parametrize("q", range(1, MAX_DIM + 1))
def test_jacobi_matches_reference_eigvalsh(q):
    # named after the Jacobi solver hermitian_bounds once used; it now
    # checks hermitian_bounds against scipy's Hermitian eigensolver
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(q)
    for _ in range(5):
        A = _random_complex(rng, q)
        H = 0.5 * (A + A.conj().T)
        want = scipy_linalg.eigh(H, eigvals_only=True)
        m, k = hermitian_bounds(A)
        assert m <= k
        assert max(abs(m - want[0]), abs(k - want[-1])) < 1e-10 * max(
            1.0, np.abs(H).max())


def test_hermitian_bounds_known_values():
    m, k = hermitian_bounds(np.diag([1.0, 2.0]))
    assert m == pytest.approx(1.0, abs=1e-12)
    assert k == pytest.approx(2.0, abs=1e-12)
    # non-normal: [[1, 2], [0, 1]] has Hermitian part [[1, 1], [1, 1]]
    m, k = hermitian_bounds(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert m == pytest.approx(0.0, abs=1e-12)
    assert k == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("q", range(1, MAX_DIM + 1))
def test_eigenvalues_match_reference(q):
    rng = np.random.default_rng(100 + q)
    for _ in range(5):
        A = _random_complex(rng, q)
        got = np.sort_complex(eigenvalues(A))
        want = np.sort_complex(np.linalg.eigvals(A))
        assert np.max(np.abs(got - want)) < 1e-7 * max(1.0, np.abs(A).max())


def test_eigenvalues_jordan_block():
    J = np.array([[2.0, 1.0], [0.0, 2.0]])
    ev = eigenvalues(J)
    assert np.max(np.abs(ev - 2.0)) < 1e-7
    assert spectral_abscissa(J) == pytest.approx(2.0, abs=1e-7)


def test_operator_norm_matches_reference():
    rng = np.random.default_rng(7)
    for q in (1, 2, 3, 5, 8):
        A = _random_complex(rng, q)
        assert operator_norm(A) == pytest.approx(
            np.linalg.norm(A, 2), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_bound_ordering_properties(q, seed):
    rng = np.random.default_rng(seed)
    A = _random_complex(rng, q)
    m, k = hermitian_bounds(A)
    assert m <= k + 1e-12
    assert k <= operator_norm(A) + 1e-9
    assert spectral_abscissa(A) <= k + 1e-9
    assert m - 1e-9 <= spectral_abscissa(A)


def test_matrix_validation():
    with pytest.raises(InvalidInputError):
        hermitian_bounds(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        hermitian_bounds(np.eye(MAX_DIM + 1))
    with pytest.raises(InvalidInputError):
        hermitian_bounds(np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# quadrature


def test_simpson_polynomial_is_near_exact():
    # the quadrature tests keep the names of the adaptive Simpson rule
    # that gauss_kronrod replaced, with the same integrands and bounds
    got = gauss_kronrod(lambda t: (t ** 3 - t)[:, None], 0.0, 2.0, 1e-12)
    assert abs(got[0] - 2.0) < 1e-12


def test_simpson_periodic_integrand_not_aliased():
    # zeros of sin on dyadic midpoints of [0, 4 pi] would fool a naive
    # single-panel error estimate; the prime panel seeding must not
    got = gauss_kronrod(np.sin, 0.0, 4.0 * math.pi, 1e-11)
    assert abs(got[0]) < 1e-10
    got = gauss_kronrod(lambda t: np.sin(8.0 * t) ** 2, 0.0, math.pi, 1e-11)
    assert abs(got[0] - math.pi / 2.0) < 1e-9


def test_simpson_breakpoints_and_endpoint_jump():
    # value at the breakpoint belongs to the right piece, so the left
    # piece ends in a jump pinned at its own endpoint; it must never be
    # sampled there, nor refined forever
    def f(t):
        return np.where(t < 1.0, 1.0, 0.0)

    got = gauss_kronrod(f, 0.0, 2.0, 1e-10, breakpoints=(1.0,))
    assert abs(got[0] - 1.0) < 1e-8


def test_simpson_sharp_peak():
    got = gauss_kronrod(
        lambda t: 1.0 / (1e-4 + (t - 0.5) ** 2), 0.0, 1.0, 1e-8)
    want = 2.0 / 1e-2 * math.atan(0.5 / 1e-2)
    assert abs(got[0] - want) < 1e-6 * want


def test_quadrature_jump_off_breakpoint_accepted_as_sliver():
    # an undeclared jump is refined down to sliver panels and accepted
    got = gauss_kronrod(lambda t: np.where(t < 0.3, 1.0, 0.0), 0.0, 1.0,
                        1e-10)
    assert abs(got[0] - 0.3) < 1e-10


def test_quadrature_stops_at_its_node_budget():
    # at t ~ 5e4 rounding in t keeps an absolute 1e-10 out of reach, so
    # open panels double every round; the call must end in a typed error
    # within its 60,000-node budget instead of exhausting memory
    nodes = [0]

    def counted(t):
        nodes[0] += t.size
        assert nodes[0] <= 120_000, "quadrature ran past twice its budget"
        return np.cos(t)

    with pytest.raises(NumericalFailureError,
                       match=r"60000 nodes on \[32768\.0, 65536\.0\]"):
        gauss_kronrod(counted, 32768.0, 65536.0, 1e-10)
    assert nodes[0] <= 60_000


# ---------------------------------------------------------------------------
# LinearPath


def test_constant_path_mass_integrals_exact():
    path = LinearPath.constant(np.diag([2.0, 3.0]).astype(complex))
    assert path.is_constant
    assert path.bounds_many([0.7])[0] == pytest.approx([2.0, 3.0], abs=1e-12)
    assert path.M(2.5) == pytest.approx(5.0, abs=1e-12)
    assert path.K(2.5) == pytest.approx(7.5, abs=1e-12)
    assert np.allclose(path.integral_matrix(1.0, 3.0),
                       np.diag([4.0, 6.0]))


def test_callable_path_mass_integrals():
    path = LinearPath(
        1, lambda ts: (1.0 + ts)[:, None, None] + 0j, quad_tol=1e-12)
    assert not path.is_constant
    # M(t) = K(t) = t + t^2/2
    for t in (0.5, 1.0, 3.7):
        assert path.M(t) == pytest.approx(t + t * t / 2.0, abs=1e-10)
        assert path.K(t) == pytest.approx(t + t * t / 2.0, abs=1e-10)
    # additivity: M(4) and M(2) are independent integrals from 0
    assert path.M(4.0) - path.M(2.0) == pytest.approx(2.0 + 6.0, abs=1e-9)
    assert path.integral_matrix(0.0, 2.0)[0, 0] == pytest.approx(
        4.0, abs=1e-9)


def test_masses_match_cumulative_differences():
    tol = 1e-12
    path = LinearPath(
        1, lambda ts: (1.0 + ts)[:, None, None] + 0j, quad_tol=tol)
    for a, b in ((0.0, 0.5), (0.3, 0.3), (1.25, 3.7), (2.0, 9.0)):
        dm, dk = path.masses(a, b)
        assert abs(dm - (path.M(b) - path.M(a))) <= 3 * tol
        assert abs(dk - (path.K(b) - path.K(a))) <= 3 * tol
        exact = (b - a) + (b * b - a * a) / 2.0
        assert abs(dm - exact) <= tol and abs(dk - exact) <= tol
    for a, b in ((-1.0, 1.0), (2.0, 1.0), (0.0, math.nan)):
        with pytest.raises(InvalidInputError):
            path.masses(a, b)
    const = LinearPath.constant(np.diag([2.0, 3.0]))
    assert const.masses(1.0, 3.5) == (5.0, 7.5)


def test_mass_query_independent_of_earlier_queries():
    # a value is a function of t alone, bit for bit, whatever was asked
    # of the path before
    rng = np.random.default_rng(11)
    earlier = rng.uniform(0.0, 12.0, 50)
    for seed in (1, 3, 5):
        fresh = _trig_path(2, seed)[0]
        used = _trig_path(2, seed)[0]
        for t in earlier:
            used.M(float(t))
        for t in (2.2, 7.3, 11.9):
            assert used.M(t) == fresh.M(t) and used.K(t) == fresh.K(t)


def test_constant_path_copies_callers_matrix():
    A = np.eye(2, dtype=complex)
    path = LinearPath.constant(A)
    A[0, 0] = 2.0
    assert path.A(0.0)[0, 0] == 1.0 and path.bounds_many([0.0])[0, 0] == 1.0
    assert not path.A(0.0).flags.writeable


def test_path_breakpoints_preserved():
    path = LinearPath(
        1, lambda ts: np.where(ts < 1.0, 1.0, 2.0)[:, None, None] + 0j,
        breakpoints=(1.0,))
    assert path.breakpoints == (1.0,)
    assert path.M(2.0) == pytest.approx(3.0, abs=1e-9)


def _upper_triangular(ts, a, d, b):
    """The stack [[a, b], [0, d]] over the times ts; each entry is a
    number or an array over ts."""
    As = np.zeros((ts.size, 2, 2), dtype=complex)
    As[:, 0, 0], As[:, 1, 1], As[:, 0, 1] = a, d, b
    return As


def _trig_path(q: int, seed: int):
    coeffs = trig_coefficients(q, seed)
    base, S, C, w = coeffs

    def evaluate(ts):
        wt = w * ts[:, None, None]
        return base + np.sin(wt) * S + np.cos(wt) * C

    return LinearPath(q, evaluate), coeffs


def test_bounds_many_bit_identical_to_per_time_bounds():
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 20.0, 64)
    paths = [_trig_path(8, 1)[0], _trig_path(2, 2)[0],
             LinearPath(2, lambda ts: _upper_triangular(
                 ts, 1.0, 2.0 + np.sin(ts), ts))]
    for path in paths:
        single = np.array([path.bounds(t) for t in ts])
        assert np.array_equal(
            single, np.array([hermitian_bounds(path.A(t)) for t in ts]))
        assert np.array_equal(path.bounds_many(ts), single)
        perm = rng.permutation(ts.size)
        assert np.array_equal(path.bounds_many(ts[perm]), single[perm])
        for part in np.array_split(perm, 5):
            batch = np.concatenate([ts[part], rng.uniform(0.0, 20.0, 3)])
            assert np.array_equal(path.bounds_many(batch)[:part.size],
                                  single[part])


def test_dense_q8_mass_matches_gauss_legendre():
    path, coeffs = _trig_path(8, 3)
    for t in (0.37, 2.0, 5.5, 9.0):
        want = gauss_legendre_mass(coeffs, 0.0, t)
        assert abs(path.M(t) - want) <= 1e-10


def test_ell_estimate_diagonal():
    path = LinearPath.constant(np.diag([1.0, 2.0]).astype(complex))
    assert ell_estimate(path, np.linspace(0, 5, 11)) == pytest.approx(
        2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# condition classification


def test_identity_satisfies_every_criterion():
    path = LinearPath.constant(np.eye(2, dtype=complex))
    rep = classify_hypotheses(path, np.linspace(0, 10, 101))
    assert set(rep["verdicts"]) == set(CRITERIA)
    assert all(v == VERDICT_SATISFIED for v in rep["verdicts"].values())
    assert rep["ell"] == pytest.approx(1.0, abs=1e-12)
    assert rep["grid_size"] == 101 and not rep["witnesses"]


def test_diag_1_2_verdict_split():
    path = LinearPath.constant(np.diag([1.0, 2.0]).astype(complex))
    rep = classify_hypotheses(path, np.linspace(0, 10, 101))
    # 2 m(A) - abscissa = 0: the gap condition fails with a witness
    assert rep["verdicts"]["constant_spectral_gap"] == VERDICT_VIOLATED
    assert rep["witnesses"]["constant_spectral_gap"]
    assert rep["verdicts"]["constant_positive_spectrum"] == VERDICT_SATISFIED
    assert rep["verdicts"]["commuting_uniform_bunching"] == VERDICT_VIOLATED
    assert rep["verdicts"]["general_bunching"] == VERDICT_SATISFIED
    assert rep["ell"] == pytest.approx(2.0, abs=1e-12)


def test_time_varying_verdicts_are_grid_relative():
    path = LinearPath(2, lambda ts: _upper_triangular(
        ts, 1.0, 1.0 + 0.5 * np.sin(ts), 0.0))
    # the uniform-margin condition 2m >= k + delta degenerates exactly
    # at sin t = -1; a grid that misses that time reports satisfied...
    coarse = np.linspace(0.0, 10.0, 1001)
    rep = classify_hypotheses(path, coarse)
    assert rep["verdicts"]["commuting_uniform_bunching"] == VERDICT_SATISFIED
    assert rep["verdicts"]["constant_spectral_gap"] == VERDICT_VIOLATED
    # ...and a grid that contains it reports violated
    hit = np.sort(np.append(coarse, 1.5 * np.pi))
    rep2 = classify_hypotheses(path, hit)
    assert rep2["verdicts"]["commuting_uniform_bunching"] == VERDICT_VIOLATED
    # the finite-ratio condition still holds there (ratio exactly 2)
    assert rep2["verdicts"]["general_bunching"] == VERDICT_SATISFIED
    assert rep2["ell"] == pytest.approx(2.0, abs=1e-9)


def test_non_commuting_integrals_detected():
    path = LinearPath(2, lambda ts: _upper_triangular(ts, 1.0, 1.0, ts))
    rep = classify_hypotheses(path, np.linspace(0.0, 1.5, 61))
    assert rep["verdicts"]["commuting_uniform_bunching"] == VERDICT_VIOLATED
    assert rep["witnesses"]["commuting_uniform_bunching"]


def test_margin_below_grid_resolution_is_undecidable():
    eps = 0.5 * GRID_MARGIN
    path = LinearPath.constant(np.diag([1.0, 2.0 - eps]).astype(complex))
    rep = classify_hypotheses(path, np.linspace(0, 5, 11))
    assert rep["verdicts"]["constant_spectral_gap"] == VERDICT_UNDECIDABLE
    assert rep["verdicts"]["commuting_uniform_bunching"] == VERDICT_UNDECIDABLE


def test_negative_mass_violates_everything_decidable():
    path = LinearPath.constant(-np.eye(1, dtype=complex))
    rep = classify_hypotheses(path, np.linspace(0, 2, 5))
    assert rep["verdicts"]["general_bunching"] == VERDICT_VIOLATED
    assert rep["verdicts"]["commuting_uniform_bunching"] == VERDICT_VIOLATED
    assert rep["ell"] is None


def test_classification_needs_two_grid_points():
    path = LinearPath.constant(np.eye(1, dtype=complex))
    with pytest.raises(InvalidInputError):
        classify_hypotheses(path, [0.0])


# ---------------------------------------------------------------------------
# transition factors


def test_transition_matrix_constant_diagonal():
    path = LinearPath.constant(np.diag([1.0, 2.0]).astype(complex))
    T = transition_matrix(path, 0.5, 2.0, tol=1e-12)
    want = np.diag([np.exp(-1.5), np.exp(-3.0)])
    assert np.max(np.abs(T - want)) < 1e-12


def test_transition_matrix_non_normal_vs_expm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    A = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    path = LinearPath.constant(A)
    T = transition_matrix(path, 0.0, 1.3, tol=1e-12)
    want = scipy_linalg.expm(-1.3 * A)
    assert np.max(np.abs(T - want)) < 1e-11


@pytest.mark.parametrize("T", [40.0, 60.0])
def test_transition_matrix_resolves_decaying_entries(T):
    # exp(-T A) for A = [[1, 0.5], [0, 2]] in closed form; its entries
    # fall to e^-120, far below any absolute error floor, and each must
    # be correct relative to its own size
    path = LinearPath.constant(np.array([[1.0, 0.5], [0.0, 2.0]]))
    J = transition_matrix(path, 0.0, T)
    a, d = math.exp(-T), math.exp(-2.0 * T)
    want = np.array([[a, -0.5 * (a - d)], [0.0, d]])
    off = want != 0.0
    assert np.all(np.abs(J - want)[off] <= 1e-8 * np.abs(want[off]))
    assert J[1, 0] == 0.0


def test_transition_matrix_time_varying_scalar():
    path = LinearPath(1, lambda ts: (1.0 + ts)[:, None, None] + 0j)
    T = transition_matrix(path, 0.0, 2.0, tol=1e-12)
    assert abs(T[0, 0] - np.exp(-4.0)) < 1e-12


def test_inverse_product_matches_direct_inverse():
    rng = np.random.default_rng(11)
    acc = InverseTransitionProduct.identity(3)
    total = np.eye(3, dtype=complex)
    for _ in range(4):
        F = np.eye(3, dtype=complex) + 0.3 * _random_complex(rng, 3)
        acc = acc.push(F)
        total = F @ total
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    got = acc.apply(v)
    want = np.linalg.solve(total, v)
    assert np.max(np.abs(got - want)) < 1e-10
    assert len(acc) == 4


def test_inverse_product_telescoping():
    # undoing one more factor then applying it is a no-op
    rng = np.random.default_rng(3)
    F = np.eye(2, dtype=complex) + 0.2 * _random_complex(rng, 2)
    acc = InverseTransitionProduct.identity(2).push(F)
    ext = acc.push(F)
    v = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    assert np.max(np.abs(ext.apply(F @ v) - acc.apply(v))) < 1e-12


def test_inverse_product_condition_cap():
    # factors diag(e^-1, e^-2) leak condition e per push: the running
    # estimate crosses 1e12 before thirty pushes
    F = np.diag([np.exp(-1.0), np.exp(-2.0)]).astype(complex)
    acc = InverseTransitionProduct.identity(2)
    with pytest.raises(DegenerateTransitionError) as exc:
        for _ in range(30):
            acc = acc.push(F)
    assert exc.value.condition_estimate > 1e12


def test_inverse_product_condition_from_singular_values():
    # the condition number comes from the singular values themselves,
    # not from the square roots of eig(F* F), which square it
    rng = np.random.default_rng(13)
    Q1, _ = np.linalg.qr(_random_complex(rng, 3))
    Q2, _ = np.linalg.qr(_random_complex(rng, 3))
    for cond in (1e9, 1e11):
        F = Q1 @ np.diag([1.0, 1e-3, 1.0 / cond]) @ Q2
        acc = InverseTransitionProduct.identity(3).push(F)
        assert acc.condition_estimate == pytest.approx(
            np.linalg.cond(F), rel=1e-6)
    # the cap applies to the condition number of the product itself
    F = Q1 @ np.diag([1.0, 0.5, 1e-7]) @ Q2
    acc = InverseTransitionProduct.identity(3).push(F)
    with pytest.raises(DegenerateTransitionError) as exc:
        acc.push(F)
    assert exc.value.condition_estimate == pytest.approx(
        np.linalg.cond(F @ F), rel=1e-6)
    assert exc.value.condition_estimate > 1e12


def test_inverse_product_condition_is_that_of_the_product():
    # for non-normal factors the product of their condition numbers
    # overstates the condition number of their product
    rng = np.random.default_rng(17)
    for q in (2, 3, 8):
        acc = InverseTransitionProduct.identity(q)
        total = np.eye(q, dtype=complex)
        for _ in range(6):
            F = np.eye(q) + np.triu(_random_complex(rng, q), 1)
            acc = acc.push(F)
            total = F @ total
            assert acc.condition_estimate == pytest.approx(
                np.linalg.cond(total), rel=1e-6)


def test_inverse_product_condition_is_numpys_bit_for_bit():
    # one bare SVD per push gives the bits np.linalg.cond gives on the
    # same product, for random factors and for the factor e^{-A} of the
    # non-normal A = [[1, 0.6], [0, 1]] pushed 60 times
    rng = np.random.default_rng(23)
    non_normal = LinearPath.constant([[1.0, 0.6], [0.0, 1.0]])
    cases = [[np.eye(q) + 0.3 * _random_complex(rng, q) for _ in range(8)]
             for q in (1, 2, 3, 8)]
    cases.append([transition_matrix(non_normal, 0.0, 1.0)] * 60)
    for factors in cases:
        acc = InverseTransitionProduct.identity(factors[0].shape[0])
        for F in factors:
            Q = F @ acc._Q
            acc = acc.push(F)
            assert acc.condition_estimate == float(np.linalg.cond(Q))
    # a singular product reads inf, as in np.linalg.cond, and is refused
    with pytest.raises(DegenerateTransitionError) as exc:
        InverseTransitionProduct.identity(2).push(np.zeros((2, 2)))
    assert exc.value.condition_estimate == np.inf


def test_inverse_product_survives_underflowing_entries():
    # 800 factors e^-1 shrink the product to e^-800, which underflows to
    # 0; held as 2^e Q, it still undoes them to rounding
    F = np.diag([np.exp(-1.0), np.exp(-1.0)]).astype(complex)
    acc = InverseTransitionProduct.identity(2)
    for _ in range(800):
        acc = acc.push(F)
    x = acc.apply(np.array([1e-300, 2e-300j]))
    want = np.exp(800.0 + np.log([1e-300, 2e-300]))
    assert np.allclose([x[0].real, x[1].imag], want, rtol=1e-12, atol=0.0)
    assert x[0].imag == 0.0 and x[1].real == 0.0
    assert acc.condition_estimate == pytest.approx(1.0)


def test_inverse_product_rejects_singular_factor():
    acc = InverseTransitionProduct.identity(2)
    with pytest.raises(DegenerateTransitionError):
        acc.push(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def test_apply_returns_a_new_array():
    v = np.array([0.3 + 0.1j, -0.2 + 0.0j])
    x = InverseTransitionProduct.identity(2).apply(v)
    x[0] = 99.0
    assert v[0] == 0.3 + 0.1j


def test_apply_block_rows_match_vectors_bit_for_bit():
    rng = np.random.default_rng(7)
    for q in (1, 2, 3, 8):
        acc = InverseTransitionProduct.identity(q)
        for _ in range(4):
            acc = acc.push(rng.standard_normal((q, q))
                           + 1j * rng.standard_normal((q, q)) + 3 * np.eye(q))
        for n in (1, 2, 7, 65):
            V = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
            X = acc.apply(V)
            assert X.shape == (n, q)
            for i in range(n):
                assert X[i].tobytes() == acc.apply(V[i]).tobytes()
    with pytest.raises(InvalidInputError):
        acc.apply(np.zeros((2, 2, 8)))
