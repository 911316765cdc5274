"""Normalized limit maps: closed-form oracles, geometric increments,
functional and transport identities, refusal policies."""

import numpy as np
import pytest

from loewner_basin import chain as CH
from loewner_basin import fields as F
from loewner_basin import schedule as S
from loewner_basin.errors import (ChainUnavailableError,
                                  HorizonExhaustedError, InvalidInputError)
from loewner_basin.linear import InverseTransitionProduct, transition_matrix

from conftest import (CHAIN_FIELD_NAMES, CHAIN_TOL, PIECEWISE_FILE_FIELD,
                      TRIG_FILE_FIELD)


def test_koebe_family_solves_transport_equation_symbolically():
    # the closed form used as the oracle below, e^t z / (1 - z)^2, must
    # satisfy d/dt f = (d/dz f) * h with h(z) = z (1 - z)/(1 + z);
    # only then may the numeric assertions trust it
    sympy = pytest.importorskip("sympy")
    z, t = sympy.symbols("z t")
    f = sympy.exp(t) * z / (1 - z) ** 2
    h = z * (1 - z) / (1 + z)
    residue = sympy.simplify(sympy.diff(f, t) - sympy.diff(f, z) * h)
    assert residue == 0


def test_identity_field_limit_is_exponential_scaling(chain_for):
    ev = chain_for("constant-identity-2d")
    z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    for t in (0.0, 0.5, 1.0):
        cv = ev.eval(t, z)
        assert cv.converged
        assert np.max(np.abs(cv.value - np.exp(t) * z)) < 1e-8
    lam = ev.step_factor(0)
    assert np.max(np.abs(lam - np.exp(-1.0) * np.eye(2))) < 1e-10


def test_zero_state_shortcut(chain_for):
    cv = chain_for("constant-identity-2d").eval(0.7, np.zeros(2))
    assert cv.converged and np.all(cv.value == 0)


def test_koebe_limit_matches_closed_form(chain_for):
    ev = chain_for("koebe-1d")
    worst = 0.0
    for z0 in np.linspace(-0.5, 0.5, 7):
        if z0 == 0.0:
            continue
        for t in (0.0, 1.0):
            cv = ev.eval(t, np.array([z0 + 0j]))
            assert cv.converged, (z0, t)
            want = np.exp(t) * z0 / (1 - z0) ** 2
            worst = max(worst, abs(cv.value[0] - want))
    assert worst < 1e-6


def test_koebe_limit_at_offschedule_time(chain_for):
    ev = chain_for("koebe-1d")
    cv = ev.eval(0.35, np.array([0.4 + 0.1j]))
    assert cv.converged
    z0 = 0.4 + 0.1j
    want = np.exp(0.35) * z0 / (1 - z0) ** 2
    assert abs(cv.value[0] - want) < 1e-6


def test_increments_decay_geometrically_inside_radius(chain_for):
    ev = chain_for("koebe-1d")
    sched = ev.schedule
    cv = ev.eval(0.0, np.array([0.5 + 0j]))
    assert cv.converged
    bound = 1.1 * sched.mu ** 2 / sched.nu
    rows = list(cv.history)
    checked = 0
    for (m_a, aw_a, inc_a), (m_b, aw_b, inc_b) in zip(rows, rows[1:]):
        if aw_a <= sched.r:
            assert inc_b <= bound * inc_a + 1e-12, (m_a, inc_a, inc_b)
            checked += 1
    assert checked >= 5


def test_converged_implies_increment_below_tolerance(chain_for):
    for name in ("koebe-1d", "quadratic-perturbation"):
        ev = chain_for(name)
        z = 0.4 * np.ones(ev.field.dim) / np.sqrt(ev.field.dim)
        cv = ev.eval(0.0, z.astype(complex))
        assert cv.converged
        assert cv.last_increment <= CHAIN_TOL


def test_normalization_telescopes(chain_for):
    # undoing m+1 factors after applying the m-th equals undoing m
    ev = chain_for("quadratic-perturbation")
    rng = np.random.default_rng(1)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    prefix = InverseTransitionProduct.identity(2)
    for m in range(8):
        lam = ev.step_factor(m)
        if m in (0, 3, 7):
            a = prefix.push(lam).apply(lam @ v)
            b = prefix.apply(v)
            assert np.max(np.abs(a - b)) < 1e-10
        prefix = prefix.push(lam)


def test_derivative_at_origin_matches_exponential(chain_for):
    # for the identity field the limit map scales by e^t near 0
    ev = chain_for("constant-identity-1d")
    d = 1e-6
    for t in (0.0, 1.0):
        fp = ev.eval(t, np.array([d + 0j])).value[0]
        fm = ev.eval(t, np.array([-d + 0j])).value[0]
        deriv = (fp - fm) / (2 * d)
        assert abs(deriv - np.exp(t)) < 1e-6


def test_distinct_states_keep_distinct_values(chain_for):
    ev = chain_for("koebe-1d")
    pts = np.array([[0.3 + 0j], [0.3 + 0.05j], [-0.2 + 0.1j], [0.45 + 0j]])
    vals = [ev.eval(1.0, p).value[0] for p in pts]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert abs(vals[i] - vals[j]) >= 1e-10


def test_functional_identity_residual(chain_for):
    ev = chain_for("koebe-1d")
    for (s, t) in ((0.0, 1.0), (1.0, 2.0), (0.3, 2.7)):
        assert ev.identity_residual(s, t, np.array([0.4 + 0.1j])) < 1e-7


def test_transport_residual(chain_for):
    ev = chain_for("koebe-1d")
    assert ev.pde_residual(1.0, np.array([0.3 + 0j]), dt=1e-4) < 1e-4


def test_every_intended_corpus_field_admits_a_chain(chain_for, corpus_map):
    for name in CHAIN_FIELD_NAMES:
        ev = chain_for(name)
        z = 0.3 * np.ones(ev.field.dim, dtype=complex) / np.sqrt(
            ev.field.dim)
        assert ev.eval(0.0, z).converged, name
    assert set(CHAIN_FIELD_NAMES) | {"constant-diag-1-2"} == set(corpus_map)


def test_mass_ratio_two_is_refused(corpus_map):
    p12 = corpus_map["constant-diag-1-2"]
    sched = S.build_schedule(p12.linear, N=4)
    assert sched.accepted and sched.h == 3
    with pytest.raises(ChainUnavailableError):
        CH.ChainEvaluator(p12, sched)


def test_rejected_schedule_is_refused(corpus_map):
    p12 = corpus_map["constant-diag-1-2"]
    bad = S.build_schedule(p12.linear, N=4, ell=1.2, strict=False)
    assert not bad.accepted
    with pytest.raises(InvalidInputError):
        CH.ChainEvaluator(p12, bad)


def test_eval_guards(chain_for):
    ev = chain_for("constant-identity-2d")
    z = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    with pytest.raises(HorizonExhaustedError):
        ev.eval(100.0, z)
    with pytest.raises(InvalidInputError):
        ev.eval(0.5, np.array([1.2 + 0j, 0.0]))
    with pytest.raises(InvalidInputError):
        ev.eval(-1.0, z)
    with pytest.raises(InvalidInputError):
        ev.eval(0.5, np.array([0.1 + 0j]))
    with pytest.raises(InvalidInputError):
        ev.eval(0.5, np.array([np.nan, 0.1 + 0j]))
    with pytest.raises(InvalidInputError):
        ev.eval(float("nan"), z)


def test_horizon_extension_is_stable(chain_for):
    a = chain_for("koebe-1d", 30).eval(0.5, np.array([0.45 + 0j]))
    b = chain_for("koebe-1d", 35).eval(0.5, np.array([0.45 + 0j]))
    assert a.converged and b.converged
    assert abs(a.value[0] - b.value[0]) <= CHAIN_TOL


def test_range_sample_converges_and_nests(chain_for):
    ev = chain_for("koebe-1d")
    rs = ev.range_sample(1.0, radius=0.4, shells=2, directions=4)
    assert rs.converged
    assert rs.values.shape == (8, 1)
    assert rs.max_inclusion_residual() < 1e-7


def test_koebe_range_on_positive_axis(chain_for):
    # at t = 0 the limit map sends real z in (0, 1) to z/(1-z)^2 > 0
    ev = chain_for("koebe-1d")
    for z0 in (0.2, 0.5, 0.7):
        v = ev.eval(0.0, np.array([z0 + 0j])).value[0]
        assert abs(v.imag) < 1e-8 and v.real > 0
        assert abs(v - z0 / (1 - z0) ** 2) < 1e-6


def test_eval_many_shapes(chain_for):
    ev = chain_for("koebe-1d")
    vals = ev.eval_many(0.0, np.array([[0.1 + 0j], [0.2 + 0j]]))
    assert len(vals) == 2 and all(cv.converged for cv in vals)


def test_batched_rows_match_lone_evaluation(chain_for):
    # each row of eval_many takes exactly the legs and solves it takes
    # alone, wherever it sits in a batch: with N = 20 the small state
    # converges, the zero state short-cuts and the far state runs out of
    # horizon after taking steps, so rows retire at different m
    ev = chain_for("quadratic-perturbation", 20)
    u = ev.schedule.u
    d = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    d /= np.linalg.norm(d)
    near, far, zero = 0.1 * d, 0.6 * d, np.zeros(2, dtype=complex)
    for t in (u[1], 0.5 * (u[1] + u[2])):
        alone = [ev.eval(t, z) for z in (near, far, zero)]
        assert alone[0].converged and alone[0].m_used < 20
        assert not alone[1].converged and len(alone[1].history) > 0
        assert alone[2].converged and alone[2].history == ()
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2, 0)):
            pts = np.array([(near, far, zero)[k] for k in order])
            for k, cv in zip(order, ev.eval_many(t, pts)):
                want = alone[k]
                assert cv.value.tobytes() == want.value.tobytes(), (t, order)
                assert (cv.m_used, cv.last_increment, cv.converged,
                        cv.history) == (want.m_used, want.last_increment,
                                        want.converged, want.history)


@pytest.mark.parametrize("make", [
    lambda: F.builtin_field("constant-linear", {"dim": 8}),
    lambda: F.parse_field_config(TRIG_FILE_FIELD),
    lambda: F.parse_field_config(PIECEWISE_FILE_FIELD),
], ids=["constant-q8", "trig-file", "piecewise-file"])
def test_batched_factors_match_one_at_a_time(make):
    field = make()
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=8),
                           tol_ode=1e-10)
    u = ev.schedule.u
    inside = [m for m in range(8)
              if any(u[m] < b < u[m + 1] for b in field.breakpoints)]
    assert inside or not field.breakpoints  # some step crosses a breakpoint
    for m in range(8):
        lone = transition_matrix(field.linear, u[m], u[m + 1], tol=1e-10)
        assert lone.shape == (field.dim, field.dim)
        assert ev.step_factor(m).tobytes() == lone.tobytes(), m
    # a scalar start with an array of ends gives the same stack
    ends = np.array(u[1:4])
    stack = transition_matrix(field.linear, u[0], ends, tol=1e-10)
    assert stack.shape == (3, field.dim, field.dim)
    for J, t in zip(stack, ends):
        assert J.tobytes() == transition_matrix(field.linear, u[0], t,
                                                tol=1e-10).tobytes()


def test_one_transition_call_per_evaluator(monkeypatch):
    # every consumer of the factors shares one block integration; a return
    # to per-factor integrator calls fails here
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return transition_matrix(*args, **kwargs)

    monkeypatch.setattr(CH, "transition_matrix", counted)
    field = F.builtin_field("quadratic-perturbation", {"dim": 2})
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=20))
    ev.eval_many(0.3, np.array([[0.2, 0.1j], [0.0, 0.4]]))
    ev.pde_residual(0.5, np.array([0.1, 0.2j]))
    ev.range_sample(0.4, shells=1, directions=2)
    assert len(calls) == 1
    s, t = calls[0]
    assert np.shape(s) == np.shape(t) == (20,)
