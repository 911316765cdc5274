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

from conftest import (CHAIN_FIELD_NAMES, CHAIN_LEG_TOL, CHAIN_TOL,
                      PIECEWISE_FILE_FIELD, TRIG_FILE_FIELD, unit_directions)


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


def test_koebe_limit_far_along_the_schedule(chain_for):
    # by t = 730 the product of 730 factors is about e^-730, past where
    # doubles lose precision; the value e^t z / (1 - z)^2 is about 1e307,
    # whose increments need norms that do not overflow: the row stops
    # on two increments below 1e-13 |g| after 13 legs
    ev = chain_for("koebe-1d", N=760)
    t, z0 = 730.0, 1e-10
    cv = ev.eval(t, np.array([z0 + 0j]))
    assert cv.converged
    want = np.exp(t + np.log(z0) - 2.0 * np.log1p(-z0))
    assert abs(cv.value[0] - want) <= 1e-9 * want


@pytest.mark.parametrize("t, z0, tol", [
    (100.0, 0.5, 1e-10), (300.0, 0.5, 1e-10), (460.0, 0.5, 1e-9)],
    ids=["t100", "t300", "t460"])
def test_koebe_limit_at_large_values(t, z0, tol):
    # f_t(0.5) = 2 e^t is 5e43, 4e130 and 2e200; past 1.3e154 a plain
    # 2-norm's squares overflow, and an infinite tolerance passed any row
    field = F.builtin_field("koebe-1d")
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear,
                                                   N=int(t) + 40))
    cv = ev.eval(t, np.array([z0 + 0j]))
    assert cv.converged and cv.value[0].imag == 0.0
    want = t + np.log(z0) - 2.0 * np.log1p(-z0)
    assert abs(np.log(cv.value[0].real) - want) <= tol


def test_map_time_a_rounding_hair_below_a_node():
    # u_7 = 10.000000000000002 for m(A) = 0.7: the leg t -> u_7 is too
    # short to step, and the legs after it start from the usual guess
    field = F.builtin_field("constant-linear", {"matrix": [[0.7]]})
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=30))
    for t in (10.0, 20.0):
        m0 = int(np.searchsorted(ev.schedule.u, t))
        assert 0.0 < ev.schedule.u[m0] - t < 1e-14 * t
        cv = ev.eval(t, np.array([0.5 + 0j]))
        assert cv.converged
        want = 0.5 * np.exp(0.7 * t)
        assert abs(cv.value[0] - want) <= 1e-9 * want


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


def test_converged_implies_error_estimate_below_tolerance(chain_for):
    # a row stopped on its geometric tail has a raw increment far above
    # tolerance; its error estimate, and for koebe-1d the closed form,
    # hold it to the tolerance instead
    for name in ("koebe-1d", "quadratic-perturbation"):
        ev = chain_for(name)
        z = 0.4 * np.ones(ev.field.dim) / np.sqrt(ev.field.dim)
        cv = ev.eval(0.0, z.astype(complex))
        assert cv.converged
        assert cv.error_estimate <= CHAIN_TOL
        if name == "koebe-1d":
            assert abs(cv.value[0] - 0.4 / 0.6 ** 2) <= 10 * CHAIN_TOL


def test_tail_guard_needs_three_steady_ratios_below_the_bound():
    steady = [1.0, 0.5, 0.25, 0.125]
    assert CH._steady_ratio(steady, 0.6) == 0.5
    assert CH._steady_ratio(steady[1:], 0.6) is None  # two ratios only
    assert CH._steady_ratio(steady, 0.5) is None  # not below the bound
    assert CH._steady_ratio([0.0, *steady[1:]], 0.6) is None
    # ratios 0.5, 0.5, 0.504 agree to 1 %; 0.5, 0.5, 0.51 do not
    assert CH._steady_ratio([1.0, 0.5, 0.25, 0.126], 0.6) == pytest.approx(
        0.504)
    assert CH._steady_ratio([1.0, 0.5, 0.25, 0.1275], 0.6) is None


def test_rows_off_the_geometric_tail_keep_the_increment_rule():
    # the trig file's quadratic record varies in time, so its increment
    # ratios wander: a row either stops on two small increments, or its
    # extrapolated value is within tolerance of a tighter, longer chain
    field = F.parse_field_config(TRIG_FILE_FIELD)
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=30),
                           tol_chain=CHAIN_TOL, tol_ode=CHAIN_LEG_TOL)
    ref = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=45),
                            tol_chain=1e-12, tol_ode=CHAIN_LEG_TOL)
    pts = np.concatenate([r * unit_directions(2, 3, seed=3)
                          for r in (0.2, 0.5, 0.8)])
    for t in (0.0, 0.7):
        for cv, want in zip(ev.eval_many(t, pts), ref.eval_many(t, pts)):
            assert cv.converged and want.converged
            assert (cv.stop_rule == "increments"
                    and cv.error_estimate == cv.last_increment
                    or np.linalg.norm(cv.value - want.value) <= CHAIN_TOL)


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
    assert ev.pde_residual(1.0, np.array([0.3 + 0j])) < 1e-4


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


def test_past_horizon_is_refused_before_integrating(monkeypatch):
    # identity_residual refuses t > u_N with eval_many's reason, without
    # marching at s or evolving over [s, t] first
    field = F.builtin_field("constant-linear", {"matrix": [[8]]})
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=3))
    legs = []
    evolve_one = CH._evolve_one
    monkeypatch.setattr(CH, "_evolve_one",
                        lambda *a, **k: legs.append(a) or evolve_one(*a, **k))
    with pytest.raises(HorizonExhaustedError) as refused:
        ev.identity_residual(0.0, 1.0, np.array([0.4 + 0j]))
    assert legs == [] and ev._factors is None
    with pytest.raises(HorizonExhaustedError) as direct:
        ev.eval_many(1.0, np.array([[0.4 + 0j]]))
    assert str(refused.value) == str(direct.value)
    assert "exceeds the schedule horizon u_N = 0.375" in str(refused.value)


def test_horizon_extension_is_stable(chain_for):
    a = chain_for("koebe-1d", 30).eval(0.5, np.array([0.45 + 0j]))
    b = chain_for("koebe-1d", 35).eval(0.5, np.array([0.45 + 0j]))
    assert a.converged and b.converged
    assert abs(a.value[0] - b.value[0]) <= CHAIN_TOL


def test_range_sample_converges_and_nests(chain_for):
    ev = chain_for("koebe-1d")
    rs = ev.range_sample(1.0, radius=0.4, directions=4)
    assert rs["converged"]
    assert np.shape(rs["values"]) == (12, 1, 2)
    assert rs["max_inclusion_residual"] < 1e-7


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
    # alone, wherever it sits in a batch: with N = 10 the small state
    # converges, the zero state short-cuts and the far state runs out of
    # horizon after taking steps, so rows retire at different m
    ev = chain_for("quadratic-perturbation", 10)
    u = ev.schedule.u
    d = np.array([0.6 + 0.2j, -0.3 + 0.7j])
    d /= np.linalg.norm(d)
    near, far, zero = 0.1 * d, 0.6 * d, np.zeros(2, dtype=complex)
    for t in (u[1], 0.5 * (u[1] + u[2])):
        alone = [ev.eval(t, z) for z in (near, far, zero)]
        assert alone[0].converged and alone[0].m_used < 10
        assert not alone[1].converged and len(alone[1].history) > 0
        assert alone[1].stop_rule == "horizon"
        assert alone[2].converged and alone[2].history == ()
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2, 0)):
            pts = np.array([(near, far, zero)[k] for k in order])
            for k, cv in zip(order, ev.eval_many(t, pts)):
                want = alone[k]
                assert cv.value.tobytes() == want.value.tobytes(), (t, order)
                assert (cv.m_used, cv.last_increment, cv.converged,
                        cv.history, cv.error_estimate, cv.stop_rule) == (
                            want.m_used, want.last_increment, want.converged,
                            want.history, want.error_estimate,
                            want.stop_rule)


def test_legs_resume_from_the_last_step(monkeypatch):
    # a fresh leg ramps its step up from 0.01 |z| / |h(z)| and takes 12
    # steps per unit of mass on koebe-1d at tol 1e-10; a leg that starts
    # from the step its row ended the last leg on takes 6 or 7; a tight
    # tol_chain keeps every row marching for more than 12 legs
    field = F.builtin_field("koebe-1d")
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=30),
                           tol_chain=1e-12, tol_ode=1e-10)
    evolve_one = CH._evolve_one

    def counted(*args, **kwargs):
        y, stats = evolve_one(*args, **kwargs)
        legs.append(stats.steps_taken / len(y))
        return y, stats

    monkeypatch.setattr(CH, "_evolve_one", counted)
    for r in (0.1, 0.5, 0.8):
        legs = []
        cv = ev.eval(0.3, np.array([r + 0j]))  # t -> u_1, then u_1 -> ...
        assert cv.converged and len(legs) > 12
        assert max(legs[2:]) <= 8, (r, legs)


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
        if field.linear.is_constant:
            # one factor e^{-A/m(A)} serves every unit-mass step; each
            # step's own factor differs only by the rounding of its u
            assert ev.step_factor(m).tobytes() == ev.step_factor(0).tobytes()
            assert (np.max(np.abs(ev.step_factor(m) - lone))
                    <= 1e-13 * np.max(np.abs(lone))), m
        else:
            assert ev.step_factor(m).tobytes() == lone.tobytes(), m
    # a scalar start with an array of ends gives the same stack
    ends = np.array(u[1:4])
    stack = transition_matrix(field.linear, u[0], ends, tol=1e-10)
    assert stack.shape == (3, field.dim, field.dim)
    for J, t in zip(stack, ends):
        assert J.tobytes() == transition_matrix(field.linear, u[0], t,
                                                tol=1e-10).tobytes()


def _counted_transition_calls(monkeypatch) -> list:
    """The (s, t) of every transition_matrix call the chain makes from
    here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return transition_matrix(*args, **kwargs)

    monkeypatch.setattr(CH, "transition_matrix", counted)
    return calls


def test_one_transition_call_per_evaluator(monkeypatch):
    # every consumer of the factors shares one integration, on a constant
    # linear part of the one step u_0 -> u_1; a return to per-factor
    # integrator calls fails here
    calls = _counted_transition_calls(monkeypatch)
    field = F.builtin_field("quadratic-perturbation", {"dim": 2})
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=20))
    ev.eval_many(0.3, np.array([[0.2, 0.1j], [0.0, 0.4]]))
    ev.pde_residual(0.5, np.array([0.1, 0.2j]))
    ev.range_sample(0.4, directions=2)
    u = ev.schedule.u
    assert calls == [(u[0], u[1])] and np.ndim(calls[0][0]) == 0


def test_one_block_transition_call_on_a_varying_path(monkeypatch):
    calls = _counted_transition_calls(monkeypatch)
    field = F.parse_field_config(TRIG_FILE_FIELD)
    ev = CH.ChainEvaluator(field, S.build_schedule(field.linear, N=20))
    ev.eval_many(0.3, np.array([[0.2, 0.1j], [0.0, 0.4]]))
    ev.eval_many(0.5, np.array([[0.1, 0.2j]]))
    assert len(calls) == 1
    s, t = calls[0]
    assert np.shape(s) == np.shape(t) == (20,)
