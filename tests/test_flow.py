"""Evolution operator: closed-form oracles, semigroup law, decay bounds,
escape and validation guards."""

import numpy as np
import pytest

from loewner_basin import ChainEvaluator, _integrate, build_schedule
from loewner_basin import fields as F
from loewner_basin import flow as FL
from loewner_basin.errors import (EscapeError, InvalidInputError,
                                  NumericalFailureError)
from loewner_basin.linear import LinearPath

from conftest import (PIECEWISE_FILE_FIELD, TRIG_FILE_FIELD,
                      unit_directions)


def _koebe_K(z):
    return z / (1 - z) ** 2


def _koebe_K_inv(w):
    return np.where(np.abs(w) < 1e-30, w,
                    (2 * w + 1 - np.sqrt(4 * w + 1)) / (2 * w))


# ---------------------------------------------------------------------------
# closed-form oracles


def test_koebe_point_golden_bits():
    # pins the exact result and step counts of one evolved point, so a
    # rewrite of the stepper that changes rounding or step choice shows
    fld = F.builtin_field("koebe-1d", {})
    w, stats = FL._evolve_one(fld, 0.0, 4.0, np.array([0.5 + 0.1j]), 1e-10)
    assert w[0] == complex(float.fromhex("0x1.d7d428036f3b3p-6"),
                           float.fromhex("0x1.24ca962517d5dp-6"))
    assert (stats.steps_taken, stats.steps_rejected,
            stats.rhs_evaluations) == (21, 0, 253)


def test_constant_diagonal_flow_is_exponential():
    fld = F.builtin_field("constant-linear", {"matrix": [[1, 0], [0, 2]]})
    pts = np.array([[0.3 + 0.1j, -0.2 + 0.4j], [0.5, 0.0]])
    res = FL.evolve(FL.FlowRequest(field=fld, s=0.0, t=1.25, points=pts,
                                   tol=1e-12))
    exact = pts * np.array([np.exp(-1.25), np.exp(-2.5)])
    assert np.max(np.abs(res.images - exact)) < 1e-11
    assert res.steps_taken > 0 and res.rhs_evaluations > 0
    assert not res.images.flags.writeable


def test_relative_control_resolves_a_long_decay():
    # an absolute error floor stalls a decaying state near the floor:
    # 0.5 e^-60 = 4.4e-27 once came out as 5.8e-15
    fld = F.builtin_field("constant-linear", {"dim": 1})
    w = FL.evolve(FL.FlowRequest(field=fld, s=0.0, t=60.0,
                                 points=np.array([[0.5 + 0j]]))).images[0, 0]
    exact = 0.5 * np.exp(-60.0)
    assert abs(w - exact) <= 1e-8 * exact


def test_time_varying_scalar_flow():
    path = LinearPath(1, lambda ts: (1.0 + ts)[:, None, None] + 0j)
    fld = F.FieldSpec(dim=1, linear=path, remainder=F._zero_remainder)
    w = FL.evolve(FL.FlowRequest(field=fld, s=0.0, t=1.0,
                                 points=np.array([0.4 + 0j]),
                                 tol=1e-12)).images[0]
    assert abs(w[0] - 0.4 * np.exp(-1.5)) < 1e-12


def test_koebe_flow_matches_conjugated_closed_form(koebe):
    for z0 in (0.45, -0.45, 0.3 + 0.2j, -0.1 - 0.35j):
        for t in (0.5, 1.0, 3.0):
            got = FL.evolve(FL.FlowRequest(
                field=koebe, s=0.0, t=t, points=np.array([z0], dtype=complex),
                tol=1e-12)).images[0, 0]
            want = complex(
                _koebe_K_inv(np.exp(-t) * _koebe_K(np.asarray(z0, complex))))
            assert abs(got - want) < 5e-12, (z0, t)


def test_origin_is_stationary(corpus_map):
    for name in ("koebe-1d", "quadratic-perturbation"):
        fld = corpus_map[name]
        z0 = np.zeros((1, fld.dim), dtype=complex)
        res = FL.evolve(FL.FlowRequest(field=fld, s=0.0, t=2.0, points=z0))
        assert np.all(res.images == 0.0)


def test_same_endpoint_is_identity(koebe):
    pts = np.array([[0.3 + 0.2j]])
    res = FL.evolve(FL.FlowRequest(field=koebe, s=1.0, t=1.0, points=pts))
    assert np.array_equal(res.images, pts)


# ---------------------------------------------------------------------------
# composition and decay


def test_semigroup_defect_small(koebe):
    d = FL.semigroup_defect(koebe, 0.0, 0.7, 2.0,
                            np.array([[0.5 + 0.2j]]), tol=1e-11)
    assert d < 5e-10


def test_semigroup_defect_is_relative_to_the_state():
    # a linear field maps 2^-60 z to 2^-60 phi(z), so a relative defect
    # stays put where an absolute one would shrink 2^60-fold; the ratio
    # is not exactly 1 because the initial step adds an absolute floor
    fld = F.builtin_field("diagonal-periodic")
    z = np.array([[0.5 + 0.2j, -0.3j]])
    big, small = (FL.semigroup_defect(fld, 0.0, 0.7, 2.0, k * z)
                  for k in (1.0, 2.0 ** -60))
    assert 0.0 < big < 20.0 * 1e-10
    assert 0.5 * big <= small <= 2.0 * big


def test_semigroup_validation(koebe):
    with pytest.raises(InvalidInputError):
        FL.semigroup_defect(koebe, 0.0, 3.0, 2.0, np.array([[0.1 + 0j]]))


def test_decay_bounds_hold_on_corpus(corpus):
    for name, fld in corpus:
        pts = F.SamplePlan(radii=(0.2, 0.5, 0.8), directions=16).states(
            fld.dim)
        rep = FL.decay_bounds_check(fld, [(0.0, 1.5)], pts,
                                    tol=1e-10)["intervals"][0]
        assert rep["passed"], (name, rep["min_lower_margin"],
                               rep["min_upper_margin"])
        assert rep["points"] == len(pts)


def test_decay_bounds_reject_zero_points(koebe):
    with pytest.raises(InvalidInputError):
        FL.decay_bounds_check(koebe, [(0.0, 1.0)], np.array([[0.0 + 0j]]))


def test_flow_never_expands_modulus(corpus):
    # |phi_{s,t}(z)| <= |z| for every admissible field
    for name, fld in corpus:
        pts = 0.6 * unit_directions(fld.dim, 8, seed=5)
        for (s, t) in ((0.0, 0.05), (0.3, 1.7)):
            res = FL.evolve(FL.FlowRequest(field=fld, s=s, t=t, points=pts))
            grew = (np.linalg.norm(res.images, axis=1)
                    - np.linalg.norm(pts, axis=1))
            assert np.max(grew) <= 1e-9, name


def test_scalar_flow_second_order_oracle():
    # h(z) = z + z^2 gives phi_{0,1}(z) = e^-1 z + (e^-2 - e^-1) z^2 + O(z^3),
    # so the even part of the flow map at +-delta over delta^2 is the
    # z^2 coefficient up to O(delta^2)
    fld = F.builtin_field("quadratic-perturbation",
                          {"dim": 1, "epsilon": 1.0})
    d = 1e-3
    fp, fm = (FL.evolve(FL.FlowRequest(field=fld, s=0.0, t=1.0,
                                       points=np.array([z + 0j]),
                                       tol=1e-13)).images[0, 0]
              for z in (d, -d))
    assert abs((fp + fm) / (2 * d * d) - (np.exp(-2) - np.exp(-1))) < 1e-5


# ---------------------------------------------------------------------------
# trace, escape, validation


def test_trace_endpoints_and_monotonicity(koebe):
    times, states = FL.trace(koebe, 0.0, 2.0, np.array([0.5 + 0j]),
                             tol=1e-10)
    assert times[0] == 0.0 and times[-1] == 2.0
    assert all(b > a for a, b in zip(times, times[1:]))
    end = FL.evolve(FL.FlowRequest(field=koebe, s=0.0, t=2.0,
                                   points=np.array([0.5 + 0j]))).images[0]
    assert abs(states[-1][0] - end[0]) < 1e-12


def test_trajectories_rows_match_lone_traces():
    fld = F.parse_field_config(PIECEWISE_FILE_FIELD)  # crosses 1.3 and 2.5
    pts = np.array([[0.5, 0.1j], [0.0, 0.0], [-0.3, 0.6]])
    req = FL.FlowRequest(field=fld, s=0.5, t=2.7, points=pts)
    res, paths = FL.trajectories(req)
    ref = FL.evolve(req)
    assert res.images.tobytes() == ref.images.tobytes()
    assert {**vars(res), "images": 0} == {**vars(ref), "images": 0}
    for z, w, (times, states) in zip(pts, res.images, paths):
        lone = FL.trace(fld, 0.5, 2.7, z)
        assert times == lone[0] and times[0] == 0.5 and times[-1] == 2.7
        assert [x.tobytes() for x in states] == [x.tobytes()
                                                 for x in lone[1]]
        assert states[0].tobytes() == z.tobytes()
        assert states[-1].tobytes() == w.tobytes()


def test_outward_field_escape_detected():
    path = LinearPath.constant(-np.eye(1, dtype=complex))
    bad = F.FieldSpec(dim=1, linear=path, remainder=F._zero_remainder)
    with pytest.raises(EscapeError) as exc:
        FL.evolve(FL.FlowRequest(field=bad, s=0.0, t=2.0,
                                 points=np.array([0.9 + 0j])))
    assert 0.0 < exc.value.t < 0.2


def test_request_validation(koebe):
    good = np.array([[0.1 + 0j]])
    with pytest.raises(InvalidInputError):
        FL.FlowRequest(field=koebe, s=-1.0, t=1.0, points=good)
    with pytest.raises(InvalidInputError):
        FL.FlowRequest(field=koebe, s=2.0, t=1.0, points=good)
    with pytest.raises(InvalidInputError):
        FL.FlowRequest(field=koebe, s=0.0, t=1.0,
                       points=np.array([[1.0 + 0j]]))
    with pytest.raises(InvalidInputError):
        FL.FlowRequest(field=koebe, s=0.0, t=1.0, points=good, tol=1.0)


def test_request_copies_callers_points(koebe):
    pts = np.array([[0.1 + 0j], [0.2 + 0j]])
    req = FL.FlowRequest(field=koebe, s=0.0, t=1.0, points=pts)
    pts[0, 0] = 0.5
    assert req.points[0, 0] == 0.1
    assert not req.points.flags.writeable


# ---------------------------------------------------------------------------
# row blocks: every row steps as it would alone


def _outward_beyond(radius: float) -> F.FieldSpec:
    # h(z) = z (1 - |z|^2 / radius^2): the flow -h contracts states inside
    # the radius and pushes states outside it to the sphere
    def remainder(z, t):
        return -z * np.sum(np.abs(z) ** 2, axis=-1, keepdims=True) / radius**2

    return F.FieldSpec(dim=1, linear=LinearPath.constant(np.eye(1)),
                       remainder=remainder)


def test_rows_step_as_they_would_alone(monkeypatch):
    cases = [
        (F.builtin_field("koebe-1d"), 0.0, 4.0),
        (F.builtin_field("quadratic-perturbation", {"dim": 2}), 0.0, 3.0),
        (F.builtin_field("quadratic-perturbation",
                         {"dim": 8, "epsilon": 0.1}), 0.2, 2.0),
        (F.parse_field_config(TRIG_FILE_FIELD), 0.5, 2.5),  # crosses 1.5
    ]
    for fld, s, t in cases:
        pts = 0.7 * unit_directions(fld.dim, 3, seed=fld.dim)
        pts *= np.array([[1.0], [0.15], [0.5]])
        alone = [FL._evolve_one(fld, s, t, z[None], 1e-10) for z in pts]
        for order in ((0, 1, 2), (1, 0, 2), (1, 2, 0)):
            W, stats = FL._evolve_one(fld, s, t, pts[list(order)], 1e-10)
            for w, k in zip(W, order):
                assert w.tobytes() == alone[k][0][0].tobytes(), (fld, order)
            assert (stats.steps_taken, stats.steps_rejected,
                    stats.rhs_evaluations, stats.max_local_error) == (
                sum(a[1].steps_taken for a in alone),
                sum(a[1].steps_rejected for a in alone),
                sum(a[1].rhs_evaluations for a in alone),
                max(a[1].max_local_error for a in alone))

    # one escaping row raises with its own time and point
    out = _outward_beyond(0.6)
    with pytest.raises(EscapeError) as lone:
        FL._evolve_one(out, 0.0, 5.0, np.array([[0.7 + 0j]]), 1e-10)
    with pytest.raises(EscapeError) as block:
        FL._evolve_one(out, 0.0, 5.0, np.array([[0.2], [0.7], [0.5]]), 1e-10)
    assert block.value.t == lone.value.t
    assert block.value.point.tobytes() == lone.value.point.tobytes()

    # the step budget counts each row's own steps
    koebe = F.builtin_field("koebe-1d")
    rows = np.array([[0.05 + 0j], [0.6 + 0.3j]])

    def tries(z):
        stats = FL._evolve_one(koebe, 0.0, 4.0, z[None], 1e-10)[1]
        return stats.steps_taken + stats.steps_rejected

    spent = [tries(z) for z in rows]
    assert spent[0] < spent[1] - 1  # only the second row runs out
    monkeypatch.setattr(_integrate, "_MAX_STEPS", spent[1] - 1)
    with pytest.raises(NumericalFailureError) as lone:
        FL._evolve_one(koebe, 0.0, 4.0, rows[1:], 1e-10)
    with pytest.raises(NumericalFailureError) as block:
        FL._evolve_one(koebe, 0.0, 4.0, rows, 1e-10)
    assert lone.value.iterations == spent[1] - 1
    assert (str(block.value), block.value.iterations) == (
        str(lone.value), lone.value.iterations)
    monkeypatch.undo()

    # the escape tripwire takes each row's norm, not the block's
    pair = np.array([[0.8 + 0j], [0.8j]])
    W, _ = FL._evolve_one(koebe, 0.0, 1.0, pair, 1e-10)
    for w, z in zip(W, pair):
        assert w.tobytes() == FL._evolve_one(koebe, 0.0, 1.0, z[None],
                                             1e-10)[0][0].tobytes()

    # each row may have its own span: rows that cross different
    # breakpoints, or none, or have zero length still step as alone
    for cfg in (TRIG_FILE_FIELD, PIECEWISE_FILE_FIELD):
        fld = F.parse_field_config(cfg)
        spans = np.array([(0.5, 2.6), (1.0, 1.3), (1.5, 4.9), (0.2, 1.7),
                          (2.0, 2.0), (2.4, 2.6), (0.0, 6.0)])
        pts = 0.8 * unit_directions(2, len(spans), seed=7)
        alone = [FL._evolve_one(fld, s, t, z[None], 1e-10)
                 for (s, t), z in zip(spans, pts)]
        for order in (range(len(spans)), (4, 6, 1, 0, 5, 3, 2)):
            order = list(order)
            W, stats = FL._evolve_one(fld, spans[order, 0], spans[order, 1],
                                      pts[order], 1e-10)
            for w, k in zip(W, order):
                assert w.tobytes() == alone[k][0][0].tobytes(), (cfg, k)
            assert stats.rhs_evaluations == sum(a[1].rhs_evaluations
                                                for a in alone)

    # zero rows give an empty image block (requests refuse them, see
    # test_empty_point_blocks_are_refused)
    qp2 = cases[1][0]
    images, stats = FL._evolve_one(qp2, 0.0, 1.0, np.zeros((0, 2)), 1e-10)
    assert images.shape == (0, 2)
    assert (stats.steps_taken, stats.rhs_evaluations) == (0, 0)


def test_admission_stops_at_the_escape_tripwire(koebe):
    # the integrator's tripwire fires at 1 - ESCAPE_MARGIN, so a state
    # between it and the sphere is refused up front, not as an escape
    inside = 1.0 - 2.0 * FL.ESCAPE_MARGIN
    FL.FlowRequest(field=koebe, s=0.0, t=1.0, points=[[inside]])
    for r in (1.0 - FL.ESCAPE_MARGIN, 1.0 - FL.ESCAPE_MARGIN / 2):
        with pytest.raises(InvalidInputError, match="escape tripwire"):
            FL.FlowRequest(field=koebe, s=0.0, t=1.0, points=[[r]])
    with pytest.raises(InvalidInputError, match=">= 1"):
        FL.FlowRequest(field=koebe, s=0.0, t=1.0, points=[[1.0]])


def test_empty_point_blocks_are_refused(koebe):
    # an empty block would pass every check vacuously
    none = np.zeros((0, 1))
    with pytest.raises(InvalidInputError, match="n >= 1"):
        FL.FlowRequest(field=koebe, s=0.0, t=1.0, points=none)
    with pytest.raises(InvalidInputError, match="n >= 1"):
        FL.decay_bounds_check(koebe, [(0.0, 1.0)], none)
    with pytest.raises(InvalidInputError, match="n >= 1"):
        FL.semigroup_defect(koebe, 0.0, 0.5, 1.0, none)
    ev = ChainEvaluator(koebe, build_schedule(koebe.linear, N=2))
    with pytest.raises(InvalidInputError, match="n >= 1"):
        ev.eval_many(0.5, none)
