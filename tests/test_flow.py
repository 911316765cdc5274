"""Evolution operator: closed-form oracles, semigroup law, decay bounds,
origin jets, escape and validation guards."""

import numpy as np
import pytest

from loewner_basin import _integrate
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
    assert w[0] == complex(float.fromhex("0x1.d7d4280370127p-6"),
                           float.fromhex("0x1.24ca962516c67p-6"))
    assert (stats.steps_taken, stats.steps_rejected,
            stats.rhs_evaluations) == (167, 0, 1003)


def test_constant_diagonal_flow_is_exponential():
    fld = F.builtin_field("constant-linear", {"matrix": [[1, 0], [0, 2]]})
    pts = np.array([[0.3 + 0.1j, -0.2 + 0.4j], [0.5, 0.0]])
    res = FL.evolve(FL.FlowRequest(field=fld, s=0.0, t=1.25, points=pts,
                                   tol=1e-12))
    exact = pts * np.array([np.exp(-1.25), np.exp(-2.5)])
    assert np.max(np.abs(res.images - exact)) < 1e-11
    assert res.steps_taken > 0 and res.rhs_evaluations > 0
    assert not res.images.flags.writeable


def test_time_varying_scalar_flow():
    path = LinearPath.from_callable(
        1, lambda t: np.array([[1.0 + t]], dtype=complex))
    fld = F.FieldSpec(dim=1, linear=path, remainder=F._zero_remainder,
                      quadratic=np.zeros((1, 1, 1), dtype=complex))
    w = FL.flow_point(fld, 0.0, 1.0, np.array([0.4 + 0j]), tol=1e-12)
    assert abs(w[0] - 0.4 * np.exp(-1.5)) < 1e-12


def test_koebe_flow_matches_conjugated_closed_form(koebe):
    for z0 in (0.45, -0.45, 0.3 + 0.2j, -0.1 - 0.35j):
        for t in (0.5, 1.0, 3.0):
            got = FL.flow_point(koebe, 0.0, t,
                                np.array([z0], dtype=complex), tol=1e-12)[0]
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


def test_semigroup_validation(koebe):
    with pytest.raises(InvalidInputError):
        FL.semigroup_defect(koebe, 0.0, 3.0, 2.0, np.array([[0.1 + 0j]]))


def test_decay_bounds_hold_on_corpus(corpus):
    for name, fld in corpus:
        pts = F.SamplePlan(radii=(0.2, 0.5, 0.8), directions=16).states(
            fld.dim)
        rep = FL.decay_bounds_check(fld, 0.0, 1.5, pts, tol=1e-10)
        assert rep.passed, (name, rep.min_lower_margin, rep.min_upper_margin)
        payload = rep.to_json_dict()
        assert payload["passed"] and payload["points"] == len(pts)


def test_decay_bounds_reject_zero_points(koebe):
    with pytest.raises(InvalidInputError):
        FL.decay_bounds_check(koebe, 0.0, 1.0, np.array([[0.0 + 0j]]))


def test_flow_never_expands_modulus(corpus):
    # |phi_{s,t}(z)| <= |z| for every admissible field
    for name, fld in corpus:
        pts = 0.6 * unit_directions(fld.dim, 8, seed=5)
        for (s, t) in ((0.0, 0.05), (0.3, 1.7)):
            res = FL.evolve(FL.FlowRequest(field=fld, s=s, t=t, points=pts))
            grew = (np.linalg.norm(res.images, axis=1)
                    - np.linalg.norm(pts, axis=1))
            assert np.max(grew) <= 1e-9, name


# ---------------------------------------------------------------------------
# origin jets


def test_scalar_jet_oracle():
    # h(z) = z + z^2: first jet e^-1, second jet e^-2 - e^-1 at t = 1
    fld = F.builtin_field("quadratic-perturbation",
                          {"dim": 1, "epsilon": 1.0})
    jet = FL.jet2_transition(fld, 0.0, 1.0, tol=1e-12)
    assert abs(jet.linear[0, 0] - np.exp(-1)) < 1e-11
    want_Q = np.exp(-2) - np.exp(-1)
    assert abs(jet.quadratic[0, 0, 0] - want_Q) < 1e-10
    # independent confirmation from the flow itself: even part of the
    # flow map at +-delta over delta^2 approximates the second jet
    d = 1e-3
    fp = FL.flow_point(fld, 0.0, 1.0, np.array([d + 0j]), tol=1e-13)[0]
    fm = FL.flow_point(fld, 0.0, 1.0, np.array([-d + 0j]), tol=1e-13)[0]
    assert abs((fp + fm) / (2 * d * d) - want_Q) < 1e-5


def test_koebe_jet_closed_form(koebe):
    jet = FL.jet2_transition(koebe, 0.0, 1.0, tol=1e-12)
    want = 2 * np.exp(-1.0) * (1 - np.exp(-1.0))
    assert abs(jet.quadratic[0, 0, 0] - want) < 1e-10
    assert jet.symmetry_defect() == 0.0
    assert jet.packed_quadratic().shape == (1, 1)


def test_linear_field_has_no_second_jet():
    fld = F.builtin_field("constant-linear", {"matrix": [[1, 0], [0, 2]]})
    jet = FL.jet2_transition(fld, 0.0, 0.5, tol=1e-10)
    assert jet.packed_quadratic().shape == (2, 3)
    assert np.max(np.abs(jet.quadratic)) < 1e-12


# ---------------------------------------------------------------------------
# trace, escape, validation


def test_trace_endpoints_and_monotonicity(koebe):
    times, states = FL.trace(koebe, 0.0, 2.0, np.array([0.5 + 0j]),
                             tol=1e-10)
    assert times[0] == 0.0 and times[-1] == 2.0
    assert all(b > a for a, b in zip(times, times[1:]))
    end = FL.flow_point(koebe, 0.0, 2.0, np.array([0.5 + 0j]))
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
    bad = F.FieldSpec(dim=1, linear=path, remainder=F._zero_remainder,
                      quadratic=np.zeros((1, 1, 1), dtype=complex))
    with pytest.raises(EscapeError) as exc:
        FL.flow_point(bad, 0.0, 2.0, np.array([0.9 + 0j]))
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
    rows = np.array([[0.6 + 0.3j], [0.05 + 0j]])

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

    # zero rows give an empty image block
    qp2 = cases[1][0]
    res = FL.evolve(FL.FlowRequest(field=qp2, s=0.0, t=1.0,
                                   points=np.zeros((0, 2))))
    assert res.images.shape == (0, 2)
    assert (res.steps_taken, res.rhs_evaluations) == (0, 0)
