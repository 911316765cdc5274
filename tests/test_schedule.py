"""Unit-mass discretization: step times, derived constants, budget
acceptance and rejection, contraction measurements."""

import math

import numpy as np
import pytest

from loewner_basin import fields as F
from loewner_basin import schedule as S
from loewner_basin.errors import (HorizonExhaustedError, InvalidInputError,
                                  NumericalFailureError,
                                  ScheduleRejectedError)
from loewner_basin.linear import LinearPath


@pytest.fixture(scope="module")
def identity_schedule():
    path = LinearPath.constant(np.eye(2, dtype=complex))
    return S.build_schedule(path, N=5)


def test_unit_mass_times_for_identity(identity_schedule):
    sched = identity_schedule
    assert sched.ell == 1.0 and sched.ell_source == "grid-estimate"
    assert sched.h == 2
    for n, un in enumerate(sched.u):
        assert abs(un - n) < 1e-10


def test_unit_ratio_constants(identity_schedule):
    # ell = 1, h = 2: the working radius solves
    # ((1 + r)/(1 - r))^2 = (1 + h/ell)/2 = 3/2
    sched = identity_schedule
    r_want = (math.sqrt(1.5) - 1.0) / (math.sqrt(1.5) + 1.0)
    assert abs(sched.r - r_want) < 1e-14
    assert abs(sched.r - 0.10102051443364424) < 1e-9
    assert abs(sched.mu - math.exp(-1.0 / math.sqrt(1.5))) < 1e-13
    assert abs(sched.nu - math.exp(-math.sqrt(1.5))) < 5e-11
    assert abs(sched.mu ** 2 - 0.19534400199254498) < 1e-12
    assert abs(sched.nu - 0.29383265587807300) < 5e-11
    assert sched.accepted and sched.mu ** 2 < sched.nu


def test_schedule_json_exact_keys(identity_schedule):
    d = identity_schedule.to_json_dict()
    assert set(d) == {"ell", "h", "r", "mu", "nu", "horizon_N", "u",
                      "nu_per_step", "accepted"}
    assert d["horizon_N"] == 5 and len(d["u"]) == 6
    assert len(d["nu_per_step"]) == 5 and d["accepted"] is True


def test_growing_mass_times():
    # m(t) = 1 + t, so M(u) = u + u^2/2 and u_1 solves u^2 + 2u - 2 = 0
    path = LinearPath(
        1, lambda ts: (1.0 + ts)[:, None, None] + 0j, quad_tol=1e-12)
    u = S.compute_times(path, 3)
    assert abs(u[1] - (math.sqrt(3.0) - 1.0)) < 1e-10
    for n, un in enumerate(u):
        assert abs(un + un * un / 2.0 - n) < 1e-9


def test_exact_bracket_end_is_accepted():
    # M(t) = t exactly, so every doubled bracket end is already a root
    u = S.compute_times(LinearPath.constant(np.eye(2)), 12)
    assert u == tuple(float(n) for n in range(13))


def test_build_is_deterministic():
    path = LinearPath.constant(np.diag([2.0, 3.0]).astype(complex))
    a = S.build_schedule(path, N=4)
    b = S.build_schedule(path, N=4)
    assert a.u == b.u
    assert (a.r, a.mu, a.nu) == (b.r, b.mu, b.nu)
    assert a.nu_per_step == b.nu_per_step


def test_truthful_ratio_is_always_accepted():
    # whenever the declared ratio really bounds sup k/m, the budget
    # holds: h > ell forces C(r)^2 * ell = (ell + h)/2 < h
    p12 = LinearPath.constant(np.diag([1.0, 2.0]).astype(complex))
    s2 = S.build_schedule(p12, N=3, ell=2.0, strict=False)
    assert s2.h == 3 and s2.ell_source == "user" and s2.accepted
    p23 = LinearPath.constant(np.diag([2.0, 3.0]).astype(complex))
    s15 = S.build_schedule(p23, N=3, ell=1.5)
    assert s15.h == 2 and s15.accepted
    # m = 2 gives u_n = n/2; each step integrates k to 3/2
    assert abs(s15.u[1] - 0.5) < 1e-9
    Cr = (1 + s15.r) / (1 - s15.r)
    assert abs(s15.nu - math.exp(-Cr * 1.5)) < 1e-9
    assert s15.mu ** 2 < s15.nu


def test_understated_ratio_is_rejected():
    # diag(1, 2) has k/m = 2; declaring ell = 1.2 shrinks the radius
    # until one guaranteed step no longer beats the worst-case step
    p12 = LinearPath.constant(np.diag([1.0, 2.0]).astype(complex))
    C = math.sqrt((1.0 + 2.0 / 1.2) / 2.0)
    assert math.exp(-1.0 / C) ** 2 > math.exp(-2.0 * C)
    with pytest.raises(ScheduleRejectedError) as exc:
        S.build_schedule(p12, N=3, ell=1.2)
    assert exc.value.schedule.accepted is False
    assert isinstance(exc.value.failing_n, int)
    # non-strict mode returns the rejected schedule instead
    loose = S.build_schedule(p12, N=3, ell=1.2, strict=False)
    assert not loose.accepted


def test_grid_estimated_ratio_diag_1_2():
    p12 = LinearPath.constant(np.diag([1.0, 2.0]).astype(complex))
    s12 = S.build_schedule(p12, N=3)
    assert abs(s12.ell - 2.0) < 1e-9 and s12.h == 3 and s12.accepted


def test_integral_ratio_never_exceeds_declared_bound(identity_schedule):
    path = LinearPath.constant(np.eye(2, dtype=complex))
    assert abs(S.log_ratio_check(path, identity_schedule)) < 1e-9
    p23 = LinearPath.constant(np.diag([2.0, 3.0]).astype(complex))
    s15 = S.build_schedule(p23, N=3, ell=1.5)
    assert S.log_ratio_check(p23, s15) < 1e-9


def test_saturating_mass_exhausts_horizon():
    path = LinearPath(
        1, lambda ts: np.where(ts < 1.0, 1.0, 1e-12)[:, None, None] + 0j,
        breakpoints=(1.0,))
    with pytest.raises(HorizonExhaustedError, match=r"before t = 1e\+06"):
        S.compute_times(path, 3)


def test_unconverged_time_is_refused(monkeypatch):
    # One secant step leaves M(u_4) - 4 near 1.4e-2 on this path; the
    # time must not be placed there.
    monkeypatch.setattr(S, "_MAX_ROOT_ITERS", 1)
    path = F.builtin_field("diagonal-periodic").linear
    with pytest.raises(NumericalFailureError, match="u_4"):
        S.compute_times(path, 4)


def test_input_validation():
    path = LinearPath.constant(np.eye(2, dtype=complex))
    with pytest.raises(InvalidInputError):
        S.build_schedule(path, N=0)
    with pytest.raises(InvalidInputError):
        S.build_schedule(path, N=2, ell=0.5)


def test_radius_for_midpoint_policy():
    # target C^2 = (1 + h/ell)/2
    r = S.radius_for(1.0, 2)
    assert abs(r - (math.sqrt(1.5) - 1) / (math.sqrt(1.5) + 1)) < 1e-14
    r2 = S.radius_for(1.5, 2)
    t2 = (1.0 + 2.0 / 1.5) / 2.0
    assert abs(r2 - (math.sqrt(t2) - 1) / (math.sqrt(t2) + 1)) < 1e-14


def test_measured_contraction_inside_budget(identity_schedule):
    fld = F.builtin_field("constant-linear", {"dim": 2})
    rep = S.contraction_check(fld, identity_schedule)
    assert rep["passed"] is True, (rep["min_lower_margin"],
                                   rep["min_upper_margin"])


def test_periodic_mild_schedule_end_to_end(corpus_map):
    mild = corpus_map["diagonal-periodic-mild"]
    sched = S.build_schedule(mild.linear, N=6)
    assert sched.accepted and sched.h == 2 and sched.ell < 2.0
    rep = S.contraction_check(mild, sched)
    assert rep["passed"], (rep["min_lower_margin"],
                           rep["min_upper_margin"])
