"""Every sampled check returns the JSON payload it reports, and each can
fail: a field or flow that breaks its inequality gets passed False with
at most 16 witnesses.  The flow checks integrate in blocks: one
integrator call for all decay intervals or all contraction steps, two
for the semigroup defect."""

import json

import numpy as np
import pytest

from loewner_basin import fields as F
from loewner_basin import flow as FL
from loewner_basin import schedule as S
from loewner_basin.errors import InvalidInputError
from loewner_basin.linear import LinearPath

IDENTITY = LinearPath.constant(np.eye(1, dtype=complex))


def _field(remainder):
    return F.FieldSpec(dim=1, linear=IDENTITY, remainder=remainder)


#: h = -z points outward: it breaks positivity and the sandwich
OUTWARD = _field(lambda z, t: -2.0 * np.asarray(z, dtype=complex))
#: h = z + 50 z^2 outgrows 4 r / (1 - r)^2 ||A|| at r = 0.5
STEEP = _field(lambda z, t: 50.0 * np.asarray(z, dtype=complex) ** 2)
#: h = 0.1 z decays far slower than the identity path's masses promise
SLOW = _field(lambda z, t: -0.9 * np.asarray(z, dtype=complex))
SHELLS = np.array([[0.2 + 0j], [0.5 + 0j], [0.3j]])
PLAN = F.SamplePlan(radii=(0.3, 0.6), directions=16, times=(0.0, 1.0))


@pytest.mark.parametrize("check", [
    lambda: F.class_n_check(OUTWARD, PLAN),
    lambda: F.gurganus_check(OUTWARD, PLAN),
    lambda: F.growth_check(STEEP, directions=16),
    lambda: FL.decay_bounds_check(SLOW, [(0.0, 2.0)], SHELLS)["intervals"][0],
    lambda: S.contraction_check(
        SLOW, S.build_schedule(IDENTITY, N=4))["intervals"][0],
], ids=["class_n", "sandwich", "growth", "decay", "contraction"])
def test_failing_check_reports_json_witnesses(check):
    result = check()
    json.dumps(result, allow_nan=False)
    assert result["passed"] is False
    assert 1 <= len(result["witnesses"]) <= 16


@pytest.fixture
def legs(monkeypatch):
    """Every block integration a check makes: calls of flow._evolve_one,
    through which every flow check reaches the integrator."""
    calls = []
    real = FL._evolve_one

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(FL, "_evolve_one", counted)
    return calls


KOEBE = F.builtin_field("koebe-1d")
INTERVALS = [(0.0, 1.0), (1.0, 2.0), (0.0, 4.0)]


@pytest.mark.parametrize("check, want", [
    (lambda: S.contraction_check(KOEBE, S.build_schedule(KOEBE.linear, N=8)),
     1),
    (lambda: FL.decay_bounds_check(KOEBE, INTERVALS[:1], SHELLS), 1),
    (lambda: FL.decay_bounds_check(KOEBE, INTERVALS, SHELLS), 1),
    (lambda: FL.semigroup_defect(KOEBE, 0.0, 0.5, 1.0, SHELLS), 2),
], ids=["contraction", "decay-1", "decay-3", "semigroup"])
def test_flow_checks_integrate_in_blocks(legs, check, want):
    check()
    assert len(legs) == want, legs


def test_contraction_is_the_decay_check_on_the_schedule_steps():
    # with r0 = r the decay bounds on [u_n, u_{n+1}] are nu_n and mu
    sched = S.build_schedule(KOEBE.linear, N=8)
    shell = F.SamplePlan(radii=(sched.r,), directions=8,
                         seed=3).states(KOEBE.dim)
    got = S.contraction_check(KOEBE, sched, seed=3)
    want = FL.decay_bounds_check(KOEBE, zip(sched.u[:6], sched.u[1:7]),
                                 shell)
    assert json.dumps(got) == json.dumps(want)
    assert got["passed"] is True and len(got["intervals"]) == 6
    short = S.build_schedule(KOEBE.linear, N=4)
    assert [r["interval"] for r in S.contraction_check(
        KOEBE, short)["intervals"]] == [list(short.u[n:n + 2])
                                        for n in range(4)]


def test_decay_block_rows_match_single_intervals():
    # each interval's report is the same whether it runs alone or in a
    # block with others
    block = FL.decay_bounds_check(KOEBE, INTERVALS, SHELLS)
    alone = [FL.decay_bounds_check(KOEBE, [ab], SHELLS)["intervals"][0]
             for ab in INTERVALS]
    assert json.dumps(block["intervals"]) == json.dumps(alone)
    assert block["passed"] is all(r["passed"] for r in alone)


def test_decay_refuses_an_empty_interval_list():
    with pytest.raises(InvalidInputError, match="at least one interval"):
        FL.decay_bounds_check(KOEBE, [], SHELLS)
