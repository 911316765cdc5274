"""Every sampled check returns the JSON payload it reports, and each can
fail: a field or flow that breaks its inequality gets passed False with
at most 16 witnesses."""

import json

import numpy as np
import pytest

from loewner_basin import fields as F
from loewner_basin import flow as FL
from loewner_basin import schedule as S
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
    lambda: FL.decay_bounds_check(SLOW, 0.0, 2.0, SHELLS),
    lambda: S.contraction_check(SLOW, S.build_schedule(IDENTITY, N=4)),
], ids=["class_n", "sandwich", "growth", "decay", "contraction"])
def test_failing_check_reports_json_witnesses(check):
    result = check()
    json.dumps(result, allow_nan=False)
    assert result["passed"] is False
    assert 1 <= len(result["witnesses"]) <= 16
