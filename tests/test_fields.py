"""Admissible fields: built-in families, membership checks, config files."""

import json

import numpy as np
import pytest

from loewner_basin import fields as F
from loewner_basin.errors import (FieldRejectedError, InvalidInputError,
                                  UnknownFamilyError)
from loewner_basin.linear import LinearPath

CORPUS_NAMES = [
    "constant-identity-1d", "constant-identity-2d", "constant-diag-1-2",
    "constant-diag-2-3", "diagonal-periodic", "diagonal-periodic-mild",
    "koebe-1d", "quadratic-perturbation",
]


# ---------------------------------------------------------------------------
# built-in families


def test_koebe_field_values(koebe):
    # h(w) = w (1 - w) / (1 + w)
    v = koebe.h(np.array([0.5 + 0j]), 0.0)
    assert abs(v[0] - 0.5 * 0.5 / 1.5) < 1e-15
    Z = np.array([[0.1 + 0j], [0.2 + 0.1j], [-0.3 + 0j]])
    HV = koebe.h(Z, 1.0)
    assert HV.shape == (3, 1)
    for i in range(3):
        w = Z[i, 0]
        assert abs(HV[i, 0] - w * (1 - w) / (1 + w)) < 1e-14


def test_default_diagonal_periodic_matrix(corpus_map):
    dp = corpus_map["diagonal-periodic"]
    assert np.allclose(dp.linear.A(1.3),
                       np.diag([1.0, 1.0 + 0.5 * np.sin(1.3)]))


def test_constant_linear_accepts_dim_or_matrix():
    by_dim = F.builtin_field("constant-linear", {"dim": 3})
    assert np.allclose(by_dim.linear.A(0.0), np.eye(3))
    by_matrix = F.builtin_field("constant-linear",
                                {"matrix": [[2, 0], [0, 3]]})
    assert np.allclose(by_matrix.linear.A(5.0), np.diag([2.0, 3.0]))


def test_corpus_names_and_membership(corpus):
    assert [name for name, _ in corpus] == CORPUS_NAMES
    plan = F.SamplePlan(directions=128)
    for name, fld in corpus:
        rep = F.class_n_check(fld, plan)
        assert rep["passed"], (name, rep["min_inner"])
        gur = F.gurganus_check(fld, plan)
        assert gur["passed"], (name, gur["min_lower_slack"],
                               gur["min_upper_slack"])


def test_overstrong_quadratic_rejected_with_witnesses():
    with pytest.raises(FieldRejectedError) as exc:
        F.builtin_field("quadratic-perturbation", {"dim": 1, "epsilon": 5.0})
    assert exc.value.witnesses


def test_builtin_quadratic_fields_are_certified_without_sampling(
        monkeypatch):
    # m(A) > sqrt(sum_i ||T_i||^2) admits a field in closed form; at
    # m(A) = 1 = |T| (q = 1, epsilon = 1) the sample decides, and passes
    calls = []
    sample = F.class_n_check
    monkeypatch.setattr(F, "class_n_check",
                        lambda *a, **k: calls.append(a) or sample(*a, **k))
    for params in ({"dim": 3}, {"dim": 2, "epsilon": 0.25},
                   {"dim": 8, "epsilon": 0.1}):
        F.builtin_field("quadratic-perturbation", params)
    assert calls == []
    F.builtin_field("quadratic-perturbation", {"dim": 1, "epsilon": 1.0})
    assert len(calls) == 1


def test_uncertified_quadratic_is_rejected_by_the_sample(monkeypatch):
    reports = []
    sample = F.class_n_check

    def counted(*args, **kwargs):
        reports.append(sample(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(F, "class_n_check", counted)
    with pytest.raises(FieldRejectedError) as exc:
        F.builtin_field("quadratic-perturbation", {"dim": 2, "epsilon": 3.0})
    assert len(reports) == 1
    assert exc.value.witnesses == reports[0]["witnesses"][:8]
    assert str(exc.value).endswith("validation sample (min -9.006e-01)")


def test_quadratic_rejection_witnesses_are_distinct_states():
    # h does not depend on t, so admission samples one time and no state
    # is reported twice
    with pytest.raises(FieldRejectedError) as exc:
        F.builtin_field("quadratic-perturbation", {"dim": 2, "epsilon": 3.0})
    states = [json.dumps(w["z"]) for w in exc.value.witnesses]
    assert len(states) == 4 and len(set(states)) == 4


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        F.builtin_field("nope")


@pytest.mark.parametrize("family, params, z, t, value", [
    # default amplitude [0, 0.5]: the second entry reaches -1 at 3 pi / 2
    ("diagonal-periodic", {"base": [1, -0.5]}, [0, 1], 1.5 * np.pi, -1.0),
    # a frozen entry (frequency 0) keeps base + amplitude sin(phase)
    ("diagonal-periodic", {"base": [1, 0.2], "amplitude": [0.1, -0.4],
                           "frequency": [1, 0], "phase": [0, np.pi / 2]},
     [0, 1], 0.0, -0.2),
    ("constant-linear", {"matrix": [[-1]]}, [1], 0.0, -1.0),
    ("constant-linear", {"matrix": [[0]]}, [1], 0.0, 0.0),
])
def test_linear_families_refuse_a_noncontracting_part(family, params, z, t,
                                                      value):
    # m(A(t)) <= 0 somewhere: refused at construction with one witness
    # {z, t, value} where Re<A(t) z, z> = value on the unit vector z
    with pytest.raises(FieldRejectedError) as exc:
        F.builtin_field(family, params)
    (w,) = exc.value.witnesses
    assert np.allclose(np.abs([complex(*c) for c in w["z"]]), z)
    assert w["t"] == pytest.approx(t) and w["value"] == pytest.approx(value)


@pytest.mark.parametrize("family, params", [
    ("constant-linear", {"dim": 2.5}),
    ("constant-linear", {"dim": "x"}),
    ("diagonal-periodic", {"base": ["a"]}),
    ("quadratic-perturbation", {"dim": 1, "epsilon": [1]}),
])
def test_builtin_malformed_params_rejected(family, params):
    with pytest.raises(InvalidInputError):
        F.builtin_field(family, params)


# ---------------------------------------------------------------------------
# membership checks


def test_class_n_check_flags_outward_field():
    bad = F.FieldSpec(
        dim=1, linear=LinearPath.constant(np.eye(1, dtype=complex)),
        remainder=lambda z, t: -2.0 * np.asarray(z, dtype=complex))
    rep = F.class_n_check(bad)
    assert rep["passed"] is False and rep["witnesses"]


def test_koebe_lower_sandwich_tight_on_real_axis(koebe):
    # Re<h(r), r> equals c(r) r^2 exactly for real r in (0, 1)
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        z = np.array([r + 0j])
        act = float(np.real(koebe.h(z, 0.0)[0] * np.conj(z[0])))
        assert abs(act - F.c_of(r) * r * r) < 1e-14


def test_growth_and_remainder_order(koebe):
    rep = F.growth_check(koebe)
    assert rep["passed"]
    assert F.remainder_order_check(koebe) < 1e-7


def test_sample_plan_is_deterministic():
    a = F.SamplePlan(directions=32).states(2)
    b = F.SamplePlan(directions=32).states(2)
    assert np.array_equal(a, b)
    assert a.shape == (len(F.SamplePlan().radii) * 32, 2)
    norms = np.linalg.norm(a, axis=1)
    assert norms.max() < 1.0 and norms.min() > 0.0


def test_sample_plan_refuses_bad_seed_and_directions():
    # refused when built, before any state is drawn
    for kw in ({"seed": -1}, {"seed": True}, {"seed": 1.0},
               {"directions": 0}, {"directions": F.MAX_DIRECTIONS + 1},
               {"directions": 2.5}, {"directions": True}, {"radii": ()},
               {"radii": ("a",)}, {"radii": (float("nan"),)},
               {"times": ()}):
        with pytest.raises(InvalidInputError):
            F.SamplePlan(**kw)
    assert F.SamplePlan(seed=np.int64(3)).seed == 3
    assert F.check_seed(5, "--seed") == 5


# ---------------------------------------------------------------------------
# config format


CFG = {
    "dim": 2,
    "breakpoints": [2.5],
    "linear": [
        {"until": 1.0, "constant": [[1, 0], [0, 2]]},
        {"base": [[1, 0], [0, [1, 0]]], "sin": [[0, 0], [0, 0.5]],
         "frequency": 2.0},
    ],
    "quadratic": [
        {"out_index": 0, "in_indices": [1, 1], "coeff_re": 0.25},
        {"out_index": 1, "in_indices": [0, 1], "coeff_re": 0.0,
         "coeff_im": 0.1,
         "time_profile": {"kind": "trig", "offset": 1.0, "amplitude": 0.5,
                          "frequency": 1.0, "phase": 0.0}},
    ],
}


def test_config_parse_and_evaluate():
    fs = F.parse_field_config(CFG)
    assert fs.dim == 2 and fs.family_tag == "custom"
    assert 1.0 in fs.breakpoints and 2.5 in fs.breakpoints
    assert np.allclose(fs.linear.A(0.5), [[1, 0], [0, 2]])
    t = 3.0
    assert np.allclose(fs.linear.A(t),
                       [[1, 0], [0, 1 + 0.5 * np.sin(2 * t)]])
    z = np.array([0.1 + 0.05j, -0.2 + 0.1j])
    profile = 1.0 + 0.5 * np.sin(t)
    want = fs.linear.A(t) @ z + np.array(
        [0.25 * z[1] ** 2, 0.1j * profile * z[0] * z[1]])
    assert np.allclose(fs.h(z, t), want)


def test_config_quadratic_tensor_consistent():
    # the symmetric coefficient tensor of CFG's two records at time t
    fs = F.parse_field_config(CFG)
    t = 3.0
    Hd = np.zeros((2, 2, 2), dtype=complex)
    Hd[0, 1, 1] = 0.25
    Hd[1, 0, 1] = Hd[1, 1, 0] = 0.5 * 0.1j * (1.0 + 0.5 * np.sin(t))
    z = np.array([0.1 + 0.05j, -0.2 + 0.1j])
    assert np.allclose(np.einsum("ijk,j,k->i", Hd, z, z),
                       fs.remainder(z, t))


@pytest.mark.parametrize("broken", [
    {**CFG, "extra": 1},
    {"dim": 2},
    {"dim": 0, "linear": [{"until": None, "constant": [[1]]}]},
    {"dim": 1, "linear": [{"until": None, "constant": [[1]], "oops": 2}]},
    {"dim": 1, "linear": [{"until": 1.0, "constant": [[1]]}]},
    {"dim": 1, "linear": [{"until": None, "constant": [[1]]}],
     "quadratic": [{"out_index": 3, "in_indices": [0, 0], "coeff_re": 1}]},
    {"dim": 1, "linear": [{"until": None, "constant": [["x"]]}]},
    {"dim": 1, "linear": [{"until": None, "base": [[1]], "frequency": "x"}]},
    {"dim": 1, "breakpoints": ["x"],
     "linear": [{"until": None, "constant": [[1]]}]},
    {"dim": 1, "breakpoints": [float("nan")],
     "linear": [{"until": None, "constant": [[1]]}]},
    {"dim": 1, "linear": [{"until": None, "constant": [[True]]}]},
    {"dim": 2.5, "linear": [{"until": None, "constant": [[1, 0], [0, 1]]}]},
    {"dim": True, "linear": [{"until": None, "constant": [[1]]}]},
    {"dim": 1, "linear": [{"until": None, "constant": [[1]]}],
     "quadratic": [{"out_index": 0, "in_indices": [0, 0], "coeff_re": "x"}]},
    {"dim": 1, "linear": [{"until": None, "constant": [[1]]}],
     "quadratic": [{"out_index": 0, "in_indices": [0, 0], "coeff_re": 0.1,
                    "time_profile": {"kind": "trig", "amplitude": None}}]},
])
def test_config_strict_rejection(broken):
    with pytest.raises(InvalidInputError):
        F.parse_field_config(broken)


def test_unreadable_field_file_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        F.load_field_file(str(tmp_path))
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 1, "note": "\xe9"}')
    with pytest.raises(InvalidInputError):
        F.load_field_file(str(path))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(CFG))
    fs = F.load_field_file(str(path))
    ref = F.parse_field_config(CFG)
    z = np.array([0.1 + 0.05j, -0.2 + 0.1j])
    assert np.allclose(fs.h(z, 3.0), ref.h(z, 3.0))
