"""Command line front end: subcommands, exit codes, schemas, artifacts."""

import argparse
import csv
import hashlib
import json
import warnings

import numpy as np
import pytest

from loewner_basin import _integrate, cli
from loewner_basin.errors import StiffnessError

from conftest import gauss_legendre_mass, trig_coefficients


def run(capsys, *argv):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# the option contract

#: options every command takes: flag -> (default, required, type)
RUN_OPTIONS = {
    "--field": (None, False, None),
    "--builtin": (None, False, None),
    "--param": ([], False, None),
    "--tol-ode": (1e-10, False, float),
    "--tol-quad": (1e-10, False, float),
    "--tol-chain": (1e-9, False, float),
    "--horizon": (30, False, int),
    "--seed": (0, False, int),
    "--out": (None, False, None),
}
RADII = ("0.2,0.5,0.8", False, None)
ELL = (None, False, float)
DENSE = (False, False, None)
#: each command's own options
COMMAND_OPTIONS = {
    "analyze": {"--times": ("0,0.5,1,2,4", False, None),
                "--t-grid": ("0:10:1001", False, None),
                "--directions": (4096, False, int)},
    "flow": {"--s": (0.0, False, float), "--t": (None, True, float),
             "--points": (None, False, None), "--radii": RADII,
             "--directions": (8, False, int), "--dense": DENSE},
    "schedule": {"--ell": ELL},
    "chain": {"--t": (0.0, False, float), "--points": (None, False, None),
              "--radii": RADII, "--directions": (4, False, int),
              "--ell": ELL, "--dense": DENSE},
    "verify": {"--intervals": ("0:1,1:2,0:4", False, None), "--radii": RADII,
               "--directions": (8, False, int), "--ell": ELL},
    "range": {"--t": (1.0, False, float), "--radius": (0.5, False, float),
              "--directions": (8, False, int), "--ell": ELL},
}


def test_each_command_accepts_exactly_its_options():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_OPTIONS)
    for command, own in COMMAND_OPTIONS.items():
        accepted = {a.option_strings[0]: (a.default, a.required, a.type)
                    for a in sub.choices[command]._actions
                    if a.dest != "help"}
        assert accepted == {**RUN_OPTIONS, **own}, command


def test_successive_calls_share_no_parser_state(capsys, monkeypatch):
    seen = []
    schedule = cli._cmd_schedule

    def spy(args, field):
        seen.append(dict(vars(args)))
        return schedule(args, field)

    monkeypatch.setattr(cli, "_cmd_schedule", spy)
    argv = ("schedule", "--builtin", "koebe-1d")
    code, alone, _ = run(capsys, *argv)
    assert code == 0
    code, _, err = run(capsys, "chain", "--builtin", "constant-linear",
                       "--param", "dim=2", "--dense", "--points",
                       "[[0.2,0.1]]", "--horizon", "12")
    assert code == 0 and "CSV not written" in err
    code, after, _ = run(capsys, *argv)
    assert code == 0 and after == alone
    assert seen[0] == seen[1]
    assert seen[1]["param"] == [] and "dense" not in seen[1]


def test_dense_csv_rows_parse_back_to_json(capsys, tmp_path):
    def cells(row, tag, q):
        return [[float(row[f"re_{tag}{i + 1}"]), float(row[f"im_{tag}{i + 1}"])]
                for i in range(q)]

    out = tmp_path / "flow"
    code, _, _ = run(capsys, "flow", "--builtin", "diagonal-periodic",
                     "--t", "1.5", "--points", "[[0.3,[0.1,0.2]],[0.6,-0.4]]",
                     "--dense", "--out", str(out))
    assert code == 0
    images = json.loads((out / "flow.json").read_text())["result"]["images"]
    with open(out / "trajectories.csv", newline="") as fh:
        last = {int(row["point_index"]): row for row in csv.DictReader(fh)}
    assert sorted(last) == [0, 1]
    for idx, image in enumerate(images):
        assert float(last[idx]["t"]) == 1.5
        assert cells(last[idx], "", 2) == image
        norm = np.linalg.norm([complex(*c) for c in image])
        assert float(last[idx]["abs"]) == pytest.approx(norm, rel=1e-15)

    out = tmp_path / "chain"
    code, _, _ = run(capsys, "chain", "--builtin", "quadratic-perturbation",
                     "--param", "dim=2", "--t", "0.3", "--points",
                     "[[0.2,[0.1,-0.1]],[0.05,0.3]]", "--horizon", "20",
                     "--dense", "--out", str(out))
    assert code == 0
    res = json.loads((out / "chain.json").read_text())["result"]
    with open(out / "chain.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res["values"]) == 2
    for k, row in enumerate(rows):
        assert float(row["t"]) == 0.3
        assert cells(row, "z_", 2) == res["points"][k]
        assert cells(row, "f_", 2) == res["values"][k]
        assert int(row["m_used"]) == res["m_used"][k]
        assert row["converged"] == ("1" if res["converged"][k] else "0")


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_missing_required_flag(capsys):
    code, out, err = run(capsys, "flow", "--builtin", "koebe-1d")
    assert code == 1 and "error" in err and out == ""


def test_usage_error_unknown_builtin(capsys):
    code, out, err = run(capsys, "schedule", "--builtin", "nope")
    assert code == 1 and "nope" in err


def test_usage_error_bad_param(capsys):
    code, out, err = run(capsys, "schedule", "--builtin", "constant-linear",
                         "--param", "dim")
    assert code == 1


def test_usage_error_missing_field_file(capsys):
    code, out, err = run(capsys, "schedule", "--field", "/no/such/file.json")
    assert code == 1


def test_help_and_version_return_zero(capsys):
    code, out, err = run(capsys, "--version")
    assert (code, out, err) == (0, cli.__version__ + "\n", "")
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: loewner-basin") and "verify" in out
    code, out, err = run(capsys, "chain", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: loewner-basin chain") and "--dense" in out


def test_malformed_inputs_exit_1_with_one_error_line(capsys, tmp_path):
    bad_scalar = tmp_path / "bad_scalar.json"
    bad_scalar.write_text(json.dumps(
        {"dim": 1,
         "linear": [{"until": None, "base": [[1]], "frequency": "x"}]}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dim": 1, "note": "\xe9"}')
    cases = [
        ("schedule", "--field", str(bad_scalar)),
        ("schedule", "--field", str(tmp_path)),
        ("schedule", "--field", str(latin1)),
        ("schedule", "--builtin", "constant-linear", "--param", "dim=2.5"),
        ("chain", "--builtin", "koebe-1d", "--points", "[[NaN]]"),
        ("flow", "--builtin", "koebe-1d", "--t", "1", "--points", ""),
        ("flow", "--builtin", "koebe-1d", "--t", "1", "--points", "[]"),
        ("chain", "--builtin", "koebe-1d", "--seed", "-1"),
        ("chain", "--builtin", "koebe-1d", "--points", "[[0.2]]",
         "--seed", "-1"),
        ("schedule", "--builtin", "koebe-1d", "--seed", "-1"),
        ("analyze", "--builtin", "koebe-1d", "--t-grid", "0:1:1e12"),
        ("analyze", "--builtin", "diagonal-periodic", "--t-grid=-2:1:4"),
        ("analyze", "--builtin", "diagonal-periodic", "--times=-1,0"),
        ("flow", "--builtin", "koebe-1d", "--t", "1",
         "--directions", "1000000000000"),
        ("range", "--builtin", "koebe-1d", "--directions", "1000000000000"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err


def test_mathematical_rejection_exit_2(capsys, tmp_path):
    # a field pointing outward fails the membership check
    cfg = {"dim": 1,
           "linear": [{"until": None, "constant": [[-1.0]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, payload, _ = run_json(capsys, "analyze", "--field", str(path),
                                "--directions", "64")
    assert code == 2
    assert payload["status"] == "rejected"


@pytest.mark.parametrize("argv", [
    ("--builtin", "diagonal-periodic", "--param", "base=[1,-0.5]"),
    ("--builtin", "constant-linear", "--param", "matrix=[[0]]"),
])
def test_noncontracting_linear_family_is_a_rejected_field(capsys, argv):
    # refused at construction, before any bracket search for u_1
    code, payload, _ = run_json(capsys, "schedule", *argv, "--horizon", "3")
    assert code == 2
    assert payload["error"]["type"] == "field-rejected"
    assert len(payload["error"]["witnesses"]) == 1


def test_numerical_failure_exit_3(capsys, monkeypatch):
    def boom(args, field):
        raise StiffnessError("step size collapsed")

    monkeypatch.setattr(cli, "_cmd_schedule", boom)
    code, payload, _ = run_json(capsys, "schedule", "--builtin", "koebe-1d")
    assert code == 3
    assert payload["status"] == "failed"
    assert payload["error"]["type"] == "StiffnessError"


def test_step_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(_integrate, "_MAX_STEPS", 40)
    code, payload, _ = run_json(capsys, "flow", "--builtin", "koebe-1d",
                                "--t", "100", "--points", "[[0.5]]")
    assert code == 3
    assert payload["status"] == "failed"
    assert payload["error"]["type"] == "NumericalFailureError"
    assert "step budget" in payload["error"]["message"]


def test_non_finite_flow_exit_3(capsys, tmp_path):
    # a huge quadratic coefficient overflows the right-hand side
    cfg = {"dim": 1, "linear": [{"until": None, "constant": [[1.0]]}],
           "quadratic": [{"out_index": 0, "in_indices": [0, 0],
                          "coeff_re": 1e308}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "flow", "--field", str(path), "--t", "1",
                             "--points", "[[0.5]]")
    assert code == 3 and "NaN" not in out
    assert err == "" and not caught, [str(w.message) for w in caught]
    payload = json.loads(out)
    assert payload["status"] == "failed"
    assert payload["error"]["type"] == "NumericalFailureError"


def _strict_json(text):
    """Parse JSON, refusing the NaN and Infinity tokens Python accepts."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_samples_exit_3_with_valid_json(capsys, tmp_path):
    # the same overflowing field: the sampled checks refuse non-finite
    # margins instead of printing -Infinity
    cfg = {"dim": 1, "linear": [{"until": None, "constant": [[1.0]]}],
           "quadratic": [{"out_index": 0, "in_indices": [0, 0],
                          "coeff_re": 1e308}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "analyze", "--field", str(path),
                             "--directions", "64")
    assert code == 3 and err == "" and not caught
    payload = _strict_json(out)
    assert payload["status"] == "failed"
    assert payload["error"]["type"] == "NumericalFailureError"
    assert "not finite at t = " in payload["error"]["message"]


def test_chain_past_the_float_range_exit_3(capsys):
    # f_730(0.5) = 2 e^730 is past 1.8e308: a typed error naming the row,
    # t and m, in a payload without Infinity or NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "chain", "--builtin", "koebe-1d",
                             "--t", "730", "--points", "[[0.5]]",
                             "--horizon", "760")
    assert code == 3 and err == "" and not caught
    payload = _strict_json(out)
    assert payload["status"] == "failed"
    assert payload["error"]["type"] == "NumericalFailureError"
    assert "row 0 at t = 730.0, m = 730 " in payload["error"]["message"]
    with pytest.raises(ValueError):
        cli._dumps({"value": float("inf")})


# ---------------------------------------------------------------------------
# analyze


def test_analyze_identity_all_pass(capsys):
    code, payload, _ = run_json(
        capsys, "analyze", "--builtin", "constant-linear", "--param",
        "dim=2", "--directions", "128")
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["command"] == "analyze" and payload["status"] == "ok"
    res = payload["result"]
    assert res["class_n"]["passed"] and res["sandwich"]["passed"]
    assert res["growth"]["passed"]
    assert res["hypotheses"]["ell"] == pytest.approx(1.0, abs=1e-9)
    verdicts = res["hypotheses"]["verdicts"]
    assert all(v == "satisfied" for v in verdicts.values())


def test_analyze_diag_1_2_verdicts(capsys):
    code, payload, _ = run_json(
        capsys, "analyze", "--builtin", "constant-linear", "--param",
        "matrix=[[1,0],[0,2]]", "--directions", "64")
    assert code == 0  # informational verdicts do not fail the run
    verdicts = payload["result"]["hypotheses"]["verdicts"]
    assert verdicts["constant_spectral_gap"] == "violated"
    assert verdicts["constant_positive_spectrum"] == "satisfied"
    assert verdicts["general_bunching"] == "satisfied"


def test_analyze_classifies_at_tol_quad(capsys, monkeypatch):
    seen = []
    classify = cli.classify_hypotheses

    def spy(path, grid):
        seen.append(path.quad_tol)
        return classify(path, grid)

    monkeypatch.setattr(cli, "classify_hypotheses", spy)
    code, _, _ = run_json(capsys, "analyze", "--builtin",
                          "diagonal-periodic", "--directions", "16",
                          "--tol-quad", "1e-8")
    assert code == 0 and seen == [1e-8]


# ---------------------------------------------------------------------------
# flow


def test_flow_identity_endpoint(capsys):
    code, payload, _ = run_json(
        capsys, "flow", "--builtin", "constant-linear", "--param", "dim=1",
        "--t", "1.0", "--points", "[[0.5]]")
    assert code == 0
    end = payload["result"]["images"][0][0]
    assert abs(end[0] - 0.5 * np.exp(-1.0)) < 1e-9
    assert abs(end[1]) < 1e-12
    assert abs(0.5 * np.exp(-1.0) - 0.18394) < 1e-5


def test_states_at_the_escape_tripwire_exit_1(capsys):
    # refused at admission on every field, not left to the tripwire
    for field in (["koebe-1d"], ["constant-linear", "--param", "dim=1"]):
        code, out, err = run(capsys, "flow", "--builtin", *field, "--t", "1",
                             "--points", "[[0.9999999995]]")
        assert code == 1 and out == "", field
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "escape tripwire" in err


def test_flow_same_endpoints_identity(capsys):
    code, payload, _ = run_json(
        capsys, "flow", "--builtin", "koebe-1d", "--s", "1.0", "--t", "1.0",
        "--points", "[[[0.3,0.2]]]")
    assert code == 0
    end = payload["result"]["images"][0][0]
    assert end == [0.3, 0.2]


def test_flow_through_a_long_decay_ends_inside_the_step_budget(capsys):
    # 0.5 e^-800 underflows; under relative control a decaying state
    # costs a fixed number of steps per e-fold, and a 5th order pair
    # spent the whole step budget by t = 382 at this tolerance
    code, payload, _ = run_json(
        capsys, "flow", "--builtin", "constant-linear", "--param", "dim=1",
        "--t", "800", "--points", "[[0.5]]", "--tol-ode", "1e-12")
    assert code == 0
    re, im = payload["result"]["images"][0][0]
    assert abs(complex(re, im)) <= 1e-300 and re >= 0.0


# ---------------------------------------------------------------------------
# schedule


def test_schedule_identity_json_contract(capsys):
    code, payload, _ = run_json(
        capsys, "schedule", "--builtin", "constant-linear", "--param",
        "dim=1", "--horizon", "5")
    assert code == 0
    sched = payload["result"]["schedule"]
    assert set(sched) == {"ell", "h", "r", "mu", "nu", "horizon_N", "u",
                          "nu_per_step", "accepted"}
    assert payload["result"]["ell_source"] == "grid-estimate"
    assert payload["result"]["chain_available"] is True
    assert sched["accepted"] is True
    assert sched["u"] == pytest.approx(list(range(6)), abs=1e-9)
    assert sched["mu"] == pytest.approx(0.44198, abs=1e-4)
    assert sched["nu"] == pytest.approx(0.29383, abs=1e-4)


def test_schedule_tol_quad_keeps_batched_path(capsys, tmp_path, monkeypatch):
    coeffs = trig_coefficients(4, 21)
    base, S, C, w = coeffs

    def mat(M):
        return [[[float(x.real), float(x.imag)] for x in row] for row in M]

    cfg = {"dim": 4, "linear": [{"until": None, "base": mat(base),
                                 "sin": mat(S), "cos": mat(C),
                                 "frequency": w}]}
    path = tmp_path / "trig4.json"
    path.write_text(json.dumps(cfg))
    args = cli._build_parser().parse_args(
        ["schedule", "--field", str(path), "--tol-quad", "1e-9"])
    parsed = []
    parse = cli.parse_field_config
    monkeypatch.setattr(cli, "parse_field_config",
                        lambda c: parsed.append(parse(c)) or parsed[-1])
    field, _ = cli._load_field(args)
    assert field.linear.quad_tol == 1e-9
    assert field.linear.evaluate is parsed[0].linear.evaluate
    code, payload, _ = run_json(capsys, "schedule", "--field", str(path),
                                "--horizon", "6",
                                "--tol-quad", "1e-9")
    assert code == 0
    u = payload["result"]["schedule"]["u"]
    mass = 0.0
    for n in range(1, len(u)):
        mass += gauss_legendre_mass(coeffs, u[n - 1], u[n], panels=16)
        assert abs(mass - n) <= 1e-9 * (1 + n)


def test_schedule_times_follow_tol_quad_not_tol_ode(capsys):
    # the unit-mass times come from quadrature alone: --tol-quad sets
    # both the mass integrals and the root tolerance, and --tol-ode,
    # which solves no ODE here, changes nothing
    def result(*tols):
        code, payload, _ = run_json(
            capsys, "schedule", "--builtin", "diagonal-periodic",
            "--param", "base=[1,1.2]", "--param", "amplitude=[0.3,0.5]",
            "--param", "frequency=[3,7]", "--horizon", "12", *tols)
        assert code == 0
        return payload["result"]

    default = result()
    assert result("--tol-ode", "1e-12") == default
    assert result("--tol-quad", "1e-12") != default


def test_schedule_large_mass_ratio_has_no_chain(capsys):
    # An honest ell of 2 forces h = 3: the budget still closes, but the
    # limit-map construction is out of reach and the payload must say so.
    code, payload, _ = run_json(
        capsys, "schedule", "--builtin", "constant-linear", "--param",
        "matrix=[[1,0],[0,2]]", "--ell", "2.0", "--horizon", "3")
    assert code == 0
    assert payload["result"]["schedule"]["accepted"] is True
    assert payload["result"]["schedule"]["h"] == 3
    assert payload["result"]["chain_available"] is False


def test_schedule_rejection_exit_2(capsys):
    code, payload, _ = run_json(
        capsys, "schedule", "--builtin", "constant-linear", "--param",
        "matrix=[[1,0],[0,2]]", "--ell", "1.2", "--horizon", "3")
    assert code == 2
    assert payload["status"] == "rejected"
    assert payload["result"]["schedule"]["accepted"] is False
    assert isinstance(payload["result"]["failing_step"], int)


# ---------------------------------------------------------------------------
# chain


def test_chain_koebe_value(capsys):
    code, payload, _ = run_json(
        capsys, "chain", "--builtin", "koebe-1d", "--t", "0",
        "--points", "[[0.5]]", "--horizon", "30")
    assert code == 0
    assert all(payload["result"]["converged"])
    val = payload["result"]["values"][0][0]
    assert abs(val[0] - 2.0) < 1e-6 and abs(val[1]) < 1e-6


def test_chain_stops_on_the_geometric_tail_inside_the_default_horizon(
        capsys):
    # koebe-1d at z = 0.9 needs more than 30 legs before two increments
    # fall below 1e-9; the extrapolated tail reaches f_0(0.9) = 90 sooner
    code, payload, _ = run_json(
        capsys, "chain", "--builtin", "koebe-1d", "--t", "0",
        "--points", "[[0.9]]")
    result = payload["result"]
    assert code == 0
    assert result["stop_rule"] == ["geometric-tail"]
    assert result["m_used"][0] < 30 and result["error_estimate"][0] <= 1e-9
    re, im = result["values"][0][0]
    assert abs(complex(re, im) - 90.0) <= 1e-8 * 90.0


#: a non-normal linear part: each factor's condition number is 2.30, so
#: the product of those passes 1e12 after 34 factors, while the condition
#: number of the product of the factors grows like m (2.6e3 at m = 60)
NON_NORMAL = ("--builtin", "quadratic-perturbation", "--param",
              "matrix=[[1,0.6],[0,1]]", "--param", "epsilon=0.05",
              "--points", "[[0.5,0.5]]")


def test_chain_on_a_non_normal_field_far_along_the_schedule(capsys):
    code, payload, _ = run_json(capsys, "chain", *NON_NORMAL, "--t", "50",
                                "--horizon", "80")
    assert code == 0
    assert payload["result"]["converged"] == [True]


def test_chain_on_a_non_normal_field_runs_to_its_horizon(capsys):
    # tol-chain 1e-13 is out of reach: the row marches to u_60 and ends
    # unconverged, with no degenerate-transition failure on the way
    code, payload, _ = run_json(capsys, "chain", *NON_NORMAL, "--t", "0",
                                "--tol-chain", "1e-13", "--horizon", "60")
    assert code == 2
    assert payload["result"]["stop_rule"] == ["horizon"]
    assert payload["result"]["m_used"] == [60]


def test_chain_refused_for_mass_ratio_two(capsys):
    code, payload, _ = run_json(
        capsys, "chain", "--builtin", "constant-linear", "--param",
        "matrix=[[1,0],[0,2]]", "--horizon", "4")
    assert code == 2
    assert payload["error"]["type"] == "ChainUnavailableError"


# ---------------------------------------------------------------------------
# verify and range


def test_verify_battery_passes_for_koebe(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--builtin", "koebe-1d", "--directions", "4",
        "--intervals", "0:1,1:2", "--horizon", "26")
    assert code == 0
    checks = payload["result"]["checks"]
    assert checks and all(c.get("passed", True) for c in checks.values())
    assert payload["result"]["all_passed"] is True


@pytest.mark.parametrize("field, horizon", [
    (("--builtin", "koebe-1d"), "1"),
    (("--builtin", "constant-linear", "--param", "matrix=[[8]]"), "3"),
])
def test_verify_keeps_its_report_when_the_schedule_ends_early(
        capsys, field, horizon):
    # the chain residuals need u_N >= 1 + 1e-4; a shorter schedule fails
    # those checks instead of replacing the battery with an error
    code, payload, _ = run_json(
        capsys, "verify", *field, "--directions", "2", "--intervals", "0:1",
        "--horizon", horizon)
    assert code == 2 and payload["status"] == "rejected"
    checks = payload["result"]["checks"]
    assert checks["schedule"]["passed"] is True
    for name in ("chain_identity", "transport"):
        assert set(checks[name]) <= {"passed", "residual", "reason"}
    assert checks["transport"]["passed"] is False
    assert "exceeds the schedule horizon" in checks["transport"]["reason"]
    assert payload["result"]["all_passed"] is False


def test_verify_passes_a_long_decay_interval(capsys):
    # log ratio -60 exactly; an absolute error floor once measured -30.9
    code, payload, _ = run_json(
        capsys, "verify", "--builtin", "constant-linear", "--param", "dim=1",
        "--intervals", "0:60", "--horizon", "3")
    assert code == 0
    assert payload["result"]["checks"]["decay"]["passed"] is True


def test_verify_refuses_an_underflowing_image(capsys):
    # the image 0.2 e^-800 underflows to 0, which has no log ratio
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "verify", "--builtin", "constant-linear", "--param",
            "dim=1", "--intervals", "0:800")
    assert code == 3
    assert err == "" and not caught, [str(w.message) for w in caught]
    payload = _strict_json(out)
    assert payload["status"] == "failed" and "result" not in payload
    assert payload["error"]["type"] == "NumericalFailureError"
    assert "[0.0, 800.0]" in payload["error"]["message"]


@pytest.mark.parametrize("family", ["diagonal-periodic", "koebe-1d"])
def test_verify_decay_slack_honours_tol_quad(capsys, family):
    # koebe-1d's constant path integrates in closed form, but its decay
    # slack still covers the quadrature tolerance the run asked for
    _, payload, _ = run_json(
        capsys, "verify", "--builtin", family, "--tol-quad",
        "1e-6", "--intervals", "0:1,1:2", "--radii", "0.5",
        "--directions", "2", "--horizon", "4")
    intervals = payload["result"]["checks"]["decay"]["intervals"]
    assert len(intervals) == 2
    assert all(d["slack_log"] == 1e-6 + 20 * 1e-10 for d in intervals)


def test_range_starlike_slice(capsys):
    code, payload, _ = run_json(
        capsys, "range", "--builtin", "constant-linear", "--param", "dim=1",
        "--t", "0.0", "--radius", "0.5", "--directions", "6",
        "--horizon", "8")
    assert code == 0
    assert payload["result"]["converged"] is True
    vals = payload["result"]["values"]
    # identity field at t = 0: the map is the identity, radii <= 0.5
    mags = [abs(complex(v[0][0], v[0][1])) for v in vals]
    assert max(mags) <= 0.5 + 1e-8


# ---------------------------------------------------------------------------
# artifacts and determinism


def test_out_directory_with_manifest_and_csv(capsys, tmp_path):
    out = tmp_path / "run"
    code, stdout, _ = run(
        capsys, "flow", "--builtin", "koebe-1d", "--t", "1.0", "--points",
        "[[0.5]]", "--dense", "--out", str(out))
    assert code == 0 and stdout == ""
    files = {p.name for p in out.iterdir()}
    assert files == {"flow.json", "trajectories.csv", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["config_sha256"]
    for name, digest in manifest["files"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest
    header = (out / "trajectories.csv").read_text().splitlines()[0]
    assert header == "t,point_index,re_1,im_1,abs"
    payload = json.loads((out / "flow.json").read_text())
    assert payload["manifest"]["config_sha256"] == manifest["config_sha256"]


def test_chain_dense_csv_columns(capsys, tmp_path):
    out = tmp_path / "run"
    code, _, _ = run(
        capsys, "chain", "--builtin", "constant-linear", "--param", "dim=2",
        "--t", "0.5", "--points", "[[0.2,0.1],[0.1,0.0]]", "--horizon", "12",
        "--dense", "--out", str(out))
    assert code == 0
    header = (out / "chain.csv").read_text().splitlines()[0]
    assert header == ("t,re_z_1,re_z_2,im_z_1,im_z_2,"
                      "re_f_1,re_f_2,im_f_1,im_f_2,m_used,converged")


def test_byte_identical_reruns(capsys):
    argv = ("analyze", "--builtin", "diagonal-periodic", "--directions",
            "64", "--t-grid", "0:10:301")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2

    argv = ("chain", "--builtin", "koebe-1d", "--t", "0", "--points",
            "[[0.4]]", "--horizon", "24")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_field_file_source(capsys, tmp_path):
    cfg = {"dim": 1, "linear": [{"until": None, "constant": [[1.0]]}]}
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(cfg))
    code, payload, _ = run_json(
        capsys, "flow", "--field", str(path), "--t", "2.0",
        "--points", "[[0.25]]")
    assert code == 0
    end = payload["result"]["images"][0][0]
    assert abs(end[0] - 0.25 * np.exp(-2.0)) < 1e-9
