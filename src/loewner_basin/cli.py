"""Command line interface.

Subcommands
-----------
analyze   sample the admissibility checks and classify the linear part
flow      evolve states across a time interval (optionally dense CSV)
schedule  build the unit-mass discretization and contraction budget
chain     evaluate the normalized limit maps at given states
verify    run the full consistency battery on one field
range     sample the image of a limit map with inclusion spot checks

Every command reads a field either from ``--field file.json`` (strict
schema, see ``loewner_basin.fields.parse_field_config``) or from
``--builtin name`` with repeatable ``--param key=value`` options
(values parsed as JSON when possible).

Output is a single JSON document on stdout, or files under ``--out
DIR`` (the JSON, any dense CSVs, and a manifest.json with content
digests).  Outputs are deterministic byte for byte for a fixed
(config, seed): reports embed a sha256 digest of the canonical
configuration and never embed timestamps.

Exit codes: 0 success; 1 usage or malformed input; 2 the input is
well-formed but fails a mathematical admission or verification step
(field rejected, hypothesis violated, schedule budget rejected, limit
construction unavailable, verification failure); 3 numerical failure
(stiffness, non-convergence, non-finite values, an integration past its
budget of 100,000 steps, degenerate transition).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import sys

import numpy as np

from . import __version__
from ._integrate import check_tol
from .chain import ChainEvaluator
from .errors import (ChainUnavailableError, DegenerateTransitionError,
                     EscapeError, FieldRejectedError, HorizonExhaustedError,
                     HypothesisViolationError, InvalidInputError,
                     NumericalFailureError, ScheduleRejectedError,
                     StiffnessError)
from .fields import (FieldSpec, SamplePlan, builtin_field, class_n_check,
                     check_real, check_seed, complex_rows, growth_check,
                     gurganus_check, parse_field_config, read_field_config,
                     remainder_order_check)
# ``trace`` is not called here; it stays importable as ``cli.trace``, a
# target of the benchmark's span tracer (bench/tracer.py).
from .flow import (FlowRequest, decay_bounds_check, evolve, semigroup_defect,
                   trace, trajectories)
from .linear import VERDICT_VIOLATED, LinearPath, classify_hypotheses
from .schedule import build_schedule, contraction_check

SCHEMA_VERSION = 1
#: most points a --t-grid may ask for
_MAX_GRID = 100_001

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_REJECTED = 2
_EXIT_NUMERICAL = 3

#: exit code of each error type, matched in order, so FieldRejectedError
#: precedes its base InvalidInputError (UnknownFamilyError is one too)
_EXIT_CODES = {
    FieldRejectedError: _EXIT_REJECTED,
    InvalidInputError: _EXIT_USAGE,
    ChainUnavailableError: _EXIT_REJECTED,
    EscapeError: _EXIT_REJECTED,
    HorizonExhaustedError: _EXIT_REJECTED,
    HypothesisViolationError: _EXIT_REJECTED,
    ScheduleRejectedError: _EXIT_REJECTED,
    DegenerateTransitionError: _EXIT_NUMERICAL,
    NumericalFailureError: _EXIT_NUMERICAL,
    StiffnessError: _EXIT_NUMERICAL,
}


class _CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise _CliUsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="loewner-basin",
                description="contracting evolutions, discretization "
                            "schedules and their limit maps on the unit "
                            "ball")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--field", help="path to a field JSON file")
        src.add_argument("--builtin", help="built-in family name")
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="built-in family parameter (repeatable; "
                             "value parsed as JSON when possible)")
        sp.add_argument("--tol-ode", type=float, default=1e-10,
                        help="local error tolerance for evolution legs")
        sp.add_argument("--tol-quad", type=float, default=1e-10,
                        help="absolute tolerance for mass integrals")
        sp.add_argument("--tol-chain", type=float, default=1e-9,
                        help="stopping tolerance for limit approximants")
        sp.add_argument("--horizon", type=int, default=30,
                        help="number of unit-mass steps N")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for deterministic sampling")
        sp.add_argument("--out", help="directory for output files "
                                      "(default: JSON to stdout)")

    sp = sub.add_parser("analyze", help="admissibility and hypothesis report")
    add_common(sp)
    sp.add_argument("--times", default="0,0.5,1,2,4",
                    help="comma-separated sample times")
    sp.add_argument("--t-grid", default="0:10:1001", dest="t_grid",
                    help="hypothesis grid start:stop:count")
    sp.add_argument("--directions", type=int, default=4096,
                    help="sample directions per radius shell")

    sp = sub.add_parser("flow", help="evolve states over [s, t]")
    add_common(sp)
    sp.add_argument("--s", type=float, default=0.0, help="start time")
    sp.add_argument("--t", type=float, required=True, help="end time")
    sp.add_argument("--points", help="JSON list of states (entries are "
                                     "reals or [re, im] pairs)")
    sp.add_argument("--radii", default="0.2,0.5,0.8",
                    help="default sample shells when --points is omitted")
    sp.add_argument("--directions", type=int, default=8,
                    help="default directions per shell")
    sp.add_argument("--dense", action="store_true",
                    help="also write per-step trajectories CSV (needs --out)")

    sp = sub.add_parser("schedule", help="unit-mass discretization")
    add_common(sp)
    sp.add_argument("--ell", type=float, default=None,
                    help="mass ratio bound sup k/m (measured when omitted)")

    sp = sub.add_parser("chain", help="evaluate limit maps")
    add_common(sp)
    sp.add_argument("--t", type=float, default=0.0, help="map time")
    sp.add_argument("--points", help="JSON list of states")
    sp.add_argument("--radii", default="0.2,0.5,0.8")
    sp.add_argument("--directions", type=int, default=4)
    sp.add_argument("--ell", type=float, default=None)
    sp.add_argument("--dense", action="store_true",
                    help="also write per-state chain CSV (needs --out)")

    sp = sub.add_parser("verify", help="full consistency battery")
    add_common(sp)
    sp.add_argument("--intervals", default="0:1,1:2,0:4",
                    help="comma-separated a:b decay-check intervals")
    sp.add_argument("--radii", default="0.2,0.5,0.8")
    sp.add_argument("--directions", type=int, default=8)
    sp.add_argument("--ell", type=float, default=None)

    sp = sub.add_parser("range", help="sample the image of a limit map")
    add_common(sp)
    sp.add_argument("--t", type=float, default=1.0, help="map time")
    sp.add_argument("--radius", type=float, default=0.5,
                    help="largest sampled state modulus")
    sp.add_argument("--directions", type=int, default=8)
    sp.add_argument("--ell", type=float, default=None)
    return p


# ---------------------------------------------------------------------------
# argument handling


def _parse_params(items) -> dict:
    params = {}
    for item in items:
        if "=" not in item:
            raise InvalidInputError(f"--param needs KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _load_field(args) -> tuple[FieldSpec, dict]:
    """Build the field and the canonical config fragment describing it.

    The field's path gets ``--tol-quad`` as its quadrature tolerance, so
    every mass integral a command computes honours it (constant paths
    integrate in closed form and keep theirs)."""
    if args.field is not None:
        cfg = read_field_config(args.field)
        field = parse_field_config(cfg)
        descriptor = {"source": "file", "config": cfg}
    else:
        params = _parse_params(args.param)
        field = builtin_field(args.builtin, params)
        descriptor = {"source": "builtin", "family": args.builtin,
                      "params": params}
    path = field.linear
    if path.quad_tol != args.tol_quad and not path.is_constant:
        field = dataclasses.replace(field, linear=LinearPath(
            field.dim, path.evaluate, breakpoints=path.breakpoints,
            quad_tol=args.tol_quad))
    return field, descriptor


def _check_run_config(args):
    for name in ("tol_ode", "tol_quad", "tol_chain"):
        check_tol(getattr(args, name), f"--{name.replace('_', '-')}")
    if not 1 <= args.horizon <= 10000:
        raise InvalidInputError(
            f"--horizon {args.horizon} outside [1, 10000]")
    check_seed(args.seed, "--seed")


def _parse_floats(text, what, sep=",") -> list[float]:
    try:
        vals = [float(x) for x in text.split(sep) if x.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"bad {what}: {text!r}") from None
    if not vals:
        raise InvalidInputError(f"empty {what}")
    return [check_real(v, what) for v in vals]


def _parse_grid(text) -> np.ndarray:
    vals = _parse_floats(text, "--t-grid", ":")
    if (len(vals) != 3 or not 0.0 <= vals[0] < vals[1] or vals[2] < 2
            or vals[2] != int(vals[2])):
        raise InvalidInputError("--t-grid needs start:stop:count with "
                                f"0 <= start < stop, got {text!r}")
    if vals[2] > _MAX_GRID:
        raise InvalidInputError(f"--t-grid count {vals[2]:.0f} exceeds "
                                f"{_MAX_GRID}")
    return np.linspace(vals[0], vals[1], int(vals[2]))


def _parse_intervals(text) -> list[tuple[float, float]]:
    out = [tuple(_parse_floats(piece, "--intervals", ":"))
           for piece in text.split(",") if piece.strip()]
    if not out or any(len(ab) != 2 for ab in out):
        raise InvalidInputError(f"bad --intervals {text!r} (need a:b,...)")
    return out


def _parse_points(text, dim) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"--points is not valid JSON: {exc}") from None
    return complex_rows(data, dim, "--points")


def _default_points(args, dim) -> np.ndarray:
    radii = _parse_floats(args.radii, "--radii")
    plan = SamplePlan(radii=tuple(radii), directions=args.directions,
                      times=(0.0,), seed=args.seed)
    return plan.states(dim)


def _points_for(args, dim) -> np.ndarray:
    if getattr(args, "points", None):
        return _parse_points(args.points, dim)
    return _default_points(args, dim)


# ---------------------------------------------------------------------------
# JSON helpers


def _c2j(x) -> list:
    return [float(np.real(x)), float(np.imag(x))]


def _vec2j(v) -> list:
    return [_c2j(x) for x in np.asarray(v).reshape(-1)]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


def _make_manifest(args, descriptor) -> dict:
    config = {
        "command": args.command,
        "field": descriptor,
        "tolerances": {"ode": args.tol_ode, "quad": args.tol_quad,
                       "chain": args.tol_chain},
        "horizon": args.horizon,
        "seed": args.seed,
    }
    for extra in ("s", "t", "points", "radii", "directions", "times",
                  "t_grid", "intervals", "ell", "radius", "dense"):
        if hasattr(args, extra):
            config[extra] = getattr(args, extra)
    return {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": _digest(config),
        "tolerances": config["tolerances"],
        "horizon": args.horizon,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# commands


def _schedule(args, field: FieldSpec, *, strict: bool = True):
    return build_schedule(field.linear, N=args.horizon,
                          ell=args.ell, tol=min(args.tol_ode, 1e-10),
                          strict=strict)


def _cmd_analyze(args, field: FieldSpec) -> tuple[dict, int]:
    times = tuple(_parse_floats(args.times, "--times"))
    plan = SamplePlan(directions=args.directions, times=times, seed=args.seed)
    grid = _parse_grid(args.t_grid)
    grid = np.union1d(grid, [b for b in field.breakpoints
                             if grid[0] <= b <= grid[-1]])
    class_n = class_n_check(field, plan)
    sandwich = gurganus_check(field, plan)
    growth = growth_check(field, 0.5, times, directions=min(args.directions,
                                                            512),
                          seed=args.seed)
    hypotheses = classify_hypotheses(field.linear, grid)
    result = {
        "dim": field.dim,
        "family": field.family_tag,
        "regularity": FieldSpec.regularity,
        "class_n": class_n.to_json_dict(),
        "sandwich": sandwich.to_json_dict(),
        "growth": growth.to_json_dict(),
        "hypotheses": hypotheses.to_json_dict(),
    }
    failed = (not class_n.passed or not sandwich.passed or not growth.passed
              or hypotheses.verdicts["general_bunching"] == VERDICT_VIOLATED)
    return result, (_EXIT_REJECTED if failed else _EXIT_OK)


def _cmd_flow(args, field: FieldSpec) -> tuple[dict, int, dict]:
    pts = _points_for(args, field.dim)
    req = FlowRequest(field=field, s=args.s, t=args.t, points=pts,
                      tol=args.tol_ode)
    res, paths = trajectories(req) if args.dense else (evolve(req), None)
    result = {
        "s": req.s, "t": req.t,
        "points": [_vec2j(p) for p in req.points],
        "images": [_vec2j(p) for p in res.images],
        "steps_taken": res.steps_taken,
        "steps_rejected": res.steps_rejected,
        "max_local_error": res.max_local_error,
        "rhs_evaluations": res.rhs_evaluations,
    }
    files = {}
    if paths is not None:
        files["trajectories.csv"] = _trajectories_csv(field.dim, paths)
    return result, _EXIT_OK, files


def _trajectories_csv(q: int, paths) -> str:
    buf = io.StringIO()
    head = ["t", "point_index"]
    head += [f"re_{i + 1}" for i in range(q)]
    head += [f"im_{i + 1}" for i in range(q)]
    head.append("abs")
    buf.write(",".join(head) + "\n")
    for idx, (times, states) in enumerate(paths):
        for tau, state in zip(times, states):
            row = [f"{tau:.17g}", str(idx)]
            row += [f"{state[i].real:.17g}" for i in range(q)]
            row += [f"{state[i].imag:.17g}" for i in range(q)]
            row.append(f"{float(np.linalg.norm(state)):.17g}")
            buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _cmd_schedule(args, field: FieldSpec) -> tuple[dict, int]:
    try:
        sched = _schedule(args, field)
    except ScheduleRejectedError as exc:
        return ({"schedule": exc.schedule.to_json_dict(),
                 "ell_source": exc.schedule.ell_source,
                 "chain_available": False,
                 "failing_step": exc.failing_n,
                 "reason": str(exc)}, _EXIT_REJECTED)
    # Limit-map construction needs degree-1 jet normalisation, which exists
    # only for h == 2; larger mass ratios get a budget but no chain.
    return {"schedule": sched.to_json_dict(),
            "ell_source": sched.ell_source,
            "chain_available": sched.h == 2}, _EXIT_OK


def _chain_evaluator(args, field: FieldSpec) -> ChainEvaluator:
    return ChainEvaluator(field, _schedule(args, field),
                          tol_chain=args.tol_chain, tol_ode=args.tol_ode)


def _cmd_chain(args, field: FieldSpec) -> tuple[dict, int, dict]:
    pts = _points_for(args, field.dim)
    ev = _chain_evaluator(args, field)
    values = ev.eval_many(args.t, pts)
    result = {
        "t": args.t,
        "schedule": ev.schedule.to_json_dict(),
        "ell_source": ev.schedule.ell_source,
        "points": [_vec2j(p) for p in pts],
        "values": [_vec2j(cv.value) for cv in values],
        "m_used": [cv.m_used for cv in values],
        "converged": [cv.converged for cv in values],
        "last_increment": [cv.last_increment for cv in values],
    }
    files = {}
    if args.dense:
        files["chain.csv"] = _chain_csv(args.t, field.dim, pts, values)
    code = _EXIT_OK if all(cv.converged for cv in values) else _EXIT_REJECTED
    return result, code, files


def _chain_csv(t, q, pts, values) -> str:
    buf = io.StringIO()
    head = ["t"]
    head += [f"re_z_{i + 1}" for i in range(q)]
    head += [f"im_z_{i + 1}" for i in range(q)]
    head += [f"re_f_{i + 1}" for i in range(q)]
    head += [f"im_f_{i + 1}" for i in range(q)]
    head += ["m_used", "converged"]
    buf.write(",".join(head) + "\n")
    for z, cv in zip(pts, values):
        row = [f"{t:.17g}"]
        row += [f"{z[i].real:.17g}" for i in range(q)]
        row += [f"{z[i].imag:.17g}" for i in range(q)]
        row += [f"{cv.value[i].real:.17g}" for i in range(q)]
        row += [f"{cv.value[i].imag:.17g}" for i in range(q)]
        row += [str(cv.m_used), "1" if cv.converged else "0"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _cmd_verify(args, field: FieldSpec) -> tuple[dict, int]:
    intervals = _parse_intervals(args.intervals)
    pts = _default_points(args, field.dim)
    checks = {}

    plan = SamplePlan(directions=256, seed=args.seed)
    rep = class_n_check(field, plan)
    checks["class_n"] = rep.to_json_dict()
    sw = gurganus_check(field, plan)
    checks["sandwich"] = sw.to_json_dict()
    gr = growth_check(field, 0.5, seed=args.seed)
    checks["growth"] = gr.to_json_dict()
    order = remainder_order_check(field)
    checks["remainder_order"] = {"jacobian_norm": order,
                                 "passed": order <= 1e-6}

    decay_all = []
    for (a, b) in intervals:
        dr = decay_bounds_check(field, a, b, pts, tol=args.tol_ode)
        decay_all.append(dr.to_json_dict())
    checks["decay"] = {"intervals": decay_all,
                       "passed": all(d["passed"] for d in decay_all)}

    mid = 0.5 * (intervals[0][0] + intervals[0][1])
    defect = semigroup_defect(field, intervals[0][0], mid, intervals[0][1],
                              pts[:4], tol=args.tol_ode)
    checks["semigroup"] = {"defect": defect,
                           "passed": defect <= 200.0 * args.tol_ode}

    try:
        sched = _schedule(args, field, strict=False)
        checks["schedule"] = {"passed": sched.accepted,
                              "schedule": sched.to_json_dict(),
                              "ell_source": sched.ell_source}
    except HorizonExhaustedError as exc:
        sched = None
        checks["schedule"] = {"passed": False, "reason": str(exc)}

    if sched is not None and sched.accepted:
        cr = contraction_check(field, sched, directions=8, seed=args.seed,
                               tol=args.tol_ode,
                               max_steps=min(6, sched.horizon_N))
        checks["contraction"] = cr.to_json_dict()
        if sched.h == 2:
            ev = ChainEvaluator(field, sched, tol_chain=args.tol_chain,
                                tol_ode=args.tol_ode)
            z = pts[0] * (0.4 / max(float(np.linalg.norm(pts[0])), 1e-9))
            resid_id = ev.identity_residual(0.0, 1.0, z)
            checks["chain_identity"] = {
                "residual": resid_id,
                "passed": resid_id <= 1000.0 * args.tol_chain}
            resid_pde = ev.pde_residual(1.0, z)
            checks["transport"] = {"residual": resid_pde,
                                   "passed": resid_pde <= 1e-4}

    all_passed = all(c["passed"] for c in checks.values())
    return ({"checks": checks, "all_passed": all_passed},
            _EXIT_OK if all_passed else _EXIT_REJECTED)


def _cmd_range(args, field: FieldSpec) -> tuple[dict, int]:
    ev = _chain_evaluator(args, field)
    rs = ev.range_sample(args.t, radius=args.radius,
                         directions=args.directions, seed=args.seed)
    result = {
        "t": rs.t,
        "radius": args.radius,
        "points": [_vec2j(p) for p in rs.points],
        "values": [_vec2j(v) for v in rs.values],
        "inclusion_residuals": list(rs.inclusion_residuals),
        "max_inclusion_residual": rs.max_inclusion_residual(),
        "converged": rs.converged,
    }
    return result, _EXIT_OK if rs.converged else _EXIT_REJECTED


# ---------------------------------------------------------------------------
# output plumbing


def _emit(payload: dict, args, files: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        if files:
            sys.stderr.write("note: --dense output needs --out DIR; "
                             "CSV not written\n")
        return
    import os
    os.makedirs(args.out, exist_ok=True)
    written = {}
    name = f"{args.command}.json"
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    written[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for fname, content in files.items():
        with open(os.path.join(args.out, fname), "w", encoding="utf-8") as fh:
            fh.write(content)
        written[fname] = hashlib.sha256(content.encode("utf-8")).hexdigest()
    manifest = {"schema_version": SCHEMA_VERSION,
                "config_sha256": payload.get("manifest", {}).get(
                    "config_sha256", ""),
                "files": written}
    mtext = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(args.out, "manifest.json"), "w",
              encoding="utf-8") as fh:
        fh.write(mtext)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliUsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE

    files: dict = {}
    try:
        _check_run_config(args)
        field, descriptor = _load_field(args)
        if args.command == "analyze":
            result, code = _cmd_analyze(args, field)
        elif args.command == "flow":
            result, code, files = _cmd_flow(args, field)
        elif args.command == "schedule":
            result, code = _cmd_schedule(args, field)
        elif args.command == "chain":
            result, code, files = _cmd_chain(args, field)
        elif args.command == "verify":
            result, code = _cmd_verify(args, field)
        else:
            result, code = _cmd_range(args, field)
        status = "ok" if code == _EXIT_OK else "rejected"
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "status": status,
            "manifest": _make_manifest(args, descriptor),
            "result": result,
        }
    except tuple(_EXIT_CODES) as exc:
        code = next(c for kind, c in _EXIT_CODES.items()
                    if isinstance(exc, kind))
        if code == _EXIT_USAGE:
            sys.stderr.write(f"error: {exc}\n")
            return code
        payload = _error_payload(args, exc, code)

    _emit(payload, args, files)
    return code


def _error_payload(args, exc: Exception, code: int) -> dict:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, FieldRejectedError):
        error["type"] = "field-rejected"
        error["witnesses"] = [{"z": _vec2j(w[0]), "t": w[1], "value": w[2]}
                              for w in exc.witnesses[:8]]
    if isinstance(exc, ScheduleRejectedError) and exc.schedule is not None:
        error["schedule"] = exc.schedule.to_json_dict()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "status": "failed" if code == _EXIT_NUMERICAL else "rejected",
        "manifest": {"schema_version": SCHEMA_VERSION},
        "error": error,
    }


if __name__ == "__main__":
    sys.exit(main())
