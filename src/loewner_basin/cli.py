"""Command line interface.

Each command is declared once, in ``_COMMANDS``: its help text and its
own options.  The options several commands share (``--t``, ``--points``,
``--radii``, ``--directions``, ``--ell``, ``--dense``) are declared once
in ``_SHARED``; a command sets only its own default or ``required``.
``loewner-basin <command> --help`` lists a command's options.

Every command reads a field either from ``--field file.json`` (strict
schema, see ``loewner_basin.fields.parse_field_config``) or from
``--builtin name`` with repeatable ``--param key=value`` options
(values parsed as JSON when possible), and takes the run options
``--tol-ode``, ``--tol-quad``, ``--tol-chain``, ``--horizon``,
``--seed`` and ``--out``.  The handler ``_cmd_<command>`` returns
``(result, exit code, files)``.

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
import copy
import dataclasses
import functools
import hashlib
import json
import os
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
                     check_real, check_seed, complex_json, complex_rows,
                     growth_check, gurganus_check, parse_field_config,
                     read_field_config, remainder_order_check)
# ``trace`` is not called here; it stays importable as ``cli.trace``, a
# target of the benchmark's span tracer (bench/tracer.py).
from .flow import (FlowRequest, decay_bounds_check, evolve, semigroup_defect,
                   trace, trajectories)
from .linear import VERDICT_VIOLATED, classify_hypotheses
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

#: payload status of each exit code; every other code is "rejected"
_STATUS = {_EXIT_OK: "ok", _EXIT_NUMERICAL: "failed"}

#: options several commands share, as argparse keywords
_SHARED = {
    "--t": dict(type=float, help="map time, or a flow's end time"),
    "--points": dict(help="JSON list of states (entries are reals or "
                          "[re, im] pairs); default: --radii shells"),
    "--radii": dict(default="0.2,0.5,0.8",
                    help="sample shells when --points is omitted"),
    "--directions": dict(type=int, help="sample directions per shell"),
    "--ell": dict(type=float, default=None,
                  help="mass ratio bound sup k/m (measured when omitted)"),
    "--dense": dict(action="store_true",
                    help="also write trajectories.csv (flow) or chain.csv "
                         "(chain); needs --out"),
}

#: each command's help and its own options: a shared option by name with
#: this command's default or ``required``, or a new one in full
_COMMANDS = {
    "analyze": ("admissibility and hypothesis report", {
        "--times": dict(default="0,0.5,1,2,4",
                        help="comma-separated sample times"),
        "--t-grid": dict(default="0:10:1001",
                         help="hypothesis grid start:stop:count"),
        "--directions": dict(default=4096),
    }),
    "flow": ("evolve states over [s, t]", {
        "--s": dict(type=float, default=0.0, help="start time"),
        "--t": dict(required=True),
        "--points": {},
        "--radii": {},
        "--directions": dict(default=8),
        "--dense": {},
    }),
    "schedule": ("unit-mass discretization", {
        "--ell": {},
    }),
    "chain": ("evaluate limit maps", {
        "--t": dict(default=0.0),
        "--points": {},
        "--radii": {},
        "--directions": dict(default=4),
        "--ell": {},
        "--dense": {},
    }),
    "verify": ("full consistency battery", {
        "--intervals": dict(default="0:1,1:2,0:4",
                            help="comma-separated a:b decay-check "
                                 "intervals"),
        "--radii": {},
        "--directions": dict(default=8),
        "--ell": {},
    }),
    "range": ("sample the image of a limit map", {
        "--t": dict(default=1.0),
        "--radius": dict(type=float, default=0.5,
                         help="largest sampled state modulus"),
        "--directions": dict(default=8),
        "--ell": {},
    }),
}


class _ParserExit(Exception):
    """argparse ended the run (usage error, --help or --version); args[0]
    is the exit status."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit, so ``main``
    returns the status: 0 after --help or --version, 1 on a usage error."""

    def error(self, message):
        self.exit(_EXIT_USAGE, f"error: {message}\n")

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise _ParserExit(status)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="loewner-basin",
                description="contracting evolutions, discretization "
                            "schedules and their limit maps on the unit "
                            "ball")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
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
        for flag, kw in options.items():
            sp.add_argument(flag, **{**_SHARED.get(flag, {}), **kw})
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

    The field's path gets ``--tol-quad`` as its quadrature tolerance on
    every path, constant ones too (they still integrate in closed form),
    so every mass integral, unit-mass time and decay slack a command
    computes honours it."""
    if args.field is not None:
        cfg = read_field_config(args.field)
        field = parse_field_config(cfg)
        descriptor = {"source": "file", "config": cfg}
    else:
        params = _parse_params(args.param)
        field = builtin_field(args.builtin, params)
        descriptor = {"source": "builtin", "family": args.builtin,
                      "params": params}
    path = copy.copy(field.linear)
    path.quad_tol = args.tol_quad
    return dataclasses.replace(field, linear=path), descriptor


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


def _points(args, dim) -> np.ndarray:
    """The states of ``--points``, else the ``--radii`` shells."""
    if getattr(args, "points", None) is not None:
        try:
            data = json.loads(args.points)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(
                f"--points is not valid JSON: {exc}") from None
        return complex_rows(data, dim, "--points")
    plan = SamplePlan(radii=tuple(_parse_floats(args.radii, "--radii")),
                      directions=args.directions, times=(0.0,),
                      seed=args.seed)
    return plan.states(dim)


# ---------------------------------------------------------------------------
# JSON and CSV helpers


def _complex_head(tag: str, q: int) -> list:
    return ([f"re_{tag}{i + 1}" for i in range(q)]
            + [f"im_{tag}{i + 1}" for i in range(q)])


def _complex_cells(v) -> list:
    """A complex vector as CSV cells: every real part, then every imaginary
    part, each at full precision."""
    return [f"{x:.17g}" for x in (*v.real, *v.imag)]


def _csv(head, rows) -> str:
    return "".join(",".join(row) + "\n" for row in (head, *rows))


def _digest(obj) -> str:
    """sha256 of the canonical (sorted, compact, finite) JSON of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _make_manifest(args, descriptor) -> dict:
    config = {
        "command": args.command,
        "field": descriptor,
        "tolerances": {"ode": args.tol_ode, "quad": args.tol_quad,
                       "chain": args.tol_chain},
        "horizon": args.horizon,
        "seed": args.seed,
    }
    for flag in _COMMANDS[args.command][1]:
        name = flag[2:].replace("-", "_")
        config[name] = getattr(args, name)
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
    return build_schedule(field.linear, N=args.horizon, ell=args.ell,
                          strict=strict)


def _cmd_analyze(args, field: FieldSpec) -> tuple[dict, int, dict]:
    times = tuple(_parse_floats(args.times, "--times"))
    plan = SamplePlan(directions=args.directions, times=times, seed=args.seed)
    grid = _parse_grid(args.t_grid)
    grid = np.union1d(grid, [b for b in field.breakpoints
                             if grid[0] <= b <= grid[-1]])
    class_n = class_n_check(field, plan)
    sandwich = gurganus_check(field, plan)
    growth = growth_check(field, times, directions=min(args.directions, 512),
                          seed=args.seed)
    hypotheses = classify_hypotheses(field.linear, grid)
    result = {
        "dim": field.dim,
        "family": field.family_tag,
        "regularity": FieldSpec.regularity,
        "class_n": class_n,
        "sandwich": sandwich,
        "growth": growth,
        "hypotheses": hypotheses,
    }
    failed = (not all(c["passed"] for c in (class_n, sandwich, growth))
              or hypotheses["verdicts"]["general_bunching"] == VERDICT_VIOLATED)
    return result, (_EXIT_REJECTED if failed else _EXIT_OK), {}


def _cmd_flow(args, field: FieldSpec) -> tuple[dict, int, dict]:
    pts = _points(args, field.dim)
    req = FlowRequest(field=field, s=args.s, t=args.t, points=pts,
                      tol=args.tol_ode)
    res, paths = trajectories(req) if args.dense else (evolve(req), None)
    result = {
        "s": req.s, "t": req.t,
        "points": [complex_json(p) for p in req.points],
        "images": [complex_json(p) for p in res.images],
        "steps_taken": res.steps_taken,
        "steps_rejected": res.steps_rejected,
        "max_local_error": res.max_local_error,
        "rhs_evaluations": res.rhs_evaluations,
    }
    files = {}
    if paths is not None:
        files["trajectories.csv"] = _csv(
            ["t", "point_index", *_complex_head("", field.dim), "abs"],
            ([f"{tau:.17g}", str(idx), *_complex_cells(state),
              f"{float(np.linalg.norm(state)):.17g}"]
             for idx, (times, states) in enumerate(paths)
             for tau, state in zip(times, states)))
    return result, _EXIT_OK, files


def _cmd_schedule(args, field: FieldSpec) -> tuple[dict, int, dict]:
    try:
        sched = _schedule(args, field)
    except ScheduleRejectedError as exc:
        return ({"schedule": exc.schedule.to_json_dict(),
                 "ell_source": exc.schedule.ell_source,
                 "chain_available": False,
                 "failing_step": exc.failing_n,
                 "reason": str(exc)}, _EXIT_REJECTED, {})
    # Limit-map construction needs degree-1 jet normalisation, which exists
    # only for h == 2; larger mass ratios get a budget but no chain.
    return {"schedule": sched.to_json_dict(),
            "ell_source": sched.ell_source,
            "chain_available": sched.h == 2}, _EXIT_OK, {}


def _chain_evaluator(args, field: FieldSpec) -> ChainEvaluator:
    return ChainEvaluator(field, _schedule(args, field),
                          tol_chain=args.tol_chain, tol_ode=args.tol_ode)


def _cmd_chain(args, field: FieldSpec) -> tuple[dict, int, dict]:
    pts = _points(args, field.dim)
    ev = _chain_evaluator(args, field)
    values = ev.eval_many(args.t, pts)
    result = {
        "t": args.t,
        "schedule": ev.schedule.to_json_dict(),
        "ell_source": ev.schedule.ell_source,
        "points": [complex_json(p) for p in pts],
        "values": [complex_json(cv.value) for cv in values],
        "m_used": [cv.m_used for cv in values],
        "converged": [cv.converged for cv in values],
        "last_increment": [cv.last_increment for cv in values],
        "error_estimate": [cv.error_estimate for cv in values],
        "stop_rule": [cv.stop_rule for cv in values],
    }
    files = {}
    if args.dense:
        q = field.dim
        files["chain.csv"] = _csv(
            ["t", *_complex_head("z_", q), *_complex_head("f_", q),
             "m_used", "converged"],
            ([f"{args.t:.17g}", *_complex_cells(z), *_complex_cells(cv.value),
              str(cv.m_used), "1" if cv.converged else "0"]
             for z, cv in zip(pts, values)))
    code = _EXIT_OK if all(cv.converged for cv in values) else _EXIT_REJECTED
    return result, code, files


def _residual_check(residual, bound: float) -> dict:
    """``residual()`` against ``bound``, or a failed check with the reason
    when the schedule ends before a time the residual needs."""
    try:
        value = residual()
    except HorizonExhaustedError as exc:
        return {"passed": False, "reason": str(exc)}
    return {"residual": value, "passed": value <= bound}


def _cmd_verify(args, field: FieldSpec) -> tuple[dict, int, dict]:
    intervals = _parse_intervals(args.intervals)
    pts = _points(args, field.dim)
    plan = SamplePlan(directions=256, seed=args.seed)
    checks = {"class_n": class_n_check(field, plan),
              "sandwich": gurganus_check(field, plan),
              "growth": growth_check(field, seed=args.seed)}
    order = remainder_order_check(field)
    checks["remainder_order"] = {"jacobian_norm": order,
                                 "passed": order <= 1e-6}

    checks["decay"] = decay_bounds_check(field, intervals, pts,
                                         tol=args.tol_ode)

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
        checks["contraction"] = contraction_check(
            field, sched, seed=args.seed, tol=args.tol_ode)
        if sched.h == 2:
            ev = ChainEvaluator(field, sched, tol_chain=args.tol_chain,
                                tol_ode=args.tol_ode)
            z = pts[0] * (0.4 / max(float(np.linalg.norm(pts[0])), 1e-9))
            checks["chain_identity"] = _residual_check(
                lambda: ev.identity_residual(0.0, 1.0, z),
                1000.0 * args.tol_chain)
            checks["transport"] = _residual_check(
                lambda: ev.pde_residual(1.0, z), 1e-4)

    all_passed = all(c["passed"] for c in checks.values())
    return ({"checks": checks, "all_passed": all_passed},
            _EXIT_OK if all_passed else _EXIT_REJECTED, {})


def _cmd_range(args, field: FieldSpec) -> tuple[dict, int, dict]:
    result = _chain_evaluator(args, field).range_sample(
        args.t, radius=args.radius, directions=args.directions,
        seed=args.seed)
    return result, (_EXIT_OK if result["converged"] else _EXIT_REJECTED), {}


# ---------------------------------------------------------------------------
# output plumbing


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(directory: str, name: str, text: str) -> str:
    """Write one artifact; returns its sha256."""
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(payload: dict, args, files: dict) -> None:
    text = _dumps(payload)
    if args.out is None:
        sys.stdout.write(text)
        if files:
            sys.stderr.write("note: --dense output needs --out DIR; "
                             "CSV not written\n")
        return
    os.makedirs(args.out, exist_ok=True)
    written = {name: _write(args.out, name, body) for name, body in
               {f"{args.command}.json": text, **files}.items()}
    _write(args.out, "manifest.json", _dumps(
        {"schema_version": SCHEMA_VERSION,
         "config_sha256": payload["manifest"].get("config_sha256", ""),
         "files": written}))


def _payload(args, code: int, manifest: dict, **body) -> dict:
    """The one payload shape: ``result`` on success and on a verdict that
    refuses, ``error`` when a typed error ended the run."""
    return {"schema_version": SCHEMA_VERSION, "command": args.command,
            "status": _STATUS.get(code, "rejected"), "manifest": manifest,
            **body}


def _error_json(exc: Exception) -> dict:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, FieldRejectedError):
        error["type"] = "field-rejected"
        error["witnesses"] = exc.witnesses
    if isinstance(exc, ScheduleRejectedError) and exc.schedule is not None:
        error["schedule"] = exc.schedule.to_json_dict()
    return error


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ParserExit as done:
        return done.args[0]

    files: dict = {}
    try:
        _check_run_config(args)
        field, descriptor = _load_field(args)
        handler = globals()[f"_cmd_{args.command}"]
        result, code, files = handler(args, field)
        payload = _payload(args, code, _make_manifest(args, descriptor),
                           result=result)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for kind, c in _EXIT_CODES.items()
                    if isinstance(exc, kind))
        if code == _EXIT_USAGE:
            sys.stderr.write(f"error: {exc}\n")
            return code
        payload = _payload(args, code, {"schema_version": SCHEMA_VERSION},
                           error=_error_json(exc))

    _emit(payload, args, files)
    return code


if __name__ == "__main__":
    sys.exit(main())
