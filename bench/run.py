"""Closed-loop benchmark of the ``loewner_basin`` command line tool.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``loewner_basin.cli.main([...])`` in this process
with its output captured, issuing requests back to back in whole rounds
(see ``workloads.py``) until S seconds have passed, set-up probes not
counted.  The seed makes the
inputs; the program receives only the generated inputs.  Each request's
output is checked by an oracle (``oracles.py``) outside the timed
region.

``--trace 0`` prints the end-to-end metrics: set-up time (median of one
fresh-process probe after each round), work per second, request latency
median and tail, and peak memory.  ``--trace 1``
first runs untraced for S/2 seconds, then replays the same requests with
every layer wrapped by ``tracer.py`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(machine, versions, seed, source size, latency details, failures) and,
for traced runs, the spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

# the program and the benchmark's own modules are compiled afresh in
# every run, so no byte-code cache lands in the checkout
sys.dont_write_bytecode = True

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: samples that must lie above the reported tail percentile
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def measure_setup(fields: list) -> float:
    """Seconds a fresh process needs to import the package and build
    each distinct field once."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    probe = os.path.join(HERE, "setup_probe.py")
    out = subprocess.run([sys.executable, probe, SRC, json.dumps(fields)],
                         check=True, capture_output=True, text=True,
                         env=env, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def distinct_fields(requests) -> list:
    seen = []
    for req in requests:
        if list(req.field) not in seen:
            seen.append(list(req.field))
    return seen


# ---------------------------------------------------------------------------
# requests


@dataclass
class Outcome:
    request: workloads.Request
    latency: float
    problems: list
    round: int = 0


def execute(main, req, tracer=None) -> Outcome:
    """Run one request; only the call into the program is timed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(req.argv)
            else:
                code = tracer.request_span(main, req.argv)
    except Exception:  # a crash is a failed request, not a failed run
        latency = time.perf_counter() - start
        return Outcome(req, latency, [traceback.format_exc(limit=3)])
    latency = time.perf_counter() - start
    try:
        if req.out_dir is not None:
            path = os.path.join(req.out_dir, f"{req.argv[0]}.json")
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.loads(out.getvalue())
        problems = req.check(payload, code, req.out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    finally:
        if req.out_dir is not None:
            shutil.rmtree(req.out_dir, ignore_errors=True)
    if problems and err.getvalue():
        problems.append(f"stderr: {err.getvalue()[-1000:]}")
    return Outcome(req, latency, problems)


def run_rounds(main, workload, rng, ctx, seconds: float,
               setup_times=None) -> tuple:
    """Issue whole rounds back to back until ``seconds`` have passed,
    set-up probes not counted.

    The first request also runs once untimed beforehand, so one-off
    costs of first calls into numpy stay out of the latencies.  With
    ``setup_times``, a set-up probe of the first round's fields runs
    after every round (its time does not count toward ``seconds``), so
    the reported set-up time spans the run rather than one moment of it.
    Returns (timed outcomes, warm-up outcome).
    """
    outcomes = []
    batch = workload.make_round(rng, ctx)
    fields = distinct_fields(batch)
    warmup = execute(main, batch[0])
    spent = 0.0
    rounds = 0
    while True:
        start = time.perf_counter()
        for req in batch:
            outcome = execute(main, req)
            outcome.round = rounds
            outcomes.append(outcome)
        spent += time.perf_counter() - start
        rounds += 1
        if setup_times is not None:
            setup_times.append(measure_setup(fields))
        if spent >= seconds:
            return outcomes, warmup
        batch = workload.make_round(rng, ctx)


def replay(main, outcomes, tracer) -> list:
    return [execute(main, o.request, tracer) for o in outcomes]


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(outcomes, setup_times) -> tuple:
    lat = [o.latency for o in outcomes]
    busy = sum(lat)
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "work_per_s": {"value": sum(o.request.work for o in outcomes) / busy,
                       "unit": "1/s"},
        "request_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "request_tail_s": {"value": tail_value, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    details = {"tail_percentile": tail_pct, "samples": len(lat),
               "busy_s": busy, "setup_times_s": setup_times}
    return metrics, details


# ---------------------------------------------------------------------------
# run record


def source_facts() -> dict:
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, SRC).encode() + b"\0"
                              + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_record(args, timed, attempted, failed, extra: dict) -> dict:
    by_kind: dict = {}
    for o in timed:
        by_kind.setdefault(o.request.kind, []).append(o.latency)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        **source_facts(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "work_unit": workloads.WORKLOADS[args.workload].work_unit,
        "attempted": len(attempted),
        "failed": failed,
        "failed_frac": failed / len(attempted),
        "latency_median_by_kind_s": {k: statistics.median(v)
                                     for k, v in sorted(by_kind.items())},
        "latencies_s": [[o.request.kind, o.round, o.latency] for o in timed],
        "failures": [{"kind": o.request.kind, "argv": o.request.argv,
                      "problems": o.problems}
                     for o in attempted if o.problems][:20],
        **extra,
    }


def check_corpus() -> None:
    from loewner_basin.fields import builtin_corpus

    names = sorted(name for name, _ in builtin_corpus())
    if names != sorted(workloads.CORPUS):
        raise SystemExit(f"builtin_corpus() names changed: {names}")


def traced_replay(main, untraced, spans_path) -> tuple:
    """Replay the untraced requests with every layer wrapped; returns
    (per-layer metrics, run-record details, traced outcomes)."""
    tracer = Tracer()
    tracer.install()
    try:
        traced = replay(main, untraced, tracer)
    finally:
        tracer.uninstall()
    untraced_wall = sum(o.latency for o in untraced)
    traced_wall = sum(o.latency for o in traced)
    tracer.write_spans(spans_path)
    details = {
        "absent_targets": tracer.absent,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "per_span": {name: {"calls": tracer.calls[name],
                            "total_s": tracer.total[name],
                            "self_s": tracer.self_time[name]}
                     for name in sorted(tracer.calls)},
    }
    return (tracer.metrics(len(traced), traced_wall, untraced_wall),
            details, traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "loewner_basin")):
        sys.stderr.write(f"no loewner_basin package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from loewner_basin import cli

    workload = workloads.WORKLOADS[args.workload]
    if args.workload == "certify":
        check_corpus()
    os.makedirs(OUT, exist_ok=True)
    ctx = workloads.Context(os.path.join(OUT, f"work-{os.getpid()}"))
    rng = np.random.default_rng(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traced = []
    try:
        if args.trace == 0:
            setup_times = []
            timed, warmup = run_rounds(cli.main, workload, rng, ctx,
                                       args.seconds, setup_times)
            metrics, details = end_to_end(timed, setup_times)
        else:
            timed, warmup = run_rounds(cli.main, workload, rng, ctx,
                                       args.seconds / 2.0)
            metrics, details, traced = traced_replay(
                cli.main, timed, os.path.join(OUT, f"spans-{tag}.jsonl"))
    finally:
        shutil.rmtree(ctx.root, ignore_errors=True)

    attempted = [warmup, *timed, *traced]
    failed = sum(1 for o in attempted if o.problems)
    record = run_record(args, timed, attempted, failed, details)
    with open(os.path.join(OUT, f"record-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for o in attempted:
        for problem in o.problems:
            sys.stderr.write(f"FAILED {o.request.kind}: {problem}\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
