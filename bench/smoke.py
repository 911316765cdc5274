"""Smoke check for the benchmark.

Usage (from the root of a checkout): python3 bench/smoke.py

Runs every workload the runner defines, including the ones
``BENCHMARK.json`` leaves out, at minimal size (one round, ``--seconds
1``) with tracing off and on, and checks that each run exits 0, reports
zero failed requests, and emits exactly the metrics ``BENCHMARK.json``
names, with their units.  It also checks that ``predictions.json`` assigns
every per-layer metric to a layer, and that the runner fails without
printing a result in a copy that holds only ``BENCHMARK.json`` and the
benchmark's own files.  Takes about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"{where}: {result['failed']} failed\n{proc.stderr}")
    want = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = result["metrics"]
    if sorted(got) != sorted(units):
        problems.append(f"{where}: missing {sorted(set(units) - set(got))}, "
                        f"extra {sorted(set(got) - set(units))}")
    for name, entry in got.items():
        if entry.get("unit") != units.get(name):
            problems.append(f"{where}: {name} unit {entry.get('unit')}")
        if not (isinstance(entry.get("value"), (int, float))
                and math.isfinite(entry["value"])):
            problems.append(f"{where}: {name} value {entry.get('value')}")
    return problems


def check_predictions(spec) -> list:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    covered = {m for layer in layers.values() for m in layer["metrics"]}
    named = {m["name"] for m in spec["per_layer"]}
    if covered != named:
        return [f"predictions.json: missing {sorted(named - covered)}, "
                f"extra {sorted(covered - named)}"]
    return []


def check_without_source() -> list:
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", "limit-map", "--seed", "0", "--seconds",
                    "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["runner did not fail cleanly without the program's source"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_predictions(spec) + check_without_source()
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "0", "--seconds",
                        "1", "--trace", str(trace)], ROOT)
            problems += check_result(spec, workload, trace, proc)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
