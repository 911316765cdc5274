"""Every function the benchmark's span tracer patches exists, so a rename
cannot silently drop a per-layer metric."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"loewner_basin.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert len(tracer.TARGETS) >= 31 and not missing, missing
