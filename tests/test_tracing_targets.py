"""The benchmark's tracer finds every name it wraps, so a traced run reports every
per-layer metric that BENCHMARK.json declares.

The tracer skips a name it cannot find and drops that name's metrics, so a
renamed or deleted op would silently shrink a traced result.  These tests
only import ``benchmarks/tracing.py``; they run nothing in it.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import stdiff.autodiff

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH_DIR))  # for its hostspeed import
    try:
        spec = importlib.util.spec_from_file_location("tracing", BENCH_DIR / "tracing.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module


def resolve(module_name, qualname):
    """What the tracer would wrap for (module, qualified name), or None."""
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_layer_target_resolves(tracing):
    missing = [prefix for prefix, target in tracing.LAYERS.items() if resolve(*target) is None]
    assert not missing


def test_every_autodiff_group_has_a_live_op(tracing):
    dead = [op for op, names in tracing.AUTODIFF_OPS.items()
            if not any(callable(getattr(stdiff.autodiff, name, None)) for name in names)]
    assert not dead


def test_tape_counters_and_boundaries_resolve(tracing):
    targets = [("stdiff.autodiff", "Tape.record"), ("stdiff.autodiff", "Tensor.ensure_grad"),
               tracing.OPTIMIZER_STEP, tracing.PREDICT_BATCH]
    assert [t for t in targets if resolve(*t) is None] == []


def test_per_layer_names_are_the_declared_metrics(tracing):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert tracing.per_layer_names() == declared
