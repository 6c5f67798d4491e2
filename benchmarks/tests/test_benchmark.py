"""Tests of the benchmark itself, on tiny configurations so they stay fast.

    python3 -m pytest benchmarks/tests -q
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import RTOL, max_rel_error, reference_forward  # noqa: E402

TINY = {
    "train": dataclasses.replace(
        workloads.WORKLOADS["train-graph"], name="tiny-train", n=8, neighbours=3, K=2, s=2,
        d=4, m=3, T=6, H=3, batch=2, snapshots=240, train_windows=4, val_windows=4),
    "eval": dataclasses.replace(
        workloads.WORKLOADS["eval-long"], name="tiny-eval", n=8, neighbours=3, K=2, s=2,
        d=4, m=3, T=6, H=3, snapshots=workloads.DAY * 12),
}


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in (
        "sparse.matmul_dense.work", "autodiff.tape.records", "autodiff.ensure_grad.allocs")


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_traced_counts_repeat(mode, tmp_path):
    counts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        result = workloads.run(TINY[mode], seed=5, seconds=0.2, trace=True, work_dir=work)
        assert result.correct, result.lines
        counts.append({k: v for k, (v, _unit) in result.metrics.items() if _is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["sparse.matmul_dense.calls"] > 0
    assert counts[0]["autodiff.tape.records"] > 0
    if mode == "eval":
        assert counts[0]["autodiff.spmm_diff.calls"] > 0
        bwd = {k: v for k, (v, _u) in result.metrics.items() if k.endswith(".bwd_s")}
        assert bwd and all(v == 0.0 for v in bwd.values())


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_untraced_run_reports_every_end_to_end_metric(mode, tmp_path):
    result = workloads.run(TINY[mode], seed=2, seconds=0.5, trace=False, work_dir=tmp_path)
    assert result.correct, result.lines
    names = {name for name, _unit in workloads.END_TO_END} - {"peak_rss_mb"}
    assert set(result.metrics) == names
    assert all(value > 0 for value, _unit in result.metrics.values())


def _tiny_model(seed=3):
    wl = TINY["train"]
    inputs = workloads.generate(wl, seed, work_dir=None)
    state = workloads.setup(wl, inputs)
    params = {p.name: p.value.copy() for p in state.model.params()}
    return state, params


def test_dense_reference_matches_model():
    from stdiff import training
    state, params = _tiny_model()
    for w in state.val_w:
        pred = training.predict_batch(state.model, w.history[None], state.stats)[0]
        z = (w.history - state.stats.mean) / state.stats.std
        ref = reference_forward(params, state.graph, state.model.config, z) * state.stats.std \
            + state.stats.mean
        assert max_rel_error(pred, ref) <= RTOL


def test_reference_check_catches_a_wrong_parameter():
    state, params = _tiny_model()
    params["ch1.theta_h2"] = params["ch1.theta_h2"] * 1.01
    checks = workloads.Checks()
    workloads.check_reference(state, params, checks)
    assert checks.failed == checks.attempted > 0


def test_missing_target_is_absent_not_an_error(monkeypatch):
    from stdiff.sparse import SparseMatrix
    monkeypatch.delattr(SparseMatrix, "matmul_sparse")
    with tracing.Probe(trace=True) as probe:
        pass
    assert "sparse.matmul_sparse" not in probe.present
    assert "sparse.matmul_dense" in probe.present
    metrics = probe.layer_metrics("step", untraced_p50=1.0)
    assert not any(name.startswith("sparse.matmul_sparse") for name in metrics)


def test_generator_is_seeded_and_road_like():
    wl = workloads.WORKLOADS["train-graph"]
    a = workloads.generate(wl, 7, work_dir=None)
    b = workloads.generate(wl, 7, work_dir=None)
    assert np.array_equal(a.values, b.values) and a.records == b.records
    missing = float((a.values == 0).mean())
    assert 0.02 <= missing <= 0.04
    edges = len(a.records)
    assert wl.n * wl.neighbours <= edges <= 2 * wl.n * wl.neighbours


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
