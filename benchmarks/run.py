"""Benchmark for stdiff: training, forward-only prediction and the eval path.

Run from the root of a checkout:

    python3 benchmarks/run.py                       # all workloads, one process each
    python3 benchmarks/run.py --workload train-graph --seed 3 --seconds 30 --trace 0

A single workload prints its metrics by name with their units, then, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a separate traced run and writes its spans to
``benchmarks/_out/``.  The exit code is 0 only when every correctness check
passed.  See ``benchmarks/METRICS.md`` for what each metric means.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: every workload process then uses
# one core of the two this benchmark is sized for, and results stay
# bit-deterministic for a fixed seed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_TIMEOUT_S = 900


def _import_program():
    """Put the checkout's ``src`` first on the path; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "stdiff" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'stdiff'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import stdiff
    if Path(stdiff.__file__).resolve().parent != src / "stdiff":
        sys.exit(f"error: imported stdiff from {stdiff.__file__}, not from {src}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "commit": _git_commit(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment(name, seed, seconds, trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    work_dir = BENCH_DIR / "_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(workloads.WORKLOADS[name], seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metric_values = dict(result.metrics)
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metric_values["peak_rss_mb"] = (peak, "MB")
        result.lines.append(f"{name} peak_rss_mb = {peak:.1f} MB")
    result.lines.append(f"{name} failed_share = {result.failed / max(result.attempted, 1):.4f} "
                        f"({result.failed} failed of {result.attempted} attempted)")
    if result.trace is not None:
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{name}-seed{seed}.json"
        spans = result.trace["spans"]
        t0 = min((s[1] for s in spans), default=0.0)
        path.write_text(json.dumps({
            "env": env,
            "per_layer": {k: v[0] for k, v in metric_values.items()},
            "table": result.trace["table"],
            "span_fields": ["name", "start_s", "end_s", "parent", "unit"],
            "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
                      for s in spans],
        }) + "\n", encoding="utf-8")
        result.lines.append(f"{name} trace written to {path.relative_to(ROOT)} "
                            f"({len(spans)} spans)")
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metric_values.items()},
    }), flush=True)
    return 0 if result.correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one after another."""
    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            print(f"{name}: no result (exit code {proc.returncode})", flush=True)
        combined["correct"] &= bool(last["correct"]) and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
