"""Time and size training steps, or forward-only batches, at the paper's shape.

    PYTHONPATH=src python3 scripts/paper_step.py [--steps 3] [--warmup 2] [--seed 1]
                                                 [--run-batch B]

Builds a road-like graph of 207 sensors (about every 0.5 km along 9 parallel
roads 3 km apart, 8 nearest neighbours, symmetrised, Gaussian weights with
every record kept) and the K5 s8 d256 m2 T=H=12 model, then runs Adam steps
on one random window (batch 1), with BLAS on one thread unless the
environment says otherwise.  With ``--run-batch B`` each step is instead one
forward on a non-recording tape over B consecutive windows of one random
series, the batch eval and predict make (a run, ``stdiff.model``).  Prints
one JSON line: each timed step's seconds and minor page faults, the loss
after the last training step (or the sum of the last batch's absolute
predictions) and the process's peak RSS in MB, data and graph included.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

from stdiff.autodiff import Tape  # noqa: E402
from stdiff.graph import DistanceRecord, build_gaussian_adjacency  # noqa: E402
from stdiff.model import IstdGcnModel, ModelConfig, forward  # noqa: E402
from stdiff.training import AdamState, TrainConfig, mae_l2_loss, optimizer_step  # noqa: E402

ROADS, PER_ROAD, NEIGHBOURS = 9, 23, 8
CONFIG = ModelConfig(K=5, m=2, s=8, d=256, T=12, H=12)


def road_graph(rng: np.random.Generator):
    road, along = np.divmod(np.arange(ROADS * PER_ROAD), PER_ROAD)
    points = np.stack([along * 0.5, road * 3.0], axis=1) + rng.normal(0.0, 0.05, (len(road), 2))
    dist = np.linalg.norm(points[:, None] - points[None], axis=-1)
    pairs = {tuple(sorted((i, int(j)))) for i in range(len(points))
             for j in np.argsort(dist[i])[1:NEIGHBOURS + 1]}
    ids = [f"s{i}" for i in range(len(points))]
    records = [DistanceRecord(ids[a], ids[b], float(dist[i, j]))
               for i, j in sorted(pairs) for a, b in ((i, j), (j, i))]
    return build_gaussian_adjacency(records, ids, weight_quantile=0.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--run-batch", type=int, default=0, metavar="B",
                        help="time forward-only batches of B consecutive windows instead")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    graph = road_graph(rng)
    model = IstdGcnModel(CONFIG, graph, seed=0)
    if args.run_batch:
        series = rng.standard_normal((args.run_batch + CONFIG.T - 1, graph.n, 1))
        window = np.stack([series[b:b + CONFIG.T] for b in range(args.run_batch)])
    else:
        window = rng.standard_normal((1, CONFIG.T, graph.n, 1))
    target = rng.standard_normal((1, CONFIG.H, graph.n, 1))
    params, state, train = model.params(), AdamState(), TrainConfig()
    seconds, faults = [], []
    for step in range(args.warmup + args.steps):
        start, faulted = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if args.run_batch:
            result = np.abs(forward(Tape(record=False), model, window).value).sum()
        else:
            model.zero_grads()
            tape = Tape()
            loss = mae_l2_loss(tape, forward(tape, model, window), target, params,
                               train.l2_lambda)
            tape.backward(loss)
            optimizer_step(params, state, train)
            result = loss.value
        if step >= args.warmup:
            seconds.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faulted)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    batch = f"B={args.run_batch} run, forward only" if args.run_batch else "B=1"
    print(json.dumps({"shape": f"n={graph.n} {NEIGHBOURS}-NN K{CONFIG.K} s{CONFIG.s} "
                               f"d{CONFIG.d} m{CONFIG.m} T={CONFIG.T} H={CONFIG.H} {batch}",
                      "step_s": seconds, "minor_faults": faults,
                      ("abs_prediction_sum" if args.run_batch else "loss"): float(result),
                      "peak_rss_mb": round(peak_mb, 1)}))


if __name__ == "__main__":
    main()
