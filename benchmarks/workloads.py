"""The benchmark's workloads: input generator, set-up, measured drivers and
correctness checks.

Each workload runs in its own process, driven from one thread.  Inputs come
only from the workload seed; the program sees only the generated inputs.

Why these three (see also ``BENCHMARK.json``):

* ``train-graph`` trains on a 100-sensor road-like graph with K=3, s=4: the
  graph layers dominate (spmm is >90% of a step at the seed commit), the hop
  powers fill in, s-1 of every s per-channel diffusions repeat work, and
  ``build_hstg``'s Python-loop sparse product is most of the set-up.
* ``train-wide`` trains on 12 sensors with K=1, s=1, d=128: it bypasses the
  diffusion dedupe (s=1), hop fill-in (K=1) and graph build (tiny n), so
  changes to those should leave it flat; feature-axis GEMMs, layer norm,
  temporal compression, the decoder and the optimizer carry more of the work.
* ``eval-long`` is the ``stdiff eval`` path on files: 4 weeks of 300 s
  readings for 100 sensors and a K=1 checkpoint.  Tapes are recorded but never
  replayed, and set-up and memory scale with series length, not model size.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stdiff import autodiff, checkpoint, cli, data, graph, metrics, model, training

from hostspeed import NOMINAL_S, adjusted
from reference import RTOL, max_rel_error, reference_forward
from tracing import Probe

INTERVAL = 300                  # seconds between snapshots
DAY = 86400 // INTERVAL         # snapshots per day
START_EPOCH = 1_577_836_800     # 2020-01-01T00:00:00Z
OUTAGE = 6 * 3600 // INTERVAL   # one sensor's multi-hour outage, in snapshots
OUTAGE_AT = 0.3                 # ...starting this far into the series: in the training span
MISSING_SHARE = 0.03            # stored-0 readings, including the outage
MODEL_SEED = 0                  # parameter init; fixed, so a seed changes only the inputs
SETUP_MIN_REPEATS = 2           # set-up runs at least this often before and after the
SETUP_SECONDS = 1.5             # measurement, and until this much time is spent at each;
                                # the median of all is reported


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                   # "train": stdiff.training.train; "eval": the stdiff eval path
    n: int                      # sensors
    neighbours: int             # k of the k-nearest-neighbour graph, before symmetrising
    K: int
    s: int
    d: int
    m: int
    batch: int                  # train: TrainConfig.batch_size; eval: stdiff eval's own (64)
    snapshots: int              # series length at INTERVAL
    T: int = 12
    H: int = 12
    train_windows: int = 0      # windows in the fixed first epoch (train mode)
    val_windows: int = 0        # fixed validation slice (train mode)

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(K=self.K, m=self.m, s=self.s, d=self.d, T=self.T, H=self.H)


WORKLOADS = {w.name: w for w in (
    Workload("train-graph", "train", n=100, neighbours=8, K=3, s=4, d=8, m=2, batch=2,
             snapshots=2 * DAY, train_windows=12, val_windows=4),
    Workload("train-wide", "train", n=12, neighbours=6, K=1, s=1, d=128, m=4, batch=32,
             snapshots=2 * DAY, train_windows=128, val_windows=32),
    Workload("eval-long", "eval", n=100, neighbours=8, K=1, s=1, d=8, m=2, batch=64,
             snapshots=28 * DAY),
)}

# End-to-end metrics with a regression bound (name, unit).  Every workload
# reports all of them.  The tail, throughput and pass time are printed too but
# carry no bound: on a shared host they add run-to-run noise and no
# information the median step or batch time does not already give.
END_TO_END = (
    ("setup_s", "s"),
    ("step_s.p50", "s"),
    ("mae", "speed"),
    ("peak_rss_mb", "MB"),
)
# Names of the printed metrics per mode.
ALIASES = {
    "train": {"step": "train_step_s", "windows_per_s": "train_windows_per_s",
              "mae": "val_mae", "pass_s": "epoch_s"},
    "eval": {"step": "predict_batch_s", "windows_per_s": "predict_windows_per_s",
             "mae": "test_mae", "pass_s": "eval_s"},
}


# -- inputs ------------------------------------------------------------


@dataclass
class Inputs:
    ids: list
    records: list               # symmetric k-NN stdiff.graph.DistanceRecord list
    timestamps: np.ndarray
    values: np.ndarray          # (snapshots, n) speeds, 0 = missing
    files: dict = field(default_factory=dict)  # eval mode: paths written to disk


def _road_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sensors about every 0.5 km along parallel roads 3 km apart (km).

    Nearest neighbours then lie along a sensor's own road, and the graph's
    size and hop fill-in barely change from seed to seed, so the cost of a
    workload does not depend on which seed drew its inputs.
    """
    roads = max(2, round(math.sqrt(n) / 2.5))
    per_road = math.ceil(n / roads)
    i = np.arange(n)
    along = (i % per_road) * 0.5 + rng.uniform(-0.1, 0.1, size=n)
    across = (i // per_road) * 3.0 + rng.normal(0.0, 0.05, size=n)
    return np.stack([along, across], axis=1)


def _knn_pairs(points: np.ndarray, k: int) -> tuple[list, np.ndarray]:
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    nearest = np.argsort(dist + np.diag(np.full(len(points), np.inf)), axis=1)[:, :k]
    pairs = {(i, int(j)) for i in range(len(points)) for j in nearest[i]}
    return sorted(pairs | {(j, i) for i, j in pairs}), dist


def _speeds(n: int, snapshots: int, pairs: list, dist: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Diffusion over the graph plus a daily cycle, rounded like sensor feeds.

    x_{t+1} = a P x_t + (1 - a) daily(t+1) + noise, with P the self-looped
    random-walk matrix of the Gaussian-kernel graph.  One sensor has a
    multi-hour outage; other readings drop out at random, to ``MISSING_SHARE``
    stored zeros in all.
    """
    rows, cols = np.array(pairs).T
    d = dist[rows, cols]
    w = np.zeros((n, n))
    w[rows, cols] = np.exp(-(d ** 2) / d.std() ** 2)
    w += np.eye(n)
    p = w / w.sum(axis=1, keepdims=True)
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    level = 57.0 + 5.0 * np.cos(3.0 * u)
    amp = 11.0 + 2.0 * np.sin(2.0 * u)
    phase = 0.3 * np.sin(u)
    t = np.arange(snapshots)[:, None]
    daily = level + amp * np.sin(2.0 * math.pi * t / DAY + phase)
    noise = rng.normal(0.0, 1.5, size=(snapshots, n))
    alpha = 0.6
    values = np.empty((snapshots, n))
    x = daily[0]
    for step in range(snapshots):
        x = alpha * (p @ x) + (1.0 - alpha) * daily[step] + noise[step]
        values[step] = x
    values = np.round(np.maximum(values, 1.0), 1)
    start = int(snapshots * OUTAGE_AT)
    values[start:start + OUTAGE, rng.integers(n)] = 0.0
    dropout = max(0.0, MISSING_SHARE - OUTAGE / values.size)
    values[rng.random(values.shape) < dropout] = 0.0
    return values


def generate(wl: Workload, seed: int, work_dir: Path) -> Inputs:
    """All inputs of one run, from the seed alone; eval mode also writes files."""
    rng = np.random.default_rng(seed)
    points = _road_points(wl.n, rng)
    ids = [f"s{i:03d}" for i in range(wl.n)]
    pairs, dist = _knn_pairs(points, wl.neighbours)
    records = [graph.DistanceRecord(ids[i], ids[j], float(dist[i, j])) for i, j in pairs]
    values = _speeds(wl.n, wl.snapshots, pairs, dist, rng)
    timestamps = START_EPOCH + INTERVAL * np.arange(wl.snapshots, dtype=np.int64)
    inputs = Inputs(ids, records, timestamps, values)
    if wl.mode == "eval":
        inputs.files = _write_eval_files(wl, inputs, work_dir)
    return inputs


def _write_eval_files(wl: Workload, inputs: Inputs, work_dir: Path) -> dict:
    files = {"speed": work_dir / "speed.csv", "adj": work_dir / "adj",
             "config": work_dir / "config.json", "checkpoint": work_dir / "model.stdf",
             "report": work_dir / "cli" / "report.csv"}
    files["report"].parent.mkdir(parents=True, exist_ok=True)
    with open(files["speed"], "w", encoding="utf-8") as fh:
        fh.write(",".join(["timestamp"] + inputs.ids) + "\n")
        for ts, row in zip(inputs.timestamps, inputs.values):
            fh.write(f"{ts}," + ",".join(f"{v:.1f}" for v in row) + "\n")
    g = graph.build_gaussian_adjacency(inputs.records, inputs.ids, weight_quantile=0.0)
    graph.save_adjacency(g, files["adj"])
    cfg = wl.model_config()
    files["config"].write_text(cfg.to_json() + "\n", encoding="utf-8")
    checkpoint.save_params(model.IstdGcnModel(cfg, g, seed=MODEL_SEED).params(),
                           files["checkpoint"])
    return files


def eval_argv(files: dict) -> list[str]:
    """The ``stdiff eval`` command line for the generated files."""
    return ["eval", "--checkpoint", str(files["checkpoint"]), "--data", str(files["speed"]),
            "--adj", str(files["adj"]), "--config", str(files["config"]),
            "--out", str(files["report"])]


# -- set-up ------------------------------------------------------------


@dataclass
class State:
    graph: object
    series: object
    train_w: list
    val_w: list
    test_w: list
    stats: object
    model: object


def _pick(windows: list, lo: int, hi: int, count: int) -> list:
    stride = max(1, (hi - lo) // count)
    return windows[lo:hi:stride][:count]


def setup(wl: Workload, inputs: Inputs) -> State:
    """Generated inputs to a model that has run a forward on one window.

    That forward builds every lazily built structure (the block graphs).
    """
    if wl.mode == "train":
        g = graph.build_gaussian_adjacency(inputs.records, inputs.ids, weight_quantile=0.0)
        series = data.SpeedSeries(inputs.timestamps, inputs.values, tuple(inputs.ids))
        windows = data.make_windows(series, wl.T, wl.H)
        n_train, n_val = int(len(windows) * 0.6), int(len(windows) * 0.2)
        train_w = _pick(windows, 0, n_train, wl.train_windows)
        val_w = _pick(windows, n_train, n_train + n_val, wl.val_windows)
        test_w = []
        stats = training.compute_norm_stats(np.stack([w.history for w in train_w]))
        net = model.IstdGcnModel(wl.model_config(), g, seed=MODEL_SEED)
    else:
        # the set-up functions `stdiff eval` calls, on its own parsed arguments
        args = cli.build_parser().parse_args(eval_argv(inputs.files))
        cfg, g, net = cli._restore_model(args)
        _g, series, (train_w, val_w, test_w), stats = cli._load_dataset(args, cfg)
    first = (test_w or train_w)[0].history
    model.forward(autodiff.Tape(), net, training.zscore(first, stats))
    return State(g, series, train_w, val_w, test_w, stats, net)


def untrained_val_mae(st: State) -> float:
    """``TrainReport.best_val_mae``'s masked MAE, for the model before any training."""
    hist = np.stack([w.history for w in st.val_w])
    targ = np.stack([w.target for w in st.val_w])
    pred = training.predict_batch(st.model, hist, st.stats)
    return metrics.mae(pred, targ, targ != 0.0)


# -- measured drivers --------------------------------------------------


def train_epoch(wl: Workload, st: State, probe: Probe, seed: int):
    """One epoch of ``stdiff.training.train`` on the fixed training and validation sets."""
    cfg = training.TrainConfig(epochs=1, batch_size=wl.batch, seed=seed)
    probe.begin_train()
    try:
        return training.train(st.model, st.train_w, st.val_w, st.stats, cfg)
    finally:
        probe.end_train()


def eval_pass(st: State):
    """Forward batches, per-horizon metrics and the HA baseline, as ``stdiff eval``."""
    report = metrics.evaluate(st.model, st.test_w, st.stats)
    n_train = st.train_w[-1].start_index + st.model.config.T
    series = st.series
    train_series = data.SpeedSeries(series.timestamps[:n_train], series.values[:n_train],
                                    series.ids)
    ha_pred = metrics.historical_average_baseline(train_series, st.test_w)
    ha_report = metrics.metrics_by_horizon(ha_pred, np.stack([w.target for w in st.test_w]))
    return report, ha_report


def measure(wl: Workload, st: State, probe: Probe, seed: int, seconds: float):
    """Repeat the workload's pass (a training epoch or an eval) while the next fits.

    At least one pass runs.  Training keeps updating the same model; every
    eval pass is identical.  Returns the pass times and the first pass's result.
    """
    start = time.perf_counter()
    pass_s, first = [], None
    while not pass_s or time.perf_counter() - start + pass_s[-1] <= seconds:
        begin = time.perf_counter()
        out = train_epoch(wl, st, probe, seed) if wl.mode == "train" else eval_pass(st)
        pass_s.append(time.perf_counter() - begin)
        first = first if first is not None else out
    return pass_s, first


# -- correctness checks ------------------------------------------------


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def check_reference(st: State, params: dict, checks: Checks) -> float:
    """Compare the program's predictions with the dense reference; return the worst error."""
    pool = st.test_w or st.val_w
    worst = 0.0
    for w in (pool[0], pool[len(pool) // 2], pool[-1]):
        pred = training.predict_batch(st.model, w.history[None], st.stats)[0]
        z = (w.history - st.stats.mean) / st.stats.std
        ref = reference_forward(params, st.graph, st.model.config, z) * st.stats.std \
            + st.stats.mean
        err = max_rel_error(pred, ref)
        worst = max(worst, err)
        checks.add(bool(np.all(np.isfinite(pred))) and err <= RTOL,
                   f"window {w.start_index}: prediction differs from the dense reference "
                   f"by {err:.3e} (relative tolerance {RTOL:.0e})")
    return worst


def check_cli_eval(inputs: Inputs, reports, checks: Checks) -> None:
    """The in-process ``stdiff eval`` report must equal the benchmark's metrics."""
    out = inputs.files["report"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(eval_argv(inputs.files))
    expected = [[label, str(row.horizon_min), row.mae, row.rmse, row.mape, str(row.n_samples)]
                for label, rep in zip(("istd-gcn", "ha"), reports) for row in rep.rows()]
    got = []
    if code == 0:
        with open(out, newline="", encoding="utf-8") as fh:
            got = [[r[0], r[1], float(r[2]), float(r[3]), float(r[4]), r[5]]
                   for r in list(csv.reader(fh))[1:]]
    checks.add(code == 0 and got == expected,
               f"stdiff eval exited {code}; its report differs from the benchmark's metrics")


# -- one run -----------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict               # name -> (value, unit)
    lines: list                 # human-readable report
    trace: dict | None = None   # traced runs: layer table and spans


def median(values) -> float:
    return float(np.median(values))


def tail(values) -> tuple[int, float]:
    """Highest percentile with at least 10 samples beyond it, never below p50."""
    pct = max(50, min(99, int(100 * (len(values) - 10) / len(values))))
    return pct, float(np.percentile(values, pct))


def run(wl: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> Result:
    """Generate inputs, set up, measure for ``seconds``, check the outputs."""
    inputs = generate(wl, seed, work_dir)
    checks = Checks()
    lines: list[str] = []
    try:
        if trace:
            out = _traced(wl, inputs, seed, seconds, work_dir, checks, lines)
        else:
            out = _untraced(wl, inputs, seed, seconds, work_dir, checks, lines)
    except Exception:  # a program failure ends the run but is still reported
        traceback.print_exc(file=sys.stderr)
        checks.add(False, "the program raised during the run")
        out = ({}, None)
    lines += [f"{wl.name} check failed: {note}" for note in checks.notes]
    metric_values, trace_info = out
    return Result(checks.failed == 0, checks.attempted, checks.failed, metric_values,
                  lines, trace_info)


def time_setups(wl: Workload, inputs: Inputs, host) -> tuple[list, list, State]:
    """Repeat the set-up, timing the host reference after each.

    Returns the set-up wall times, the reference times and the last state.
    """
    wall: list[float] = []
    host_s: list[float] = []
    while len(wall) < SETUP_MIN_REPEATS or sum(wall) < SETUP_SECONDS:
        start = time.perf_counter()
        st = setup(wl, inputs)
        wall.append(time.perf_counter() - start)
        host_s.append(host.time())
    return wall, host_s, st


def _untraced(wl, inputs, seed, seconds, work_dir, checks, lines):
    with Probe(trace=False) as probe:
        setup_wall, setup_host, st = time_setups(wl, inputs, probe.host)
        untrained = None
        if wl.mode == "train":
            untrained = untrained_val_mae(st)
            pass_s, first = measure(wl, st, probe, seed, seconds)
        else:
            # half the time for the benchmark's evals, half for the in-process
            # stdiff eval: its forward batches are the same work, so samples too
            pass_s, first = measure(wl, st, probe, seed, seconds / 2)
            check_cli_eval(inputs, first, checks)
        # set-up again at the other end of the run, so its median spans the run
        more_wall, more_host, _ = time_setups(wl, inputs, probe.host)
    setup_wall += more_wall
    setup_host += more_host
    if wl.mode == "train":
        quality = first.best_val_mae
        samples, sample_host = probe.step_s, probe.step_host_s
        busy_s, windows = sum(probe.step_s), wl.batch * len(probe.step_s)
    else:
        quality = first[0].aggregate.mae
        full = max(probe.batch_n)  # the last batch of a pass is smaller; leave it out
        keep = [i for i, n in enumerate(probe.batch_n) if n == full]
        samples = [probe.batch_s[i] for i in keep]
        sample_host = [probe.batch_host_s[i] for i in keep]
        busy_s, windows = sum(probe.batch_s), sum(probe.batch_n)
    checks.attempted += len(probe.step_s) + len(probe.batch_s)
    checks.failed += probe.bad_batches
    alias = ALIASES[wl.mode]
    checks.add(bool(np.isfinite(quality)), f"non-finite {alias['mae']}")
    params = _params_by_checkpoint_name(wl, st, inputs, work_dir)
    worst = check_reference(st, params, checks)
    values = {"setup_s": median(adjusted(setup_wall, setup_host)),
              "step_s.p50": median(adjusted(samples, sample_host)), "mae": float(quality)}
    pct, tail_s = tail(samples)
    step = alias["step"]
    printed = (
        ("setup_s", values["setup_s"], "s",
         f"median of {len(setup_wall)}, at nominal host speed; wall {median(setup_wall):.4g} s"),
        (f"{step}.p50", values["step_s.p50"], "s",
         f"n={len(samples)}, at nominal host speed; wall {median(samples):.4g} s"),
        (f"{step}.tail", tail_s, "s", f"wall p{pct}, n={len(samples)}"),
        (alias["windows_per_s"], windows / busy_s, "1/s", f"{windows} windows"),
        (alias["mae"], values["mae"], "speed", ""),
        (alias["pass_s"], sum(pass_s) / len(pass_s), "s", f"mean of {len(pass_s)}"),
    )
    for name, value, unit, note in printed:
        lines.append(f"{wl.name} {name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    if untrained is not None:
        lines.append(f"{wl.name} val_mae before training = {untrained:.6g} speed "
                     f"(the first epoch lowers it by {1 - quality / untrained:.1%})")
    host_s = setup_host + sample_host
    lines.append(f"{wl.name} host reference = {median(host_s):.4g} s "
                 f"(nominal {NOMINAL_S} s; median of {len(host_s)})")
    lines.append(f"{wl.name} reference check: worst relative error {worst:.2e} "
                 f"(tolerance {RTOL:.0e})")
    units = dict(END_TO_END)
    return {name: (value, units[name]) for name, value in values.items()}, None


def _traced(wl, inputs, seed, seconds, work_dir, checks, lines):
    kind = "step" if wl.mode == "train" else "batch"
    with Probe(trace=True) as traced:
        traced.open_unit("setup")
        st = setup(wl, inputs)
        traced.close_unit()
        if wl.mode == "train":
            train_epoch(wl, st, traced, seed)
        else:
            check_cli_eval(inputs, eval_pass(st), checks)
        params = _params_by_checkpoint_name(wl, st, inputs, work_dir)
    checks.attempted += len(traced.step_s) + len(traced.batch_s)
    checks.failed += traced.bad_batches
    check_reference(st, params, checks)
    with Probe(trace=False) as plain:
        measure(wl, st, plain, seed, seconds / 2)
    untraced = plain.step_s if wl.mode == "train" else plain.batch_s
    checks.attempted += len(plain.step_s) + len(plain.batch_s)
    checks.failed += plain.bad_batches
    layer = traced.layer_metrics(kind, median(untraced))
    table = traced.layer_table(kind)
    lines += format_table(wl.name, table)
    for name in ("trace.overhead_share", "trace.unattributed_share"):
        if name in layer:
            lines.append(f"{wl.name} {name} = {layer[name][0]:.4f}")
    return layer, {"table": table, "spans": traced.spans}


def _params_by_checkpoint_name(wl, st, inputs, work_dir) -> dict:
    """The model's parameters as a checkpoint holds them (train mode writes one first)."""
    if wl.mode == "eval":
        return checkpoint.load_params(inputs.files["checkpoint"])
    path = work_dir / "trained.stdf"
    checkpoint.save_params(st.model.params(), path)
    return checkpoint.load_params(path)


def format_table(name: str, table: dict) -> list[str]:
    total = table["unit_s"] or 1.0
    out = [f"{name} per-layer self time over {table['units']} traced {table['unit']} units "
           f"({table['unit_s']:.3f} s):"]
    for layer, row in table["rows"].items():
        out.append(f"  {layer:42s} {row['calls']:8d} calls {row['self_s']:10.4f} s "
                   f"{100 * row['self_s'] / total:6.2f}%")
    covered = 1.0 - table["unattributed_s"] / total
    out.append(f"  {'(not in any layer span)':42s} {'':14s} {table['unattributed_s']:10.4f} s "
               f"{100 * (1 - covered):6.2f}%")
    out.append(f"{name} layer coverage = {100 * covered:.2f}% of traced {table['unit']} time")
    return out
