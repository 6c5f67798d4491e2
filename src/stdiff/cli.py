"""Command-line surface: adjacency building, synthetic data, training,
evaluation, prediction export, and gradient checking.

Every flag can be preset through an environment variable with the
``STDIFF_`` prefix (e.g. ``STDIFF_SEED=7``).  Exit codes: 0 ok, 1
internal/numeric failure, 2 input or usage error.  Each command writes a
run manifest (resolved configuration, seed, content hashes of inputs,
output paths, the numpy version, the BLAS thread variables as set and the
glibc heap policy ``autodiff`` set) before any long computation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import HEAP_POLICY, Tape, grad_check
from .checkpoint import restore_params
from .data import (SyntheticSpec, generate_synthetic, load_speed_csv,
                   make_windows, save_speed_csv)
from .errors import ArgumentError, DomainError, FormatError, StdiffError
from .graph import (build_gaussian_adjacency, load_adjacency, load_distance_csv, open_text,
                    save_adjacency)
from .metrics import EVAL_BATCH, evaluate, evaluate_historical_average, horizon_minutes
from .model import ABLATIONS, IstdGcnModel, ModelConfig, forward
from .training import (TrainConfig, compute_norm_stats, mae_l2_loss, predict_windows,
                       split_dataset, train, zscore)

ENV_PREFIX = "STDIFF_"


def _env(name: str, default):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), default)


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# the BLAS thread count changes both the speed and the bits of a run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(out_dir: Path, command: str, resolved: dict, inputs: list,
                   outputs: list) -> Path:
    manifest = {
        "tool": f"stdiff {__version__}",
        "command": command,
        "config": resolved,
        "inputs": {str(p): _hash_file(p) for p in inputs if Path(p).is_file()},
        "outputs": [str(p) for p in outputs],
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "malloc": HEAP_POLICY,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _read_json_config(cls, path, what: str):
    """``cls.from_json`` of the file at ``path``, or ``cls()`` when there is none.

    Any error reading or checking the file is a ``FormatError`` naming it.
    """
    if path is None:
        return cls()
    try:
        return cls.from_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, ArgumentError) as exc:
        raise FormatError(f"bad {what} {path}: {exc}") from None


# -- commands ----------------------------------------------------------


def cmd_build_adj(args) -> int:
    records = load_distance_csv(args.distances)
    with open_text(args.ids) as fh:
        ids = fh.read().split()
    graph = build_gaussian_adjacency(records, ids, epsilon=args.epsilon,
                                     weight_quantile=args.quantile)
    out = Path(args.out)
    write_manifest(out.parent, "build-adj",
                   {"epsilon": args.epsilon, "quantile": args.quantile, "ids": len(ids)},
                   [args.distances, args.ids],
                   [str(out) + ".csv", str(out) + ".json"])
    save_adjacency(graph, out)
    print(f"wrote {out}.csv ({graph.adjacency.nnz} edges, n={graph.n})")
    return 0


def cmd_synth(args) -> int:
    spec = _read_json_config(SyntheticSpec, args.spec, "synthetic spec")
    graph, series = generate_synthetic(spec)
    out = Path(args.out)
    write_manifest(out.parent, "synth", asdict(spec), [args.spec] if args.spec else [],
                   [f"{out}_adj.csv", f"{out}_adj.json", f"{out}_speed.csv"])
    save_adjacency(graph, Path(f"{out}_adj"))
    save_speed_csv(series, f"{out}_speed.csv")
    print(f"wrote {out}_speed.csv ({len(series)} snapshots, n={graph.n})")
    return 0


def _inputs(args, config_path) -> list:
    """The files every training-data command reads: speed CSV, both adjacency files, config."""
    return ([args.data, f"{args.adj}.csv", f"{args.adj}.json"]
            + ([config_path] if config_path else []))


def _load_dataset(args, cfg: ModelConfig, graph=None):
    """Graph, series, split windows and normalization of ``args``' files.

    ``graph`` is the graph already loaded from ``args.adj``, when there is one.
    """
    if graph is None:
        graph = load_adjacency(Path(args.adj))
    series = load_speed_csv(args.data, graph=graph)
    windows = make_windows(series, cfg.T, cfg.H)
    train_w, val_w, test_w = split_dataset(windows)
    # the training windows' readings, each row counted once per window that holds it
    rows = np.arange(len(train_w) + cfg.T - 1)
    held = np.minimum(rows, len(train_w) - 1) - np.maximum(rows - cfg.T + 1, 0) + 1
    try:
        stats = compute_norm_stats(series.values[:len(rows)], held)
    except DomainError as exc:
        raise FormatError(f"{args.data}: training range: {exc}") from None
    return graph, series, (train_w, val_w, test_w), stats


def cmd_train(args) -> int:
    cfg = _read_json_config(ModelConfig, args.config, "model config")
    if args.ablation is not None:
        cfg = ModelConfig(**{**asdict(cfg), "ablation": args.ablation})
    tcfg = TrainConfig(
        learning_rate=args.lr, l2_lambda=args.l2_lambda, epochs=args.epochs,
        batch_size=args.batch_size, early_stop_patience=args.patience,
        seed=args.seed,
    )
    graph, _series, (train_w, val_w, _test_w), stats = _load_dataset(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json() + "\n", encoding="utf-8")
    write_manifest(out, "train",
                   {"model": asdict(cfg), "training": asdict(tcfg),
                    "norm_mean": stats.mean, "norm_std": stats.std},
                   _inputs(args, args.config),
                   [str(out / "best.stdf"), str(out / "log.csv")])
    model = IstdGcnModel(cfg, graph, seed=args.seed)
    try:
        report = train(model, train_w, val_w, stats, tcfg,
                       log_path=out / "log.csv", checkpoint_path=out / "best.stdf")
    except DomainError as exc:  # validation metrics over a range with no readings
        raise FormatError(f"{args.data}: validation range: {exc}") from None
    print(f"best epoch {report.best_epoch}: val MAE {report.best_val_mae:.4f}"
          + (" (early stop)" if report.stopped_early else ""))
    return 0


def _checkpoint_config(args) -> str:
    """The model config a checkpoint is read with: --config, or config.json beside it."""
    return args.config or str(Path(args.checkpoint).parent / "config.json")


def _restore_model(args):
    cfg = _read_json_config(ModelConfig, _checkpoint_config(args), "model config")
    graph = load_adjacency(Path(args.adj))
    model = IstdGcnModel(cfg, graph, seed=0)
    restore_params(model.params(), args.checkpoint)
    return cfg, graph, model


def _restored_inputs(args) -> list:
    """Every file ``eval`` and ``predict`` read: train's inputs plus the checkpoint."""
    return _inputs(args, _checkpoint_config(args)) + [args.checkpoint]


def cmd_eval(args) -> int:
    cfg, graph, model = _restore_model(args)
    _graph, series, (train_w, _val_w, test_w), stats = _load_dataset(args, cfg, graph)
    out = Path(args.out)
    write_manifest(out.parent, "eval", {"model": asdict(cfg)}, _restored_inputs(args),
                   [str(out)])
    try:
        report = evaluate(model, test_w, stats, interval=series.interval)
        n_train_steps = train_w[-1].start_index + cfg.T
        train_series = type(series)(series.timestamps[:n_train_steps],
                                    series.values[:n_train_steps], series.ids)
        ha_report = evaluate_historical_average(train_series, test_w, interval=series.interval)
    except DomainError as exc:  # metrics over a range with no readings
        raise FormatError(f"{args.data}: test range: {exc}") from None
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write("model,horizon_min,mae,rmse,mape_pct,n_samples\n")
        for label, rep in (("istd-gcn", report), ("ha", ha_report)):
            for row in rep.rows():
                fh.write(f"{label},{row.horizon_min},{row.mae!r},{row.rmse!r},"
                         f"{row.mape!r},{row.n_samples}\n")
    for row in report.per_horizon:
        print(f"{row.horizon_min:>3} min: MAE {row.mae:.4f}  RMSE {row.rmse:.4f}  "
              f"MAPE {row.mape:.2f}%")
    return 0


def cmd_predict(args) -> int:
    cfg, graph, model = _restore_model(args)
    _graph, series, (_train_w, _val_w, test_w), stats = _load_dataset(args, cfg, graph)
    out = Path(args.out)
    write_manifest(out.parent, "predict", {"model": asdict(cfg)}, _restored_inputs(args),
                   [str(out)])
    minutes = [horizon_minutes(h + 1, series.interval) for h in range(cfg.H)]
    # batches stream into a temporary file that replaces --out only once all
    # are written, so a failed run leaves no partial CSV behind
    tmp = out.with_name(out.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write("timestamp,vertex_id,horizon_min,pred,actual\n")
            for chunk, preds in predict_windows(model, test_w, stats, EVAL_BATCH):
                for w, pred in zip(chunk, preds):
                    for h in range(cfg.H):
                        ts = int(w.target_timestamps[h])
                        for v, vid in enumerate(series.ids):
                            fh.write(f"{ts},{vid},{minutes[h]},"
                                     f"{float(pred[h, v, 0])!r},"
                                     f"{float(w.target[h, v, 0])!r}\n")
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote {out} ({len(test_w)} windows)")
    return 0


def cmd_gradcheck(args) -> int:
    if not args.tol >= 0.0:  # also rejects NaN
        raise ArgumentError(f"tolerance {args.tol!r} is negative or NaN")
    cfg = (_read_json_config(ModelConfig, args.config, "model config") if args.config
           else ModelConfig(K=2, m=2, s=2, d=4, T=6, H=2))
    spec = SyntheticSpec(n=5, steps=cfg.T + cfg.H + 2, seed=args.seed, noise_std=1.0)
    graph, series = generate_synthetic(spec)
    model = IstdGcnModel(cfg, graph, seed=args.seed)
    window = make_windows(series, cfg.T, cfg.H)[0]
    stats = compute_norm_stats(window.history)
    hist = zscore(window.history, stats)
    targ = zscore(window.target, stats)
    params = model.params()

    def loss_fn(tape: Tape):
        pred = forward(tape, model, hist)
        return mae_l2_loss(tape, pred, targ, params, 1e-4)

    reports = grad_check(loss_fn, params, tol=args.tol)
    failures = 0
    for rep in reports:
        status = "ok" if rep.passed else "FAIL"
        print(f"{status:4s} {rep.name:20s} max rel err {rep.max_rel_err:.3e} "
              f"({rep.entries_checked} entries)")
        failures += 0 if rep.passed else 1
    if failures:
        print(f"{failures} parameter(s) failed at tol {args.tol}")
        return 1
    print(f"all {len(reports)} parameters pass at tol {args.tol}")
    return 0


# -- argument parsing --------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stdiff",
                                     description="spatial-temporal diffusion forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-adj", help="Gaussian-kernel adjacency from distances")
    p.add_argument("--distances", required=True)
    p.add_argument("--ids", required=True)
    p.add_argument("--out", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--epsilon", type=float, default=_env("epsilon", None))
    group.add_argument("--quantile", type=float, default=_env("quantile", 0.1))
    p.set_defaults(fn=cmd_build_adj)

    p = sub.add_parser("synth", help="generate synthetic graph + speed series")
    p.add_argument("--spec", default=_env("spec", None))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train on a speed CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--adj", required=True)
    p.add_argument("--config", default=_env("config", None))
    p.add_argument("--out", required=True)
    p.add_argument("--ablation", choices=ABLATIONS, default=_env("ablation", None))
    p.add_argument("--epochs", type=int, default=_env("epochs", 100))
    p.add_argument("--batch-size", type=int, default=_env("batch_size", 32))
    p.add_argument("--lr", type=float, default=_env("lr", 5e-4))
    p.add_argument("--l2-lambda", type=float, default=_env("l2_lambda", 1e-4))
    p.add_argument("--patience", type=int, default=_env("patience", 20))
    p.add_argument("--seed", type=int, default=_env("seed", 0))
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adj", required=True)
    p.add_argument("--config", default=_env("config", None))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="long-form prediction CSV for plotting")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--adj", required=True)
    p.add_argument("--config", default=_env("config", None))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p.add_argument("--config", default=_env("config", None))
    p.add_argument("--tol", type=float, default=_env("tol", 1e-4))
    p.add_argument("--seed", type=int, default=_env("seed", 0))
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
