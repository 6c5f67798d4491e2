"""Evaluation metrics, horizon-sliced reporting, and the historical-average
baseline.

MAE and MAPE follow their standard definitions over unmasked entries; RMSE
is the conventional sqrt-of-mean-squared-error.  MAPE is reported in
percent with a small denominator shift, and zero-target entries (the
datasets' missing-data convention) are excluded by the default mask.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DEFAULT_INTERVAL
from .errors import ArgumentError, DomainError, ShapeError
from .training import NormStats, predict_batch

DEFAULT_HORIZONS = (3, 6, 12)  # snapshots: 15 / 30 / 60 minutes at 5-min interval


def horizon_minutes(steps: int, interval: int) -> int | float:
    """Lead time of the ``steps``-th forecast snapshot, in minutes.

    Whole minutes stay an int, so the default 300 s labels read 15, 30, 60.
    """
    minutes = steps * interval / 60
    return int(minutes) if minutes.is_integer() else minutes


def _prep(pred, target, mask):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"metric shape mismatch {pred.shape} vs {target.shape}")
    if mask is None:
        mask = target != 0.0
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != target.shape:
            raise ShapeError("mask shape mismatch")
    if not mask.any():
        raise DomainError("empty mask: metric undefined")
    return pred[mask], target[mask]


def mae(pred, target, mask=None) -> float:
    p, t = _prep(pred, target, mask)
    return float(np.abs(p - t).mean())


def rmse(pred, target, mask=None) -> float:
    p, t = _prep(pred, target, mask)
    return float(np.sqrt(((p - t) ** 2).mean()))


def mape(pred, target, mask=None, delta: float = 1e-5) -> float:
    """Mean absolute percentage error, in percent."""
    if delta <= 0:
        raise ArgumentError("mape delta must be positive")
    p, t = _prep(pred, target, mask)
    return float((np.abs(p - t) / (t + delta)).mean() * 100.0)


@dataclass(frozen=True)
class HorizonMetrics:
    horizon_min: int | float
    mae: float
    rmse: float
    mape: float
    n_samples: int


@dataclass(frozen=True)
class EvalReport:
    per_horizon: tuple
    aggregate: HorizonMetrics

    def rows(self):
        return list(self.per_horizon) + [self.aggregate]


def metrics_by_horizon(pred, target, *, horizons=DEFAULT_HORIZONS, mask=None,
                       interval: int = DEFAULT_INTERVAL) -> EvalReport:
    """Slice (B, H, n, ...) predictions at each horizon plus the aggregate.

    The metric at horizon h covers the single h-th predicted snapshot,
    matching per-column reporting in the usual comparison tables.  Rows are
    labelled in minutes from the series' snapshot ``interval`` (seconds).
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim < 3:
        raise ShapeError("expected matching (B, H, n, ...) arrays")
    h_avail = pred.shape[1]
    if mask is None:
        mask = target != 0.0
    rows = []
    for h in horizons:
        if h > h_avail:
            continue
        idx = h - 1
        rows.append(HorizonMetrics(
            horizon_min=horizon_minutes(h, interval),
            mae=mae(pred[:, idx], target[:, idx], mask[:, idx]),
            rmse=rmse(pred[:, idx], target[:, idx], mask[:, idx]),
            mape=mape(pred[:, idx], target[:, idx], mask[:, idx]),
            n_samples=pred.shape[0],
        ))
    aggregate = HorizonMetrics(
        horizon_min=horizon_minutes(h_avail, interval),
        mae=mae(pred, target, mask),
        rmse=rmse(pred, target, mask),
        mape=mape(pred, target, mask),
        n_samples=pred.shape[0],
    )
    return EvalReport(per_horizon=tuple(rows), aggregate=aggregate)


def historical_average_baseline(
    train_series,
    eval_windows: list,
    *,
    mode: str = "weekly",
) -> np.ndarray:
    """Constant-per-slot predictions from the training stream.

    ``weekly`` averages each vertex at the same time-of-week slot; ``global``
    uses the per-vertex mean.  Predictions are constant across horizons.
    Falls back to global mode with a warning when the stream is shorter than
    one weekly cycle.
    """
    if mode not in ("weekly", "global"):
        raise ArgumentError(f"unknown baseline mode {mode!r}")
    values = train_series.values
    interval = train_series.interval
    week_slots = 7 * 86400 // interval
    if mode == "weekly" and values.shape[0] < week_slots:
        warnings.warn("training stream shorter than one week; using global mode")
        mode = "global"
    obs = np.where(values != 0.0, values, np.nan)
    n = values.shape[1]
    if mode == "global":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            level = np.nanmean(obs, axis=0)
        level = np.nan_to_num(level)
        slot_mean = None
    else:
        slots = (train_series.timestamps // interval) % week_slots
        slot_mean = np.full((week_slots, n), np.nan)
        for slot in range(week_slots):
            rows = obs[slots == slot]
            if rows.size:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    slot_mean[slot] = np.nanmean(rows, axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            level = np.nanmean(obs, axis=0)
        level = np.nan_to_num(level)
        slot_mean = np.where(np.isfinite(slot_mean), slot_mean, level)
    preds = []
    for w in eval_windows:
        h_len = w.target.shape[0]
        if mode == "global":
            block = np.broadcast_to(level, (h_len, n)).copy()
        else:
            t0 = w.target_timestamps[0] if w.target_timestamps is not None else 0
            slot0 = (t0 // interval) % week_slots
            block = np.stack([slot_mean[(slot0 + h) % week_slots] for h in range(h_len)])
        preds.append(block[..., None])
    return np.stack(preds)


def evaluate(
    model,
    test_windows: list,
    stats: NormStats,
    *,
    horizons=DEFAULT_HORIZONS,
    batch_size: int = 64,
    interval: int = DEFAULT_INTERVAL,
) -> EvalReport:
    """Run the model over the test windows and report denormalized metrics.

    ``interval`` is the series' snapshot interval in seconds; it labels the rows.
    """
    if not test_windows:
        raise ArgumentError("empty test set")
    preds, targs = [], []
    for lo in range(0, len(test_windows), batch_size):
        chunk = test_windows[lo:lo + batch_size]
        hist = np.stack([w.history for w in chunk])
        preds.append(predict_batch(model, hist, stats))
        targs.append(np.stack([w.target for w in chunk]))
    return metrics_by_horizon(np.concatenate(preds), np.concatenate(targs),
                              horizons=horizons, interval=interval)

