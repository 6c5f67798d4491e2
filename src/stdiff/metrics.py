"""Evaluation metrics, horizon-sliced reporting, and the historical-average
baseline.

MAE, RMSE and MAPE are computed together over the same unmasked entries.
MAE and MAPE follow their standard definitions; RMSE is the conventional
sqrt-of-mean-squared-error.  MAPE is reported in percent with a small
denominator shift, and zero-target entries (the datasets' missing-data
convention) are excluded by the default mask.  The historical average
predicts each sensor's mean observed reading at the same time-of-week slot.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DEFAULT_INTERVAL
from .errors import ArgumentError, DomainError, ShapeError
from .training import NormStats, predict_windows

DEFAULT_HORIZONS = (3, 6, 12)  # snapshots: 15 / 30 / 60 minutes at 5-min interval


def horizon_minutes(steps: int, interval: int) -> int | float:
    """Lead time of the ``steps``-th forecast snapshot, in minutes.

    Whole minutes stay an int, so the default 300 s labels read 15, 30, 60.
    """
    minutes = steps * interval / 60
    return int(minutes) if minutes.is_integer() else minutes


def masked_errors(pred, target, mask=None, delta: float = 1e-5) -> tuple[float, float, float]:
    """MAE, RMSE and MAPE (percent) over the entries ``mask`` keeps.

    The default mask keeps the nonzero targets.
    """
    if delta <= 0:
        raise ArgumentError("mape delta must be positive")
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
    t = target[mask]
    err = np.abs(pred[mask] - t)
    return (float(err.mean()), float(np.sqrt((err ** 2).mean())),
            float((err / (t + delta)).mean() * 100.0))


def mae(pred, target, mask=None) -> float:
    return masked_errors(pred, target, mask)[0]


def rmse(pred, target, mask=None) -> float:
    return masked_errors(pred, target, mask)[1]


def mape(pred, target, mask=None, delta: float = 1e-5) -> float:
    """Mean absolute percentage error, in percent."""
    return masked_errors(pred, target, mask, delta)[2]


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
    mask = target != 0.0 if mask is None else np.asarray(mask, dtype=bool)
    h_avail = pred.shape[1]

    def row(h, sl):
        return HorizonMetrics(horizon_minutes(h, interval),
                              *masked_errors(pred[sl], target[sl], mask[sl]), pred.shape[0])

    return EvalReport(per_horizon=tuple(row(h, np.s_[:, h - 1]) for h in horizons
                                        if h <= h_avail),
                      aggregate=row(h_avail, np.s_[:]))


def historical_average_baseline(train_series, eval_windows: list) -> np.ndarray:
    """(windows, H, n, 1) historical-average forecasts from the training stream.

    A sensor's forecast for a snapshot is its mean observed (nonzero) reading
    at the same time-of-week slot of the training stream, so forecasts follow
    the weekly pattern along the horizon.  A slot with no readings takes the
    sensor's mean over the whole stream, and a sensor with none predicts 0.
    A stream shorter than one week is the one-slot case, with a warning: every
    horizon then gets the sensor's mean.
    """
    values, interval = train_series.values, train_series.interval
    n_slots = 7 * 86400 // interval
    if len(values) < n_slots:
        warnings.warn("training stream shorter than one week; one slot per sensor")
        n_slots = 1
    count = (values != 0.0).sum(axis=0)
    level = np.where(count > 0, values.sum(axis=0) / np.maximum(count, 1), 0.0)
    # rows laid out week by week from slot 0; the padding reads 0, i.e. missing
    first = (train_series.timestamps[0] // interval) % n_slots
    padded = np.zeros((-(-(first + len(values)) // n_slots) * n_slots, values.shape[1]))
    padded[first:first + len(values)] = values
    weeks = padded.reshape(-1, n_slots, values.shape[1])
    slot_count = (weeks != 0.0).sum(axis=0)
    slot_mean = np.where(slot_count > 0, weeks.sum(axis=0) / np.maximum(slot_count, 1), level)
    start = np.array([w.target_timestamps[0] for w in eval_windows]) // interval
    steps = start[:, None] + np.arange(eval_windows[0].target.shape[0])
    return slot_mean[steps % n_slots][..., None]


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
    pred = np.concatenate([p for _, p in predict_windows(model, test_windows, stats, batch_size)])
    return metrics_by_horizon(pred, np.stack([w.target for w in test_windows]),
                              horizons=horizons, interval=interval)
