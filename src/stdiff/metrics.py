"""Evaluation metrics, horizon-sliced reporting, and the historical-average
baseline.

MAE, RMSE and MAPE are computed together over the same unmasked entries.
MAE and MAPE follow their standard definitions; RMSE is the conventional
sqrt-of-mean-squared-error.  MAPE is reported in percent with a small
denominator shift, and zero-target entries (the datasets' missing-data
convention) are excluded by the default mask.  The historical average
predicts each sensor's mean observed reading at the same time-of-week slot.

Every metric is streamed.  A (B, H, n, ...) chunk of windows is reduced to
four sums per window and horizon: the count of masked-in entries, sum |e|,
sum e^2 and sum |e| / (t + delta).  Each (window, horizon) row is summed
on its own, pairwise along one contiguous row with masked-out entries
as exact zeros.  Only when every chunk is in are the (W, H, 4) sums
reduced across windows (and, for the aggregate, horizons), in one fixed
order.  A report is therefore the same to the bit whatever the chunk size,
and evaluation holds one batch plus W * H * 4 floats, not the whole set.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import DEFAULT_INTERVAL
from .errors import ArgumentError, DomainError, ShapeError
from .training import NormStats, predict_windows

DEFAULT_HORIZONS = (3, 6, 12)  # snapshots: 15 / 30 / 60 minutes at 5-min interval
EVAL_BATCH = 64  # windows per batch wherever evaluation or prediction walks windows


def horizon_minutes(steps: int, interval: int) -> int | float:
    """Lead time of the ``steps``-th forecast snapshot, in minutes.

    Whole minutes stay an int, so the default 300 s labels read 15, 30, 60.
    """
    minutes = steps * interval / 60
    return int(minutes) if minutes.is_integer() else minutes


def _window_sums(pred, target, mask=None, delta: float = 1e-5) -> np.ndarray:
    """(B, H, 4) sums of matching (B, H, ...) arrays, one row per window and horizon:
    the count of masked-in entries, sum |e|, sum e^2 and sum |e| / (t + delta).

    The default mask keeps the nonzero targets.
    """
    pred = np.ascontiguousarray(pred, dtype=np.float64)
    target = np.ascontiguousarray(target, dtype=np.float64)
    rows = (*target.shape[:2], math.prod(target.shape[2:]))
    pred, target = pred.reshape(rows), target.reshape(rows)
    mask = target != 0.0 if mask is None else np.ascontiguousarray(mask, dtype=bool).reshape(rows)
    err = np.zeros_like(target)
    np.subtract(pred, target, out=err, where=mask)
    np.abs(err, out=err)
    rel = np.zeros_like(target)
    np.divide(err, target + delta, out=rel, where=mask)
    abs_sum, rel_sum = err.sum(axis=-1), rel.sum(axis=-1)
    return np.stack([mask.sum(axis=-1), abs_sum, np.square(err, out=err).sum(axis=-1),
                     rel_sum], axis=-1)


def _finish(sums: np.ndarray) -> tuple[float, float, float]:
    """MAE, RMSE and MAPE (percent) from (..., 4) window sums, reduced in one fixed order."""
    count, abs_sum, sq_sum, rel_sum = np.ascontiguousarray(sums.reshape(-1, 4).T).sum(axis=1)
    if count == 0:
        raise DomainError("empty mask: metric undefined")
    return (float(abs_sum / count), float(np.sqrt(sq_sum / count)),
            float(rel_sum / count * 100.0))


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
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != target.shape:
            raise ShapeError("mask shape mismatch")
        mask = mask.reshape(1, 1, -1)
    return _finish(_window_sums(pred.reshape(1, 1, -1), target.reshape(1, 1, -1), mask, delta))


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


def _streamed_report(chunks, horizons, interval: int) -> EvalReport:
    """The report of consecutive (pred, target[, mask]) window chunks, taken in order.

    It has a row for each of ``horizons`` up to H, then the aggregate.
    """
    sums = np.concatenate([_window_sums(*chunk) for chunk in chunks])  # (W, H, 4)
    n_windows, h_avail = sums.shape[:2]

    def row(h, part):
        return HorizonMetrics(horizon_minutes(h, interval), *_finish(part), n_windows)

    return EvalReport(per_horizon=tuple(row(h, sums[:, h - 1]) for h in horizons
                                        if h <= h_avail),
                      aggregate=row(h_avail, sums))


def _targets(windows: list) -> np.ndarray:
    return np.stack([w.target for w in windows])


def metrics_by_horizon(pred, target, *, horizons=DEFAULT_HORIZONS, mask=None,
                       interval: int = DEFAULT_INTERVAL) -> EvalReport:
    """Slice (B, H, n, ...) predictions at each horizon plus the aggregate.

    The metric at horizon h covers the single h-th predicted snapshot,
    matching per-column reporting in the usual comparison tables.  Rows are
    labelled in minutes from the series' snapshot ``interval`` (seconds).
    The arrays are read ``EVAL_BATCH`` windows at a time, so the work arrays
    are chunk-sized.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim < 3:
        raise ShapeError("expected matching (B, H, n, ...) arrays")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != target.shape:
            raise ShapeError("mask shape mismatch")
    # one chunk even when there are no windows, so its sums have their shape
    chunks = ((pred[lo:lo + EVAL_BATCH], target[lo:lo + EVAL_BATCH],
               None if mask is None else mask[lo:lo + EVAL_BATCH])
              for lo in range(0, max(len(pred), 1), EVAL_BATCH))
    return _streamed_report(chunks, horizons, interval)


@dataclass(frozen=True)
class HistoricalAverage:
    """Each sensor's mean observed reading per time-of-week slot of a training stream."""
    slot_mean: np.ndarray  # (slots, n)
    interval: int          # the stream's snapshot interval, seconds

    @classmethod
    def fit(cls, train_series) -> "HistoricalAverage":
        """The slot table of ``train_series``.

        A slot with no readings takes the sensor's mean over the whole
        stream, and a sensor with none predicts 0.  A stream shorter than one
        week is the one-slot case, with a warning: every snapshot then gets
        the sensor's mean.
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
        return cls(np.where(slot_count > 0, weeks.sum(axis=0) / np.maximum(slot_count, 1),
                            level), interval)

    def predict(self, windows: list) -> np.ndarray:
        """(windows, H, n, 1) forecasts: each target snapshot's slot mean."""
        start = np.array([w.target_timestamps[0] for w in windows]) // self.interval
        steps = start[:, None] + np.arange(windows[0].target.shape[0])
        return self.slot_mean[steps % len(self.slot_mean)][..., None]


def historical_average_baseline(train_series, eval_windows: list) -> np.ndarray:
    """(windows, H, n, 1) historical-average forecasts from the training stream.

    A sensor's forecast for a snapshot is its mean observed (nonzero) reading
    at the same time-of-week slot of the training stream, so forecasts follow
    the weekly pattern along the horizon (see ``HistoricalAverage.fit``).
    """
    return HistoricalAverage.fit(train_series).predict(eval_windows)


def evaluate(
    model,
    test_windows: list,
    stats: NormStats,
    *,
    horizons=DEFAULT_HORIZONS,
    batch_size: int = EVAL_BATCH,
    interval: int = DEFAULT_INTERVAL,
) -> EvalReport:
    """Run the model over the test windows and report denormalized metrics.

    Each batch's predictions are reduced to window sums as it arrives, so no
    prediction or target array for the whole set is built.  ``interval`` is
    the series' snapshot interval in seconds; it labels the rows.
    """
    if not test_windows:
        raise ArgumentError("empty test set")
    chunks = ((pred, _targets(chunk))
              for chunk, pred in predict_windows(model, test_windows, stats, batch_size))
    return _streamed_report(chunks, horizons, interval)


def evaluate_historical_average(train_series, test_windows: list, *,
                                interval: int = DEFAULT_INTERVAL) -> EvalReport:
    """The historical-average baseline's report, scored chunk by chunk as ``evaluate``.

    The slot table is fitted once; each chunk's forecasts are looked up,
    reduced to window sums and dropped.
    """
    if not test_windows:
        raise ArgumentError("empty test set")
    table = HistoricalAverage.fit(train_series)
    chunks = (test_windows[lo:lo + EVAL_BATCH]
              for lo in range(0, len(test_windows), EVAL_BATCH))
    return _streamed_report(((table.predict(c), _targets(c)) for c in chunks),
                            DEFAULT_HORIZONS, interval)
