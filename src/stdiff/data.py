"""Dataset ingestion, sliding-window samples, and a synthetic generator.

The canonical speed format is CSV: a `timestamp` column of epoch seconds at
a fixed interval (300 s for the public datasets) followed by one column per
sensor, in the vertex order of the adjacency sidecar.  A stored value of 0
means missing and is propagated to metric masks.
"""
from __future__ import annotations

import csv
import json
import math
import typing
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError, IdentifierError
from .graph import DistanceRecord, SensorGraph, build_gaussian_adjacency, open_text
from .sparse import transition_matrix

DEFAULT_INTERVAL = 300  # 5-minute snapshots


@dataclass(frozen=True)
class SpeedSeries:
    timestamps: np.ndarray  # epoch seconds, fixed interval
    values: np.ndarray      # (time, vertices)
    ids: tuple

    def __post_init__(self):
        ts, vals = self.timestamps, self.values
        if ts.ndim != 1 or vals.ndim != 2 or ts.shape[0] != vals.shape[0]:
            raise FormatError("timestamps and values disagree on length")
        if vals.shape[1] != len(self.ids):
            raise FormatError("column count does not match sensor ids")
        if ts.shape[0] >= 2:
            if not np.all(ts[1:] > ts[:-1]):
                raise FormatError("timestamps must increase at a fixed interval")
            # increasing, so np.diff wraps only if the whole span does
            if int(ts[-1]) - int(ts[0]) > np.iinfo(np.int64).max:
                raise FormatError("timestamps span more seconds than an int64 holds")
            steps = np.diff(ts)
            if steps.min() != steps.max():
                raise FormatError("timestamps must increase at a fixed interval")
        if not np.all(np.isfinite(vals)):
            raise FormatError("non-finite speed value")

    @property
    def interval(self) -> int:
        if self.timestamps.shape[0] < 2:
            return DEFAULT_INTERVAL
        return int(self.timestamps[1]) - int(self.timestamps[0])

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True, slots=True)
class WindowSample:
    history: np.ndarray            # (T, n, 1)
    target: np.ndarray             # (H, n, 1)
    start_index: int
    target_timestamps: np.ndarray


def load_speed_csv(path, *, graph: SensorGraph | None = None) -> SpeedSeries:
    """Read a speed CSV; with a graph given, column ids must match its order.

    The accepted grammar: a header ``timestamp,<id>,...`` (ids may be double
    quoted), then one row per snapshot of an int64 epoch-second timestamp and
    one numeric reading per sensor, comma separated.  Any field may be double
    quoted and padded with spaces; blank lines are skipped; a ``#`` is not a
    comment but a malformed field.  Line endings are LF or CRLF.  A file that
    breaks this grammar, or holds no readings, is a ``FormatError`` naming it.
    """
    with open_text(path) as fh:
        header = next(csv.reader(fh), None)
        if not header or header[0] != "timestamp" or len(header) < 2:
            raise FormatError(f"{path}: expected header 'timestamp,<id>,...'")
        ids = tuple(header[1:])
        if graph is not None and ids != tuple(graph.vertex_ids):
            raise IdentifierError(f"{path}: sensor columns do not match the adjacency ids")
        row = np.dtype([("t", np.int64), ("v", np.float64, (len(ids),))])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=row, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1)
        except UnicodeDecodeError:
            raise  # open_text names the file
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None
    if not len(table):
        raise FormatError(f"{path}: holds no readings, only a header")
    try:
        # a structured table's fields are strided views: copy each out contiguous
        return SpeedSeries(np.ascontiguousarray(table["t"]),
                           np.ascontiguousarray(table["v"]), ids)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_speed_csv(series: SpeedSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(series.ids))
        for t, row in zip(series.timestamps, series.values):
            writer.writerow([int(t)] + [repr(float(v)) for v in row])


def make_windows(series: SpeedSeries, t_hist: int = 12, horizon: int = 12,
                 stride: int = 1) -> list[WindowSample]:
    """Chronological sliding windows; count = floor((len-T-H)/stride) + 1."""
    if t_hist < 1 or horizon < 1 or stride < 1:
        raise ArgumentError("T, H and stride must be >= 1")
    total = len(series)
    if total < t_hist + horizon:
        raise ArgumentError(
            f"series length {total} shorter than one window ({t_hist}+{horizon})")
    values, ts = series.values[..., None], series.timestamps
    out = []
    for start in range(0, total - t_hist - horizon + 1, stride):
        mid, end = start + t_hist, start + t_hist + horizon
        out.append(WindowSample(values[start:mid], values[mid:end], start, ts[mid:end]))
    return out


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 10
    steps: int = 2000
    seed: int = 0
    alpha: float = 0.6
    period: int = 24
    noise_std: float = 0.5
    dynamics: str = "seasonal+diffusion"

    @staticmethod
    def from_json(text: str) -> "SyntheticSpec":
        return dataclass_from_json(SyntheticSpec, text, "synthetic spec")


def dataclass_from_json(cls, text: str, what: str):
    """Build dataclass ``cls`` from a JSON object of some of its fields.

    Each value must have its field's annotated type; an int is accepted for a
    float and null for an optional field, but a bool never stands in for a
    number.  ``what`` names the input in error messages.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ArgumentError(f"{what} must be a JSON object")
    unknown = set(data) - set(cls.__dataclass_fields__)
    if unknown:
        raise ArgumentError(f"unknown {what} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        want = typing.get_args(hints[key]) or (hints[key],)
        accepted = want + (int,) if float in want else want
        if (isinstance(value, bool) and bool not in want) or not isinstance(value, accepted):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in want)
            raise ArgumentError(f"{what} key {key!r} must be {names}, got {value!r}")
    return cls(**data)


def generate_synthetic(spec: SyntheticSpec) -> tuple[SensorGraph, SpeedSeries]:
    """Random geometric graph plus a diffusion-driven speed signal.

    The signal follows x_{t+1} = alpha * P x_t + (1 - alpha) * seasonal(t)
    + noise, with P the self-looped random-walk transition matrix, so a
    diffusion-aware forecaster has an edge over static averages.  Fully
    deterministic for a fixed seed.
    """
    if spec.n < 2:
        raise ArgumentError("need at least 2 vertices")
    if spec.steps < 2:
        raise ArgumentError("need at least 2 steps")
    if spec.dynamics not in ("diffusion", "seasonal+diffusion"):
        raise ArgumentError(f"unknown dynamics {spec.dynamics!r}")
    rng = np.random.default_rng(spec.seed)
    pts = rng.uniform(0.0, 10.0, size=(spec.n, 2))
    ids = [f"s{i:03d}" for i in range(spec.n)]
    records = []
    for i in range(spec.n):
        for j in range(spec.n):
            if i != j:
                d = float(np.hypot(*(pts[i] - pts[j])))
                records.append(DistanceRecord(ids[i], ids[j], d))
    graph = build_gaussian_adjacency(records, ids, weight_quantile=0.3)
    p = transition_matrix(graph.self_looped)

    base = 50.0
    amp = 15.0
    phase = rng.uniform(0.0, 2.0 * math.pi, size=spec.n)
    vertex_level = base + rng.uniform(-5.0, 5.0, size=spec.n)

    def seasonal(t: int) -> np.ndarray:
        if spec.dynamics == "diffusion":
            return vertex_level
        return vertex_level + amp * np.sin(2.0 * math.pi * t / spec.period + phase)

    x = seasonal(0) + rng.normal(0.0, spec.noise_std, size=spec.n)
    values = np.empty((spec.steps, spec.n))
    values[0] = x
    for t in range(1, spec.steps):
        x = (spec.alpha * p.matmul_dense(x[:, None])[:, 0]
             + (1.0 - spec.alpha) * seasonal(t)
             + rng.normal(0.0, spec.noise_std, size=spec.n))
        values[t] = x
    # keep speeds strictly positive: 0 is the missing-data marker
    values = np.maximum(values, 1.0)
    ts = np.arange(spec.steps, dtype=np.int64) * DEFAULT_INTERVAL
    return graph, SpeedSeries(ts, values, tuple(ids))
