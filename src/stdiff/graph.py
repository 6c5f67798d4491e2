"""Static sensor graph and Gaussian-kernel adjacency construction.

The adjacency weight between two sensors at geographic distance d is
exp(-d^2 / sigma^2), with sigma the population standard deviation of all
provided distances.  Sparsification is either an explicit distance
threshold (keep edges with d <= epsilon) or a quantile cut on the computed
weights (zero everything below the q-quantile; q = 0 keeps all edges).
"""
from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ArgumentError, DomainError, FormatError, IdentifierError
from .sparse import SparseMatrix, add_self_loops


@dataclass(frozen=True)
class DistanceRecord:
    from_id: str
    to_id: str
    distance: float

    def __post_init__(self):
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise DomainError(f"invalid distance {self.distance!r}")


@dataclass(frozen=True)
class SensorGraph:
    n: int
    vertex_ids: tuple
    adjacency: SparseMatrix

    def __post_init__(self):
        if len(self.vertex_ids) != self.n:
            raise IdentifierError("vertex_ids length must equal n")
        if len(set(self.vertex_ids)) != self.n:
            raise IdentifierError("duplicate sensor id")
        if self.adjacency.rows != self.n or self.adjacency.cols != self.n:
            raise IdentifierError("adjacency shape must be n x n")

    @cached_property
    def self_looped(self) -> SparseMatrix:
        """A + I, built once and shared by every block size and both operators."""
        return add_self_loops(self.adjacency)


def build_gaussian_adjacency(
    records: list[DistanceRecord],
    ids: list[str],
    *,
    epsilon: float | None = None,
    weight_quantile: float = 0.1,
) -> SensorGraph:
    """Build the proximity graph from pairwise sensor distances.

    Records are directed: each (from, to, d) produces one entry.  Passing a
    symmetric record set yields a symmetric adjacency.
    """
    if not 0.0 <= weight_quantile <= 1.0:  # also rejects NaN
        raise ArgumentError(f"weight quantile {weight_quantile!r} is outside [0, 1]")
    if epsilon is not None and not epsilon >= 0.0:  # also rejects NaN
        raise ArgumentError(f"epsilon {epsilon!r} is negative or NaN")
    if not records:
        raise IdentifierError("at least one distance record required")
    index = {s: i for i, s in enumerate(ids)}
    if len(index) != len(ids):
        raise IdentifierError("duplicate sensor id")
    rows = np.empty(len(records), dtype=np.int64)
    cols = np.empty(len(records), dtype=np.int64)
    for k, rec in enumerate(records):
        try:
            rows[k] = index[rec.from_id]
            cols[k] = index[rec.to_id]
        except KeyError as exc:
            raise IdentifierError(f"unknown sensor id {exc.args[0]!r}") from None
    dists = np.array([rec.distance for rec in records])
    sigma = float(dists.std())  # population std
    if sigma == 0.0:
        raise DomainError("all distances identical: Gaussian kernel sigma is zero")
    weights = np.exp(-(dists ** 2) / sigma ** 2)
    if epsilon is not None:
        keep = dists <= epsilon
    elif weight_quantile > 0.0:
        keep = weights >= np.quantile(weights, weight_quantile)
    else:
        keep = np.ones(len(records), dtype=bool)
    adj = SparseMatrix.from_coo(len(ids), len(ids), rows[keep], cols[keep], weights[keep])
    return SensorGraph(len(ids), tuple(ids), adj)


# -- CSV round trips ---------------------------------------------------


@contextmanager
def open_text(path):
    """``path`` opened for reading as UTF-8 text.

    A byte that is not UTF-8, or a ``csv`` reader's error (a quote never
    closed, a field beyond its size limit), wherever the reader meets it, is
    a ``FormatError`` naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: malformed CSV: {exc}") from None


def load_distance_csv(path) -> list[DistanceRecord]:
    """Read `from,to,distance` records."""
    records = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["from", "to", "distance"]:
            raise FormatError(f"{path}: expected header 'from,to,distance'")
        for line in reader:
            if not line:
                continue
            where = f"{path} line {reader.line_num}"
            if len(line) != 3:
                raise FormatError(f"{where}: bad record {line!r}")
            try:
                records.append(DistanceRecord(line[0], line[1], float(line[2])))
            except (ValueError, DomainError):
                raise FormatError(
                    f"{where}: distance {line[2]!r} is not a finite nonnegative number") from None
    return records


def save_adjacency(graph: SensorGraph, prefix) -> None:
    """Write edge-list CSV `<prefix>.csv` and JSON sidecar `<prefix>.json`."""
    prefix = Path(prefix)
    with open(prefix.with_suffix(".csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "weight"])
        for r, c, v in zip(*graph.adjacency.nonzero()):
            writer.writerow([int(r), int(c), repr(float(v))])
    sidecar = {"n": graph.n, "ids": list(graph.vertex_ids)}
    prefix.with_suffix(".json").write_text(json.dumps(sidecar) + "\n", encoding="utf-8")


def load_adjacency(prefix) -> SensorGraph:
    prefix = Path(prefix)
    bad = f"bad adjacency sidecar {prefix}.json"
    try:
        sidecar = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FormatError(f"{bad}: {exc}") from None
    if not isinstance(sidecar, dict):
        raise FormatError(f"{bad}: expected an object with 'n' and 'ids'")
    n, ids = sidecar.get("n"), sidecar.get("ids")
    if type(n) is not int or n < 1:
        raise FormatError(f"{bad}: 'n' must be a positive integer, got {n!r}")
    if not isinstance(ids, list) or len(ids) != n:
        raise FormatError(f"{bad}: 'ids' must be a list of n={n} sensor ids")
    ids = [str(s) for s in ids]
    if len(set(ids)) != n:
        raise FormatError(f"{bad}: duplicate sensor id")
    rows, cols, vals, seen = [], [], [], set()
    with open_text(prefix.with_suffix(".csv")) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["row", "col", "weight"]:
            raise FormatError(f"{prefix}.csv: expected header 'row,col,weight'")
        for line in reader:
            if not line:
                continue
            where = f"{prefix}.csv line {reader.line_num}"
            if len(line) != 3:
                raise FormatError(f"{where}: expected 3 fields, got {line!r}")
            try:
                r, c, v = int(line[0]), int(line[1]), float(line[2])
            except ValueError:
                raise FormatError(f"{where}: bad record {line!r}") from None
            if not (0 <= r < n and 0 <= c < n):
                raise FormatError(f"{where}: index out of range for n={n}")
            if not (math.isfinite(v) and v >= 0):
                raise FormatError(f"{where}: weight {line[2]!r} is not finite and nonnegative")
            if (r, c) in seen:
                raise FormatError(f"{where}: duplicate edge ({r}, {c})")
            seen.add((r, c))
            rows.append(r)
            cols.append(c)
            vals.append(v)
    return SensorGraph(n, tuple(ids), SparseMatrix.from_coo(n, n, rows, cols, vals))
