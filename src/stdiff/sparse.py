"""CSR sparse matrices: the container graphs are stored, loaded and compared in.

Canonical form: within each row the column indices are strictly increasing
and no explicit zeros are stored.  All arrays are immutable after
construction, so instances can be shared freely across threads.

The model computes densely.  ``matmul_dense`` is one BLAS matmul against a
lazily built, read-only dense copy (rows * cols * 8 bytes), broadcast over
any leading axes; a GEMM's summation order depends only on the shapes and
the BLAS thread count, so results are bit-reproducible.  At road-network
sizes (hundreds of sensors) dense beats any sparse kernel.  ``matmul_sparse``
is a dense product too, returned as CSR.  With ``matrix_power`` it builds
only the specification hop powers that tests read; it keeps its name
because the benchmark's tracer binds it.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError, DomainError, ShapeError


class SparseMatrix:
    """Real matrix in canonical CSR form."""

    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "values", "_dense")

    def __init__(self, rows: int, cols: int, row_offsets, col_indices, values):
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative dimensions ({rows}, {cols})")
        if row_offsets.shape != (rows + 1,):
            raise ShapeError("row_offsets must have length rows+1")
        if row_offsets[0] != 0 or np.any(np.diff(row_offsets) < 0):
            raise ShapeError("row_offsets must start at 0 and be nondecreasing")
        nnz = int(row_offsets[-1])
        if col_indices.shape != (nnz,) or values.shape != (nnz,):
            raise ShapeError("col_indices/values length must match row_offsets[-1]")
        if nnz and (col_indices.min() < 0 or col_indices.max() >= cols):
            raise ShapeError("column index out of range")
        row_ids = np.repeat(np.arange(rows), np.diff(row_offsets))
        bad = (row_ids[1:] == row_ids[:-1]) & (np.diff(col_indices) <= 0)
        if bad.any():
            raise ShapeError(f"row {row_ids[1:][bad][0]} columns not strictly increasing")
        if nnz and not np.all(np.isfinite(values)):
            raise DomainError("non-finite value in sparse matrix")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self.values = values
        for a in (row_offsets, col_indices, values):
            a.flags.writeable = False
        self._dense = None

    # -- construction -------------------------------------------------

    @staticmethod
    def from_coo(rows: int, cols: int, r, c, v) -> "SparseMatrix":
        """Build from coordinate triples; duplicates are summed, zeros dropped."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if not (r.shape == c.shape == v.shape):
            raise ShapeError("coo arrays must have equal length")
        if r.size:
            if r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols:
                raise ShapeError("coo index out of range")
            order = np.lexsort((c, r))
            r, c, v = r[order], c[order], v[order]
            # collapse duplicate (r, c) pairs
            key_change = np.empty(r.size, dtype=bool)
            key_change[0] = True
            key_change[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            group = np.cumsum(key_change) - 1
            rv = np.zeros(group[-1] + 1)
            np.add.at(rv, group, v)
            r, c = r[key_change], c[key_change]
            keep = rv != 0.0
            r, c, rv = r[keep], c[keep], rv[keep]
        else:
            rv = v
        offsets = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(offsets, r + 1, 1)
        np.cumsum(offsets, out=offsets)
        return SparseMatrix(rows, cols, offsets, c, rv)

    @staticmethod
    def from_dense(dense) -> "SparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        r, c = np.nonzero(dense)
        return SparseMatrix.from_coo(dense.shape[0], dense.shape[1], r, c, dense[r, c])

    # -- queries ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    def row_ids(self) -> np.ndarray:
        """The row index of each stored entry."""
        return np.repeat(np.arange(self.rows), np.diff(self.row_offsets))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.row_ids(), self.col_indices] = self.values
        return out

    def row_degrees(self) -> np.ndarray:
        """Row sums (out-degrees for an adjacency matrix)."""
        deg = np.zeros(self.rows)
        np.add.at(deg, self.row_ids(), self.values)
        return deg

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )

    # -- kernels ------------------------------------------------------

    @property
    def dense(self) -> np.ndarray:
        """Read-only dense copy, built on first use and kept."""
        if self._dense is None:
            dense = self.to_dense()
            dense.flags.writeable = False
            self._dense = dense
        return self._dense

    def matmul_dense(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A @ X for X (..., cols, k), one matmul against the dense copy.

        ``out``, when given, receives the product; it may be a strided view.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-2] != self.cols:
            raise ShapeError(f"spmm shape mismatch: {self.rows}x{self.cols} @ {x.shape}")
        return np.matmul(self.dense, x, out=out)

    def matmul_sparse(self, other: "SparseMatrix") -> "SparseMatrix":
        """A @ B as a dense product, returned in canonical CSR."""
        if self.cols != other.rows:
            raise ShapeError("sparse matmul shape mismatch")
        return SparseMatrix.from_dense(self.to_dense() @ other.to_dense())


def sparsify(dense) -> SparseMatrix:
    return SparseMatrix.from_dense(dense)


def add_self_loops(a: SparseMatrix) -> SparseMatrix:
    """Return A + I; existing diagonal entries are incremented by one."""
    if a.rows != a.cols:
        raise ShapeError("self-loops require a square matrix")
    diag = np.arange(a.rows, dtype=np.int64)
    return SparseMatrix.from_coo(
        a.rows, a.cols,
        np.concatenate([a.row_ids(), diag]),
        np.concatenate([a.col_indices, diag]),
        np.concatenate([a.values, np.ones(a.rows)]),
    )


def transition_matrix(a: SparseMatrix) -> SparseMatrix:
    """Row-normalize a nonnegative adjacency into a random-walk transition matrix.

    Rows with zero degree stay all-zero: isolated vertices diffuse nothing.
    """
    if a.rows != a.cols:
        raise ShapeError("transition matrix requires a square adjacency")
    if a.nnz and a.values.min() < 0:
        raise DomainError("adjacency entries must be nonnegative")
    deg = a.row_degrees()
    inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    return SparseMatrix(a.rows, a.cols, a.row_offsets, a.col_indices,
                        a.values * inv[a.row_ids()])


def matrix_power(p: SparseMatrix, k: int) -> SparseMatrix:
    """k-th power of a square matrix by repeated products, canonical CSR."""
    if k < 1:
        raise ArgumentError("matrix power requires k >= 1")
    if p.rows != p.cols:
        raise ShapeError("matrix power requires a square matrix")
    out = p
    for _ in range(k - 1):
        out = out.matmul_sparse(p)
    return out
