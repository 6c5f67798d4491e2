"""Graph matrices: each one validated, finite, read-only 2-D float64 array.

The model computes densely.  At road-network sizes (hundreds of sensors) a
dense matrix of n * n * 8 bytes is small and one BLAS matmul beats any
sparse kernel, so a graph matrix is stored as nothing but its dense array.
The class keeps the name ``SparseMatrix``, and ``matmul_sparse`` its name,
because the benchmark's tracer binds both.

``matmul_dense`` is one matmul broadcast over any leading axes; a GEMM's
summation order depends only on the shapes and the BLAS thread count, so
results are bit-reproducible.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


class SparseMatrix:
    """Real graph matrix, held as one read-only dense array."""

    __slots__ = ("dense",)

    def __init__(self, dense):
        dense = np.array(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("a graph matrix is a 2-D array")
        if not np.all(np.isfinite(dense)):
            raise DomainError("non-finite value in graph matrix")
        dense.flags.writeable = False
        self.dense = dense

    # -- construction -------------------------------------------------

    @staticmethod
    def from_coo(rows: int, cols: int, r, c, v) -> "SparseMatrix":
        """Build from coordinate triples; duplicates are summed in input order."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative dimensions ({rows}, {cols})")
        if not (r.shape == c.shape == v.shape):
            raise ShapeError("coo arrays must have equal length")
        if r.size and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
            raise ShapeError("coo index out of range")
        dense = np.zeros((rows, cols))
        np.add.at(dense, (r, c), v)
        return SparseMatrix(dense)

    # -- queries ------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.dense.shape[0]

    @property
    def cols(self) -> int:
        return self.dense.shape[1]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.dense))

    def nonzero(self) -> tuple:
        """(rows, cols, values) of the nonzero entries, in row-major order."""
        r, c = np.nonzero(self.dense)
        return r, c, self.dense[r, c]

    def to_dense(self) -> np.ndarray:
        """A writable copy of the matrix."""
        return self.dense.copy()

    def row_degrees(self) -> np.ndarray:
        """Row sums (out-degrees for an adjacency matrix), added left to right.

        That order keeps the bits an edge-list sum gives the degrees, and so
        every prediction; numpy's pairwise ``sum`` would move them an ulp.
        """
        return sum(self.dense.T, np.zeros(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return np.array_equal(self.dense, other.dense)

    # -- kernels ------------------------------------------------------

    def matmul_dense(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A @ X for X (..., cols, k), one matmul.

        ``out``, when given, receives the product; it may be a strided view.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-2] != self.cols:
            raise ShapeError(f"spmm shape mismatch: {self.rows}x{self.cols} @ {x.shape}")
        return np.matmul(self.dense, x, out=out)

    def matmul_sparse(self, other: "SparseMatrix") -> "SparseMatrix":
        """A @ B as a dense product.

        The package never calls it; it stays because the benchmark's tracer
        binds it and the benchmark's own tests delete it to check that an
        absent target is skipped.
        """
        if self.cols != other.rows:
            raise ShapeError("sparse matmul shape mismatch")
        return SparseMatrix(self.dense @ other.dense)


def sparsify(dense) -> SparseMatrix:
    return SparseMatrix(dense)


def inverse_degrees(deg: np.ndarray) -> np.ndarray:
    """1 / deg, and 0 where deg is not positive: a zero-degree row diffuses nothing."""
    return np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)


def add_self_loops(a: SparseMatrix) -> SparseMatrix:
    """Return A + I; existing diagonal entries are incremented by one."""
    if a.rows != a.cols:
        raise ShapeError("self-loops require a square matrix")
    return SparseMatrix(a.dense + np.eye(a.rows))


def transition_matrix(a: SparseMatrix) -> SparseMatrix:
    """Row-normalize a nonnegative adjacency into a random-walk transition matrix.

    Rows with zero degree stay all-zero: isolated vertices diffuse nothing.
    """
    if a.rows != a.cols:
        raise ShapeError("transition matrix requires a square adjacency")
    if np.any(a.dense < 0):
        raise DomainError("adjacency entries must be nonnegative")
    return SparseMatrix(a.dense * inverse_degrees(a.row_degrees())[:, None])

