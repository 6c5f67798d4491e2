"""Block spatial-temporal graphs built from m consecutive snapshots.

Vertex (t, i) lives at flat index t*n + i (snapshot-major), which is row
(t, i) of the (m, n, d) block layout the model keeps its blocks in.  The
coupled graph is upper block-bidiagonal: the self-looped spatial adjacency
A + I on the diagonal and the identity (weight 1) on the first
superdiagonal block, so snapshot t reads snapshot t+1.  The decoupled
variant drops the couplings entirely and is block-diagonal.

The model never assembles these (m*n) x (m*n) matrices.  Block row t of the
coupled transition matrix is

    ((A+I) X_t + X_{t+1}) / (deg + 1)      for t < m-1,
    (A+I) X_t / deg                         for t = m-1,

and the decoupled one is blockdiag(P_s, ..., P_s).  So ``BlockDiffusion``
applies either one as a single n x n spatial product over every snapshot,
a one-snapshot shift, and a row scaling; its memory is the n x n spatial
matrix, independent of m and of the hop count.  Hops are applied one after
another, never raised to powers.

``StBlockGraph`` also exposes the assembled adjacencies, transitions and
hop powers as the specification the operators are tested against.  They
are built on first access, densely and the way the paper writes them, as
Kronecker products (``kron(I_m, A + I)`` plus ``kron(E, I_n)`` with E
the shifted identity), each held as one dense (m*n) x (m*n) ``SparseMatrix``
(the name the benchmark binds); nothing on the forward or backward path
reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .sparse import SparseMatrix, inverse_degrees, transition_matrix


@dataclass(frozen=True, eq=False)
class BlockDiffusion:
    """One block transition matrix P in structured form.

    It acts on a block in either layout, (..., m, n, d) or the flat
    (..., m*n, d), and returns its result in the input's shape; flat row
    t*n + i is snapshot t, vertex i.

    ``shift`` is 1 when block row t also reads snapshot t+1 (the coupled
    graph) and 0 when it does not (the decoupled one).  ``inv_deg`` (m, n)
    holds the inverse row degrees of the block adjacency; a zero-degree row
    stays zero.
    """

    spatial: SparseMatrix
    inv_deg: np.ndarray
    shift: int

    @property
    def m(self) -> int:
        return self.inv_deg.shape[0]

    @property
    def n(self) -> int:
        return self.inv_deg.shape[1]

    def _blocks(self, x: np.ndarray) -> np.ndarray:
        """The (..., m, n, d) view of a block in either layout."""
        if x.shape[-3:-1] == (self.m, self.n):
            return x
        if x.ndim < 2 or x.shape[-2] != self.m * self.n:
            raise ShapeError(f"block operator {self.m}x{self.n} cannot act on {x.shape}")
        return x.reshape(x.shape[:-2] + (self.m, self.n, x.shape[-1]))

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P @ X: the spatial product, then the shifted snapshot, then the row scaling.

        ``out``, when given, is an array (or strided view) of X's shape that
        receives the result.
        """
        xb = self._blocks(x)
        y = self.spatial.matmul_dense(xb, out=None if out is None else self._blocks(out))
        if self.shift:
            y[..., :-1, :, :] += xb[..., 1:, :, :]
        y *= self.inv_deg[:, :, None]
        return y.reshape(x.shape)

    def apply_transpose(self, g: np.ndarray) -> np.ndarray:
        """P^T @ G: the row scaling, then the transposed spatial product and shift."""
        h = self._blocks(g) * self.inv_deg[:, :, None]
        y = self.spatial.dense.T @ h
        if self.shift:
            y[..., 1:, :, :] += h[..., :-1, :, :]
        return y.reshape(g.shape)


def _block_diffusion(spatial: SparseMatrix, m: int, shift: int) -> BlockDiffusion:
    deg = np.tile(spatial.row_degrees(), (m, 1))
    deg[:-1] += shift  # the coupling to the next snapshot
    inv = inverse_degrees(deg)
    inv.flags.writeable = False
    return BlockDiffusion(spatial, inv, shift)


def _spatial(g: SensorGraph) -> SparseMatrix:
    if g.n == 0:
        raise ArgumentError("empty graph")
    return g.self_looped


@dataclass(frozen=True)
class StBlockGraph:
    """The coupled and decoupled diffusion operators of one block size m.

    The six assembled matrices below are the specification, built on first
    access (the hop powers as dense matrix powers) for tests and oracles
    only.
    """

    graph: SensorGraph
    m: int
    num_hops: int
    coupled: BlockDiffusion
    decoupled: BlockDiffusion

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def nhstg_adjacency(self) -> SparseMatrix:
        return build_nhstg_adjacency(self.graph, self.m)

    @cached_property
    def hstg_adjacency(self) -> SparseMatrix:
        if self.m < 2:  # a single snapshot has no couplings
            return self.nhstg_adjacency
        return build_hstg_adjacency(self.graph, self.m)

    @cached_property
    def nhstg_transition(self) -> SparseMatrix:
        return transition_matrix(self.nhstg_adjacency)

    @cached_property
    def hstg_transition(self) -> SparseMatrix:
        return transition_matrix(self.hstg_adjacency)

    @cached_property
    def hop_powers_nh(self) -> tuple:
        return tuple(SparseMatrix(np.linalg.matrix_power(self.nhstg_transition.dense, k))
                     for k in range(1, self.num_hops + 1))

    @cached_property
    def hop_powers_h(self) -> tuple:
        return tuple(SparseMatrix(np.linalg.matrix_power(self.hstg_transition.dense, k))
                     for k in range(1, self.num_hops + 1))


def build_nhstg_adjacency(g: SensorGraph, m: int) -> SparseMatrix:
    """The decoupled block adjacency kron(I_m, A + I): A + I on every diagonal block."""
    if m < 1:
        raise ArgumentError("need at least one snapshot")
    return SparseMatrix.from_dense(np.kron(np.eye(m), _spatial(g).dense))


def build_hstg_adjacency(g: SensorGraph, m: int) -> SparseMatrix:
    """The coupled block adjacency kron(I_m, A + I) + kron(E, I_n).

    E is the shifted identity, ones on the superdiagonal: snapshot t reads t+1.
    """
    if m < 2:
        raise ArgumentError("coupled graph needs at least two snapshots")
    return SparseMatrix.from_dense(
        np.kron(np.eye(m), _spatial(g).dense) + np.kron(np.eye(m, k=1), np.eye(g.n)))


def build_hstg(g: SensorGraph, m: int, *, num_hops: int = 1) -> StBlockGraph:
    """Build the coupled and decoupled diffusion operators of an m-snapshot block.

    ``num_hops`` only sets how many hop powers the specification exposes.
    """
    if num_hops < 1:
        raise ArgumentError("num_hops must be >= 1")
    if m < 1:
        raise ArgumentError("need at least one snapshot")
    spatial = _spatial(g)
    # a single snapshot has no couplings: both graphs are the spatial one
    return StBlockGraph(g, m, num_hops, coupled=_block_diffusion(spatial, m, int(m >= 2)),
                        decoupled=_block_diffusion(spatial, m, 0))
