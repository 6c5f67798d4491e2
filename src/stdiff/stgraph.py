"""Block spatial-temporal graphs built from m consecutive snapshots.

Vertex (t, i) lives at flat index t*n + i (snapshot-major), which is row
(t, i) of the (m, n, d) block layout the model keeps its blocks in.  The
coupled graph is upper block-bidiagonal: the spatial adjacency on the
diagonal and the identity (weight 1) on the first superdiagonal block, so
information flows forward in time only.  The decoupled variant drops the
couplings entirely and is block-diagonal.

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
are built on first access and nothing on the forward or backward path
reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .sparse import SparseMatrix, add_self_loops, matrix_power, transition_matrix

TEMPORAL_DIRECTIONS = ("as_written", "transposed")


@dataclass(frozen=True, eq=False)
class BlockDiffusion:
    """One block transition matrix P in structured form.

    It acts on a block in either layout, (..., m, n, d) or the flat
    (..., m*n, d), and returns its result in the input's shape; flat row
    t*n + i is snapshot t, vertex i.

    ``shift`` is +1 when block row t also reads snapshot t+1 (``as_written``),
    -1 when it reads snapshot t-1 (``transposed``), and 0 for the decoupled
    graph.  ``inv_deg`` (m, n) holds the inverse row degrees of the block
    adjacency; a zero-degree row stays zero.
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ X: the spatial product, then the shifted snapshot, then the row scaling."""
        xb = self._blocks(x)
        y = self.spatial.matmul_dense(xb)
        if self.shift > 0:
            y[..., :-1, :, :] += xb[..., 1:, :, :]
        elif self.shift < 0:
            y[..., 1:, :, :] += xb[..., :-1, :, :]
        y *= self.inv_deg[:, :, None]
        return y.reshape(x.shape)

    def apply_transpose(self, g: np.ndarray) -> np.ndarray:
        """P^T @ G: the row scaling, then the transposed spatial product and shift."""
        h = self._blocks(g) * self.inv_deg[:, :, None]
        y = self.spatial.dense.T @ h
        if self.shift > 0:
            y[..., 1:, :, :] += h[..., :-1, :, :]
        elif self.shift < 0:
            y[..., :-1, :, :] += h[..., 1:, :, :]
        return y.reshape(g.shape)


def _block_diffusion(spatial: SparseMatrix, m: int, shift: int) -> BlockDiffusion:
    deg = np.tile(spatial.row_degrees(), (m, 1))
    if shift > 0:
        deg[:-1] += 1.0
    elif shift < 0:
        deg[1:] += 1.0
    inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    inv.flags.writeable = False
    return BlockDiffusion(spatial, inv, shift)


def _spatial(g: SensorGraph, self_loops: bool) -> SparseMatrix:
    if g.n == 0:
        raise ArgumentError("empty graph")
    return add_self_loops(g.adjacency) if self_loops else g.adjacency


def _check_direction(temporal_direction: str) -> None:
    if temporal_direction not in TEMPORAL_DIRECTIONS:
        raise ArgumentError(f"unknown temporal_direction {temporal_direction!r}")


@dataclass(frozen=True)
class StBlockGraph:
    """The coupled and decoupled diffusion operators of one block size m.

    The six assembled matrices below are the specification, built on first
    access (the hop powers by repeated sparse products) for tests and
    oracles only.
    """

    graph: SensorGraph
    m: int
    num_hops: int
    self_loops: bool
    temporal_direction: str
    coupled: BlockDiffusion
    decoupled: BlockDiffusion

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def nhstg_adjacency(self) -> SparseMatrix:
        return build_nhstg_adjacency(self.graph, self.m, self_loops=self.self_loops)

    @cached_property
    def hstg_adjacency(self) -> SparseMatrix:
        if self.m < 2:  # a single snapshot has no couplings
            return self.nhstg_adjacency
        return build_hstg_adjacency(self.graph, self.m, self_loops=self.self_loops,
                                    temporal_direction=self.temporal_direction)

    @cached_property
    def nhstg_transition(self) -> SparseMatrix:
        return transition_matrix(self.nhstg_adjacency)

    @cached_property
    def hstg_transition(self) -> SparseMatrix:
        return transition_matrix(self.hstg_adjacency)

    @cached_property
    def hop_powers_nh(self) -> tuple:
        return tuple(matrix_power(self.nhstg_transition, k)
                     for k in range(1, self.num_hops + 1))

    @cached_property
    def hop_powers_h(self) -> tuple:
        return tuple(matrix_power(self.hstg_transition, k)
                     for k in range(1, self.num_hops + 1))


def _block_coo(block: SparseMatrix, br: int, bc: int, n: int):
    """COO triples of one n x n block placed at block coordinates (br, bc)."""
    rows = np.repeat(np.arange(block.rows), np.diff(block.row_offsets)) + br * n
    return rows, block.col_indices + bc * n, block.values


def _assemble(blocks, m: int, n: int) -> SparseMatrix:
    rs, cs, vs = [], [], []
    for br, bc, blk in blocks:
        r, c, v = _block_coo(blk, br, bc, n)
        rs.append(r)
        cs.append(c)
        vs.append(v)
    return SparseMatrix.from_coo(
        m * n, m * n, np.concatenate(rs), np.concatenate(cs), np.concatenate(vs)
    )


def build_nhstg_adjacency(g: SensorGraph, m: int, *, self_loops: bool = True) -> SparseMatrix:
    if m < 1:
        raise ArgumentError("need at least one snapshot")
    spatial = _spatial(g, self_loops)
    return _assemble([(t, t, spatial) for t in range(m)], m, g.n)


def build_hstg_adjacency(
    g: SensorGraph,
    m: int,
    *,
    self_loops: bool = True,
    temporal_direction: str = "as_written",
) -> SparseMatrix:
    if m < 2:
        raise ArgumentError("coupled graph needs at least two snapshots")
    spatial = _spatial(g, self_loops)
    _check_direction(temporal_direction)
    c = SparseMatrix.identity(g.n)
    blocks = [(t, t, spatial) for t in range(m)]
    for t in range(m - 1):
        if temporal_direction == "as_written":
            blocks.append((t, t + 1, c))
        else:
            blocks.append((t + 1, t, c))
    return _assemble(blocks, m, g.n)


def build_hstg(
    g: SensorGraph,
    m: int,
    *,
    num_hops: int = 1,
    self_loops: bool = True,
    temporal_direction: str = "as_written",
) -> StBlockGraph:
    """Build the coupled and decoupled diffusion operators of an m-snapshot block.

    ``num_hops`` only sets how many hop powers the specification exposes.
    """
    if num_hops < 1:
        raise ArgumentError("num_hops must be >= 1")
    if m < 1:
        raise ArgumentError("need at least one snapshot")
    _check_direction(temporal_direction)
    spatial = _spatial(g, self_loops)
    # a single snapshot has no couplings: both graphs are the spatial one
    shift = 0 if m < 2 else (1 if temporal_direction == "as_written" else -1)
    return StBlockGraph(
        graph=g,
        m=m,
        num_hops=num_hops,
        self_loops=self_loops,
        temporal_direction=temporal_direction,
        coupled=_block_diffusion(spatial, m, shift),
        decoupled=_block_diffusion(spatial, m, 0),
    )
