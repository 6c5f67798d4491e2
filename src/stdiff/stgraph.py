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
matrix, independent of m and of the hop count.  Both operators of a block
graph hold the same spatial matrix A + I, so one spatial product per hop
serves both: ``BlockDiffusion.finish`` turns the shared product into
either graph's hop, and ``autodiff.diffuse`` makes one product per hop for
every operator it is given.  Hops are applied one after another, never
raised to powers.

``StBlockGraph`` also exposes the assembled adjacencies, transitions and
hop powers as the specification the operators are tested against.  They
are built on first access, densely and the way the paper writes them, as
Kronecker products (``kron(I_m, A + I)`` plus ``kron(E, I_n)`` with E
the shifted identity), each held as one dense (m*n) x (m*n) ``SparseMatrix``
(the name the benchmark binds); nothing on the forward or backward path
reads them.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
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

    def blocks(self, x: np.ndarray) -> np.ndarray:
        """The (..., m, n, d) view of a block in either layout."""
        if x.shape[-3:-1] == (self.m, self.n):
            return x
        if x.ndim < 2 or x.shape[-2] != self.m * self.n:
            raise ShapeError(f"block operator {self.m}x{self.n} cannot act on {x.shape}")
        return x.reshape(x.shape[:-2] + (self.m, self.n, x.shape[-1]))

    def finish(self, ax: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """P X from the spatial product AX = (A+I) X, both (..., m, n, d), into ``out``.

        The shifted snapshot is added into AX in place, so a shifted operator
        overwrites it; then the row scaling writes ``out``, which may be AX
        itself or a strided view.
        """
        if self.shift:
            ax[..., :-1, :, :] += x[..., 1:, :, :]
        return np.multiply(ax, self.inv_deg[:, :, None], out=out)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ X: the spatial product, then the shifted snapshot, then the row scaling."""
        xb = self.blocks(x)
        ax = self.spatial.matmul_dense(xb)
        return self.finish(ax, xb, ax).reshape(x.shape)

    def apply_transpose(self, g: np.ndarray) -> np.ndarray:
        """P^T @ G: the row scaling, then the transposed spatial product and shift."""
        h = self.blocks(g) * self.inv_deg[:, :, None]
        y = self.spatial.dense.T @ h
        if self.shift:
            y[..., 1:, :, :] += h[..., :-1, :, :]
        return y.reshape(g.shape)


def _block_diffusion(spatial: SparseMatrix, m: int, shift: int,
                     row_degrees: np.ndarray) -> BlockDiffusion:
    """The operator of an m-snapshot block, given the spatial matrix's ``row_degrees``."""
    deg = np.tile(row_degrees, (m, 1))
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

    Both share one spatial matrix A + I.  The six assembled matrices below
    are the specification, built on first access (the hop powers as dense
    matrix powers) for tests and oracles only.
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
    return SparseMatrix(np.kron(np.eye(m), _spatial(g).dense))


def build_hstg_adjacency(g: SensorGraph, m: int) -> SparseMatrix:
    """The coupled block adjacency kron(I_m, A + I) + kron(E, I_n).

    E is the shifted identity, ones on the superdiagonal: snapshot t reads t+1.
    """
    if m < 2:
        raise ArgumentError("coupled graph needs at least two snapshots")
    return SparseMatrix(
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
    deg = spatial.row_degrees()  # summed once for both operators
    # a single snapshot has no couplings: both graphs are the spatial one
    coupled = _block_diffusion(spatial, m, int(m >= 2), deg)
    decoupled = _block_diffusion(spatial, m, 0, deg)
    return StBlockGraph(g, m, num_hops, coupled, decoupled)


@dataclass(frozen=True, eq=False)
class CarryDiffusion:
    """The operators a d-feature carried snapshot diffuses through, with their row scaling.

    ``ops`` act on the (..., n, d) carry: one snapshot and no shift, so no
    hop leaves it.  ``inv`` (r, n, d), built from them once, holds each
    operator's inverse row degrees repeated over the d features, so a hop's
    row scaling is one contiguous pass over every operator's slab
    (``autodiff.carry_term``).
    """

    ops: tuple[BlockDiffusion, ...]
    d: int
    inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.ops or any(op.shift or op.inv_deg.shape != (1, self.ops[0].n)
                               for op in self.ops):
            raise ArgumentError("a carry's operators are unshifted, over one n-vertex snapshot")
        inv = np.stack([np.repeat(op.inv_deg.T, self.d, axis=1) for op in self.ops])
        inv.flags.writeable = False
        object.__setattr__(self, "inv", inv)


def carry_operators(block: StBlockGraph, graphs: Iterable[str], d: int) -> CarryDiffusion:
    """Block row 0 of the named ``graphs``' operators, unshifted, for a d-feature carry.

    No hop moves the carry out of snapshot 0, and row 0 is the same in every
    block of two or more snapshots, so one set serves every carried block.
    """
    if block.m < 2:
        raise ArgumentError("a carried block has at least two snapshots")
    ops = (getattr(block, graph) for graph in graphs)
    return CarryDiffusion(tuple(BlockDiffusion(op.spatial, op.inv_deg[:1], 0) for op in ops), d)
