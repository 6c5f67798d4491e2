"""Block spatial-temporal graphs built from m consecutive snapshots.

Vertex (t, i) lives at flat index t*n + i (snapshot-major).  The coupled
graph is upper block-bidiagonal: the spatial adjacency on the diagonal and
the coupling matrix C (identity by default, weight 1) on the first
superdiagonal block, so information flows forward in time only.  The
decoupled variant drops the couplings entirely and is block-diagonal.

Both adjacencies are row-normalized into transition matrices, and their
first K matrix powers are precomputed once since the topology never changes
during training.  The backward pass multiplies by a transposed view of each
power's dense copy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .sparse import SparseMatrix, add_self_loops, matrix_power, transition_matrix


@dataclass(frozen=True)
class StBlockGraph:
    m: int
    n: int
    hstg_adjacency: SparseMatrix
    nhstg_adjacency: SparseMatrix
    hstg_transition: SparseMatrix
    nhstg_transition: SparseMatrix
    hop_powers_h: tuple
    hop_powers_nh: tuple


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
    if g.n == 0:
        raise ArgumentError("empty graph")
    spatial = add_self_loops(g.adjacency) if self_loops else g.adjacency
    return _assemble([(t, t, spatial) for t in range(m)], m, g.n)


def build_hstg_adjacency(
    g: SensorGraph,
    m: int,
    *,
    coupling: SparseMatrix | None = None,
    self_loops: bool = True,
    temporal_direction: str = "as_written",
) -> SparseMatrix:
    if m < 2:
        raise ArgumentError("coupled graph needs at least two snapshots")
    if g.n == 0:
        raise ArgumentError("empty graph")
    if temporal_direction not in ("as_written", "transposed"):
        raise ArgumentError(f"unknown temporal_direction {temporal_direction!r}")
    c = SparseMatrix.identity(g.n) if coupling is None else coupling
    if c.rows != g.n or c.cols != g.n:
        raise ShapeError("coupling matrix must be n x n")
    if c.nnz and c.values.min() < 0:
        raise ArgumentError("coupling weights must be nonnegative")
    spatial = add_self_loops(g.adjacency) if self_loops else g.adjacency
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
    coupling: SparseMatrix | None = None,
    num_hops: int = 1,
    self_loops: bool = True,
    temporal_direction: str = "as_written",
) -> StBlockGraph:
    """Build both block graphs, their transition matrices and K hop powers."""
    if num_hops < 1:
        raise ArgumentError("num_hops must be >= 1")
    if m >= 2:
        w_h = build_hstg_adjacency(
            g, m, coupling=coupling, self_loops=self_loops,
            temporal_direction=temporal_direction,
        )
    else:
        # degenerate single-snapshot block: no couplings exist
        w_h = build_nhstg_adjacency(g, m, self_loops=self_loops)
    w_nh = build_nhstg_adjacency(g, m, self_loops=self_loops)
    p_h = transition_matrix(w_h)
    p_nh = transition_matrix(w_nh)
    pow_h = [matrix_power(p_h, 1)]
    pow_nh = [matrix_power(p_nh, 1)]
    for _ in range(num_hops - 1):
        pow_h.append(pow_h[-1].matmul_sparse(p_h))
        pow_nh.append(pow_nh[-1].matmul_sparse(p_nh))
    return StBlockGraph(
        m=m,
        n=g.n,
        hstg_adjacency=w_h,
        nhstg_adjacency=w_nh,
        hstg_transition=p_h,
        nhstg_transition=p_nh,
        hop_powers_h=tuple(pow_h),
        hop_powers_nh=tuple(pow_nh),
    )


def build_nhstg(g: SensorGraph, m: int, *, self_loops: bool = True) -> SparseMatrix:
    """Row-normalized block-diagonal transition matrix."""
    return transition_matrix(build_nhstg_adjacency(g, m, self_loops=self_loops))


def stack_features(snapshots: list[np.ndarray]) -> np.ndarray:
    """Stack m feature matrices (n x d) into an (m, n, d) tensor.

    The flattened (m*n, d) view follows the t*n + i vertex convention:
    ``stacked.reshape(m * n, d)``.
    """
    if not snapshots:
        raise ShapeError("nothing to stack")
    first = np.asarray(snapshots[0], dtype=np.float64)
    mats = []
    for s in snapshots:
        s = np.asarray(s, dtype=np.float64)
        if s.shape != first.shape or s.ndim != 2:
            raise ShapeError("all snapshots must share the same (n, d) shape")
        mats.append(s)
    return np.stack(mats, axis=0)


def hop_power(p: SparseMatrix, k: int) -> SparseMatrix:
    """Exact k-th power of a transition matrix."""
    return matrix_power(p, k)
