import numpy as np
import pytest

import stdiff.autodiff as ad
from stdiff.autodiff import Tape, Tensor
from stdiff.errors import ArgumentError, ShapeError
from stdiff.graph import SensorGraph
from stdiff.sparse import SparseMatrix, sparsify
from stdiff.stgraph import (_block_diffusion, build_hstg, build_hstg_adjacency,
                            build_nhstg_adjacency, carry_operators)

from conftest import random_sensor_graph


def two_vertex_swap_graph():
    return SensorGraph(2, ("a", "b"), sparsify([[0, 1], [1, 0]]))


def dense_block_oracle(spatial, m):
    """Assemble the coupled block matrix densely, term by term."""
    n = spatial.shape[0]
    out = np.zeros((m * n, m * n))
    for t in range(m):
        out[t * n:(t + 1) * n, t * n:(t + 1) * n] = spatial
    for t in range(m - 1):
        out[t * n:(t + 1) * n, (t + 1) * n:(t + 2) * n] = np.eye(n)
    return out


def row_normalize(a):
    deg = a.sum(axis=1, keepdims=True)
    return np.where(deg > 0, a / np.where(deg > 0, deg, 1), 0.0)


class TestBlockLayout:
    def test_hand_assembled_two_by_two(self):
        # n=2, m=2, W = swap, C = I: [[W + I, I], [0, W + I]]
        adj = build_hstg_adjacency(two_vertex_swap_graph(), 2)
        expected = [[1, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, 1]]
        assert np.array_equal(adj.to_dense(), expected)

    def test_single_vertex_chain_is_shift(self):
        # the self-loop on the diagonal, the shift above it
        g = SensorGraph(1, ("a",), sparsify(np.zeros((1, 1))))
        adj = build_hstg_adjacency(g, 3)
        assert np.array_equal(adj.to_dense(),
                              [[1, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_nhstg_block_diagonal(self):
        adj = build_nhstg_adjacency(two_vertex_swap_graph(), 2)
        w = np.array([[1, 1], [1, 1]])
        expected = np.block([[w, np.zeros((2, 2))], [np.zeros((2, 2)), w]])
        assert np.array_equal(adj.to_dense(), expected)

    def test_m_below_two_rejected(self):
        with pytest.raises(ArgumentError):
            build_hstg_adjacency(two_vertex_swap_graph(), 1)


class TestDenseOracleEquivalence:
    def test_random_instances(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            g = random_sensor_graph(rng, n)
            w = g.adjacency.to_dense()
            block = build_hstg(g, m, num_hops=2)
            expected_h = row_normalize(dense_block_oracle(w + np.eye(n), m))
            expected_nh = row_normalize(
                np.kron(np.eye(m), w + np.eye(n)))
            assert np.max(np.abs(block.hstg_transition.to_dense() - expected_h)) < 1e-12
            assert np.max(np.abs(block.nhstg_transition.to_dense() - expected_nh)) < 1e-12

    def test_kron_adjacencies_match_block_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            g = random_sensor_graph(rng, n)
            expected = dense_block_oracle(g.adjacency.to_dense() + np.eye(n), m)
            diagonal_blocks = np.kron(np.eye(m), np.ones((n, n)))
            h = build_hstg_adjacency(g, m)
            nh = build_nhstg_adjacency(g, m)
            assert np.array_equal(h.to_dense(), expected)
            assert np.array_equal(nh.to_dense(), expected * diagonal_blocks)

    def test_nhstg_m1_equals_single_snapshot_transition(self, rng):
        g = random_sensor_graph(rng, 4)
        from stdiff.sparse import add_self_loops, transition_matrix
        single = transition_matrix(add_self_loops(g.adjacency))
        assert build_hstg(g, 1).nhstg_transition == single


class TestStructureInvariants:
    def test_hstg_entries_stay_within_adjacent_blocks(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            block = build_hstg(random_sensor_graph(rng, n), m)
            p = block.hstg_transition
            rows, cols, _ = p.nonzero()
            br, bc = rows // n, cols // n
            assert np.all((bc == br) | (bc == br + 1))

    def test_nhstg_block_diagonality(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            p = build_hstg(random_sensor_graph(rng, n), m).nhstg_transition
            rows, cols, _ = p.nonzero()
            assert np.all(rows // n == cols // n)

    def test_last_block_row_has_no_coupling(self, rng):
        n, m = 3, 4
        adj = build_hstg_adjacency(random_sensor_graph(rng, n), m)
        dense = adj.to_dense()
        assert np.all(dense[(m - 1) * n:, :(m - 1) * n] == 0)

    def test_transition_rows_sum_to_one_or_zero(self, rng):
        for _ in range(20):
            block = build_hstg(random_sensor_graph(rng, int(rng.integers(1, 6))),
                               int(rng.integers(2, 5)))
            for p in (block.hstg_transition, block.nhstg_transition):
                sums = p.row_degrees()
                assert np.all((np.abs(sums - 1) < 1e-12) | (np.abs(sums) < 1e-12))


class TestHopPowers:
    def test_first_power_is_p_itself(self, rng):
        g = random_sensor_graph(rng, 3)
        block = build_hstg(g, 2, num_hops=3)
        assert block.hop_powers_h[0] == block.hstg_transition
        assert block.hop_powers_nh[0] == block.nhstg_transition

    def test_nilpotent_shift(self):
        # one edgeless vertex without a self-loop: each hop is a pure shift,
        # and the last snapshot's row has degree zero
        spatial = sparsify(np.zeros((1, 1)))
        op = _block_diffusion(spatial, 3, 1, spatial.row_degrees())
        hop = np.eye(3)  # flat (m*n, d): P @ I is P
        for want in ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                     np.zeros((3, 3))):
            hop = op.apply(hop)
            assert np.array_equal(hop, want)

    def test_cached_powers_match_dense_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(2, 5))
            k_hops = int(rng.integers(1, 6))
            block = build_hstg(random_sensor_graph(rng, n), m, num_hops=k_hops)
            for powers, p in ((block.hop_powers_h, block.hstg_transition),
                              (block.hop_powers_nh, block.nhstg_transition)):
                assert len(powers) == k_hops
                expected = p.to_dense()
                for k in range(k_hops):
                    assert np.max(np.abs(powers[k].to_dense() - expected)) < 1e-12
                    expected = expected @ p.to_dense()

    def test_invalid_hop_rejected(self, rng):
        with pytest.raises(ArgumentError):
            build_hstg(random_sensor_graph(rng, 3), 2, num_hops=0)


class TestStackFeatures:
    """Snapshots stacked into an (m, n, d) block, as the encoder builds them."""

    def test_single_snapshot_identity(self, rng):
        x = rng.random((1, 3, 2))
        assert np.array_equal(ad.slice_time(Tape(), Tensor(x), 0, 1).value[0], x[0])

    def test_stacking_order(self):
        carry = Tensor(np.array([[5.0]]))
        history = Tensor(np.array([[[7.0]]]))
        stacked = ad.slice_time(Tape(), history, 0, 1, carry=carry).value
        assert np.array_equal(stacked.reshape(2, 1), [[5.0], [7.0]])


class TestBlockAssembly:
    """The (m, n, d) block the encoder assembles, and its flat (m*n, d) view."""

    def test_slice_time_puts_carry_first_then_snapshots_in_order(self, rng):
        x = rng.standard_normal((2, 5, 3, 4))
        carry = rng.standard_normal((2, 3, 4))
        block = ad.slice_time(Tape(), Tensor(x), 1, 4, carry=Tensor(carry)).value
        assert block.shape == (2, 4, 3, 4)
        assert np.array_equal(block[:, 0], carry)
        for t in range(3):
            assert np.array_equal(block[:, 1 + t], x[:, 1 + t])
        plain = ad.slice_time(Tape(), Tensor(x), 1, 4).value
        assert np.array_equal(plain, x[:, 1:4])
        for bad in ((3, 4), (2, 3, 5), (1, 3, 4)):
            with pytest.raises(ShapeError):
                ad.slice_time(Tape(), Tensor(x), 1, 4, carry=Tensor(np.zeros(bad)))

    def test_block_diffusion_flat_and_block_layouts_agree(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            block = build_hstg(random_sensor_graph(rng, n), m)
            x = rng.standard_normal((2, m, n, d))
            flat = x.reshape(2, m * n, d)
            for t in range(m):  # flat row t*n + i is snapshot t, vertex i
                for i in range(n):
                    assert np.array_equal(flat[:, t * n + i], x[:, t, i])
            for op in (block.coupled, block.decoupled):
                for fn in (op.apply, op.apply_transpose):
                    got = fn(x)
                    assert got.shape == x.shape
                    assert np.array_equal(got.reshape(flat.shape), fn(flat))


class TestBlockDiffusion:
    """The structured operators against the assembled spec matrices."""

    def test_apply_and_transpose_match_assembled_matrices(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 6))
            lead = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(0, 3))))
            d = int(rng.integers(1, 4))
            g = random_sensor_graph(rng, n)
            block = build_hstg(g, m)
            x = rng.standard_normal(lead + (m * n, d))
            # the same operators over A alone, whose zero-degree rows must stay zero
            w, deg = g.adjacency.to_dense(), g.adjacency.row_degrees()
            bare_h = dense_block_oracle(w, m) if m > 1 else w
            cases = ((block.coupled, block.hstg_transition.to_dense()),
                     (block.decoupled, block.nhstg_transition.to_dense()),
                     (_block_diffusion(g.adjacency, m, int(m > 1), deg), row_normalize(bare_h)),
                     (_block_diffusion(g.adjacency, m, 0, deg),
                      row_normalize(np.kron(np.eye(m), w))))
            for op, dense in cases:
                got, got_t = op.apply(x), op.apply_transpose(x)
                assert got.shape == got_t.shape == x.shape
                assert np.max(np.abs(got - dense @ x), initial=0.0) < 1e-12
                assert np.max(np.abs(got_t - dense.T @ x), initial=0.0) < 1e-12

    def test_memory_is_one_spatial_matrix(self, rng):
        block = build_hstg(random_sensor_graph(rng, 5), 4, num_hops=3)
        assert block.coupled.spatial is block.decoupled.spatial
        assert block.coupled.spatial.dense.shape == (5, 5)
        assert block.coupled.inv_deg.shape == (4, 5)

    def test_shift_direction(self, rng):
        g = random_sensor_graph(rng, 3)
        assert build_hstg(g, 3).coupled.shift == 1
        assert build_hstg(g, 3).decoupled.shift == 0
        assert build_hstg(g, 1).coupled.shift == 0

    def test_row0_operators_are_block_row_0_of_a_carried_snapshot(self, rng):
        # one set of carry operators serves every block of two or more snapshots
        g = random_sensor_graph(rng, 4)
        names = ("decoupled", "coupled")
        carry_ops = carry_operators(build_hstg(g, 2), names, 3)
        for m in (2, 3, 5):
            block = build_hstg(g, m)
            x = np.zeros((2, m, 4, 3))
            x[:, 0] = rng.standard_normal((2, 4, 3))  # the carry, with the later snapshots zero
            for name, row0 in zip(names, carry_ops.ops, strict=True):
                op = getattr(block, name)
                assert row0.spatial is op.spatial and row0.shift == 0
                assert np.array_equal(row0.inv_deg, op.inv_deg[:1])
                assert np.array_equal(row0.apply(x[:, :1]), op.apply(x)[:, :1])
        with pytest.raises(ArgumentError):
            carry_operators(build_hstg(g, 1), names, 3)

    def test_carry_inverse_degrees_are_the_operators_over_d_features(self, rng):
        carry_ops = carry_operators(build_hstg(random_sensor_graph(rng, 4), 3),
                                    ("coupled", "decoupled"), 5)
        assert carry_ops.d == 5 and carry_ops.inv.shape == (2, 4, 5)
        assert not carry_ops.inv.flags.writeable
        for op, inv in zip(carry_ops.ops, carry_ops.inv, strict=True):
            assert np.array_equal(inv, np.broadcast_to(op.inv_deg[0][:, None], inv.shape))

    def test_rows_summed_once_per_block_graph(self, rng, monkeypatch):
        # both operators share the degrees of A + I; each bit as if summed alone
        calls = []
        row_degrees = SparseMatrix.row_degrees

        def counting(self):
            calls.append(self)
            return row_degrees(self)

        g = random_sensor_graph(rng, 5)
        monkeypatch.setattr(SparseMatrix, "row_degrees", counting)
        for m in (1, 2, 4):
            calls.clear()
            block = build_hstg(g, m)
            assert calls == [g.self_looped]
            for op in (block.coupled, block.decoupled):
                alone = _block_diffusion(op.spatial, m, op.shift, op.spatial.row_degrees())
                assert np.array_equal(op.inv_deg, alone.inv_deg)

    def test_shape_mismatch(self, rng):
        op = build_hstg(random_sensor_graph(rng, 3), 2).coupled
        with pytest.raises(ShapeError):
            op.apply(rng.random((5, 2)))
        with pytest.raises(ShapeError):
            op.apply_transpose(rng.random(6))

    def test_invalid_arguments_rejected(self, rng):
        g = random_sensor_graph(rng, 3)
        with pytest.raises(ArgumentError):
            build_hstg(g, 0)
