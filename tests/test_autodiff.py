import tracemalloc
import weakref

import numpy as np
import pytest

import stdiff.autodiff as ad
from stdiff.autodiff import ParamArray, Tape, Tensor, grad_check
from stdiff.errors import ArgumentError, NumericError, ShapeError
from stdiff.graph import SensorGraph
from stdiff.model import IstdGcnModel, ModelConfig, forward
from stdiff.sparse import sparsify
from stdiff.stgraph import _block_diffusion, build_hstg
from stdiff.training import mae_l2_loss

from conftest import random_sensor_graph


def project(tape, out, weights):
    """Scalar readout sum(out * weights) as a taped op."""
    w = np.asarray(weights)
    loss = Tensor((out.value * w).sum())

    def backward():
        out.ensure_grad()
        out.grad += loss.grad * w

    tape.record(backward)
    return loss


def check_op(params, build, rng, tol=1e-4):
    """Finite-difference check: build(tape) -> output Tensor."""
    w = rng.standard_normal(build(Tape()).value.shape)

    def loss_fn(tape):
        return project(tape, build(tape), w)

    reports = grad_check(loss_fn, params, tol=tol, rng=rng)
    assert all(r.passed for r in reports), reports
    return reports


class TestLinear:
    def test_identity_theta(self, rng):
        x = Tensor(rng.random((4, 3)))
        y = ad.linear(Tape(), x, Tensor(np.eye(3)))
        assert np.array_equal(y.value, x.value)

    def test_zero_input_zero_grad(self, rng):
        theta = ParamArray("t", rng.random((3, 2)))
        tape = Tape()
        y = ad.linear(tape, Tensor(np.zeros((4, 3))), theta)
        loss = project(tape, y, np.ones(y.value.shape))
        tape.backward(loss)
        assert np.array_equal(y.value, np.zeros((4, 2)))
        assert np.array_equal(theta.grad, np.zeros((3, 2)))

    def test_finite_differences(self, rng):
        for _ in range(100):
            x = ParamArray("x", rng.standard_normal((4, 3)))
            theta = ParamArray("theta", rng.standard_normal((3, 2)))
            check_op([x, theta], lambda tape: ad.linear(tape, x, theta), rng)

    def test_batched_leading_axes(self, rng):
        x = ParamArray("x", rng.standard_normal((2, 3, 4, 3)))
        theta = ParamArray("theta", rng.standard_normal((3, 2)))
        check_op([x, theta], lambda tape: ad.linear(tape, x, theta), rng)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ad.linear(Tape(), Tensor(rng.random((2, 3))), Tensor(rng.random((4, 2))))
        with pytest.raises(ShapeError):
            ad.linear(Tape(), rng.random((2, 3)), Tensor(rng.random((4, 2))))

    def test_plain_array_input_is_data(self, rng):
        # the same theta gradient as a Tensor input gives, and no input gradient
        data = rng.standard_normal((2, 4, 3))
        w = rng.standard_normal((2, 4, 2))
        grads = []
        for x in (data, Tensor(data)):
            theta = ParamArray("theta", rng.standard_normal((3, 2)))
            tape = Tape()
            tape.backward(project(tape, ad.linear(tape, x, theta), w))
            grads.append(theta.grad)
        assert np.array_equal(grads[0], grads[1])
        assert np.array_equal(grads[0], data.reshape(-1, 3).T @ w.reshape(-1, 2))


def edgeless_block(n, m):
    g = SensorGraph(n, tuple(f"v{i}" for i in range(n)), sparsify(np.zeros((n, n))))
    return build_hstg(g, m)


def random_operator(rng):
    block = build_hstg(random_sensor_graph(rng, int(rng.integers(1, 5))),
                       int(rng.integers(1, 4)))
    return block.coupled if rng.integers(2) else block.decoupled


class TestSpmmDiff:
    def test_identity_passthrough(self, rng):
        # an edgeless graph with self-loops diffuses every vertex onto itself
        op = edgeless_block(5, 1).decoupled
        x = ParamArray("x", rng.standard_normal((5, 2)))
        tape = Tape()
        y = ad.spmm_diff(tape, [op], x, 1)
        loss = project(tape, y, np.ones(y.value.shape))
        tape.backward(loss)
        assert np.array_equal(y.value, x.value)
        assert np.array_equal(x.grad, np.ones((5, 2)))

    def test_shift_semantics(self, rng):
        # one edgeless vertex without a self-loop: the coupled graph is a pure
        # shift, and the last snapshot's row has degree zero
        op = _block_diffusion(sparsify(np.zeros((1, 1))), 3, 1)
        x = Tensor(rng.random((3, 2)))
        y = ad.spmm_diff(Tape(), [op], x, 1)
        assert np.array_equal(y.value[:2], x.value[1:])
        assert np.array_equal(y.value[2], np.zeros(2))

    def test_finite_differences(self, rng):
        for trial in range(100):
            op = random_operator(rng)
            lead = (2,) if trial % 4 == 0 else ()
            x = ParamArray("x", rng.standard_normal(lead + (op.m * op.n, 3)))
            check_op([x], lambda tape: ad.spmm_diff(tape, [op], x, 1), rng)

    def test_shape_mismatch(self, rng):
        op = edgeless_block(2, 2).coupled
        with pytest.raises(ShapeError):
            ad.spmm_diff(Tape(), [op], Tensor(rng.random((3, 2))), 1)



def random_block(rng):
    return build_hstg(random_sensor_graph(rng, int(rng.integers(1, 5))),
                      int(rng.integers(2, 4)))


def block_input(rng, op, lead, flat, d=2):
    tail = (op.m * op.n, d) if flat else (op.m, op.n, d)
    return rng.standard_normal(lead + tail)


def chained_hops(tape, ops, x, k_hops):
    """The per-hop composition: a one-hop spmm_diff per hop and operator, then a concat."""
    hops, prev = [], [x] * len(ops)
    for _ in range(k_hops):
        for i, op in enumerate(ops):
            prev[i] = ad.spmm_diff(tape, [op], prev[i], 1)
            hops.append(prev[i])
    return ad.concat_features(tape, hops)


class TestFusedDiffusion:
    @pytest.mark.parametrize("k_hops", [1, 2, 3])
    @pytest.mark.parametrize("n_ops", [1, 2])
    def test_finite_differences(self, rng, n_ops, k_hops):
        # trials 0..5 cover every (leading axes, layout) pair
        for trial in range(6):
            block = random_block(rng)
            pair = [block.decoupled, block.coupled]
            ops = (pair if trial % 4 < 2 else pair[::-1])[:n_ops]
            lead = ((), (2,), (2, 3))[trial % 3]
            x = ParamArray("x", block_input(rng, ops[0], lead, flat=trial % 2 == 1))
            check_op([x], lambda tape: ad.spmm_diff(tape, ops, x, k_hops), rng)

    def test_forward_equals_chained_apply(self, rng):
        for trial in range(24):
            block = random_block(rng)
            ops = [[block.decoupled], [block.coupled, block.decoupled]][trial % 2]
            k_hops = 1 + trial % 3
            x = block_input(rng, ops[0], ((), (3,), (2, 2))[trial % 3], flat=trial % 4 < 2,
                            d=3)
            hops, prev = [], [x] * len(ops)
            for _ in range(k_hops):
                for i, op in enumerate(ops):
                    prev[i] = op.apply(prev[i])
                    hops.append(prev[i])
            got = ad.spmm_diff(Tape(), ops, Tensor(x), k_hops).value
            want = np.concatenate(hops, axis=-1)
            assert got.shape == want.shape == x.shape[:-1] + (k_hops * len(ops) * 3,)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_gradient_equals_per_hop_composition(self, rng):
        for trial in range(24):
            block = random_block(rng)
            ops = [[block.coupled], [block.decoupled, block.coupled]][trial % 2]
            k_hops = 1 + trial % 3
            x = ParamArray("x", block_input(rng, ops[0], ((), (2,), (2, 3))[trial % 3],
                                            flat=trial % 4 < 2, d=3))
            w = rng.standard_normal(x.value.shape[:-1] + (k_hops * len(ops) * 3,))
            grads = []
            for build in (lambda tape: ad.spmm_diff(tape, ops, x, k_hops),
                          lambda tape: chained_hops(tape, ops, x, k_hops)):
                x.zero_grad()
                tape = Tape()
                tape.backward(project(tape, build(tape), w))
                grads.append(x.grad.copy())
            assert np.max(np.abs(grads[0] - grads[1])) < 1e-10

    def test_backward_leaves_output_gradient_untouched(self, rng):
        block = random_block(rng)
        x = ParamArray("x", block_input(rng, block.coupled, (2,), flat=False))
        tape = Tape()
        z = ad.spmm_diff(tape, [block.decoupled, block.coupled], x, 3)
        w = rng.standard_normal(z.value.shape)
        tape.backward(project(tape, z, w))
        assert np.array_equal(z.grad, w)

    @pytest.mark.parametrize("ops_count,k_hops", [(0, 1), (1, 0)])
    def test_needs_an_operator_and_a_hop(self, rng, ops_count, k_hops):
        block = random_block(rng)
        x = Tensor(block_input(rng, block.coupled, (), flat=False))
        with pytest.raises(ArgumentError):
            ad.spmm_diff(Tape(), [block.coupled] * ops_count, x, k_hops)


def zeros_like(x):
    return Tensor(np.zeros_like(x.value))


class TestLayerNorm:
    def make(self, rng, d):
        return (ParamArray("scale", rng.standard_normal(d) + 1.0),
                ParamArray("shift", rng.standard_normal(d)))

    def test_constant_row_maps_to_shift(self):
        scale = ParamArray("s", np.ones(4))
        shift = ParamArray("b", np.zeros(4))
        x = Tensor(np.full((2, 4), 3.0))
        y = ad.layer_norm(Tape(), x, zeros_like(x), scale, shift)
        assert np.allclose(y.value, 0.0)

    def test_unit_variance_row(self):
        scale = ParamArray("s", np.ones(2))
        shift = ParamArray("b", np.zeros(2))
        x = Tensor(np.array([[1.0, -1.0]]))
        y = ad.layer_norm(Tape(), x, zeros_like(x), scale, shift, eps=1e-300)
        assert np.allclose(y.value, [[1.0, -1.0]], atol=1e-12)

    def test_normalized_moments(self, rng):
        x = Tensor(rng.standard_normal((20, 8)) * 3 + 5)
        scale = ParamArray("s", np.ones(8))
        shift = ParamArray("b", np.zeros(8))
        y = ad.layer_norm(Tape(), x, zeros_like(x), scale, shift, eps=1e-12).value
        assert np.max(np.abs(y.mean(axis=1))) < 1e-10
        assert np.max(np.abs((y ** 2).mean(axis=1) - 1.0)) < 1e-6

    def test_finite_differences(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 6))
            x = ParamArray("x", rng.standard_normal((3, d)))
            scale, shift = self.make(rng, d)
            check_op([x, scale, shift],
                     lambda tape: ad.layer_norm(tape, x, zeros_like(x), scale, shift),
                     rng, tol=1e-4)

    def test_grouped_finite_differences(self, rng):
        # three channels share the residual x; each normalizes x + its slice of y
        for trial in range(30):
            d = int(rng.integers(2, 5))
            lead = (2, 3) if trial % 3 == 0 else (3,)
            x = ParamArray("x", rng.standard_normal(lead + (d,)))
            y = ParamArray("y", rng.standard_normal(lead + (3 * d,)))
            scale, shift = self.make(rng, 3 * d)
            check_op([x, y, scale, shift],
                     lambda tape: ad.layer_norm(tape, x, y, scale, shift), rng, tol=1e-4)

    def test_grouped_matches_per_channel_numpy(self, rng):
        d, s, eps = 4, 3, 1e-5
        x = rng.standard_normal((2, 5, d))
        y = rng.standard_normal((2, 5, s * d)) * 2 + 1
        scale = rng.standard_normal(s * d) + 1.0
        shift = rng.standard_normal(s * d)
        got = ad.layer_norm(Tape(), Tensor(x), Tensor(y), Tensor(scale), Tensor(shift),
                            eps=eps).value
        for c in range(s):
            cols = slice(c * d, (c + 1) * d)
            acc = x + y[..., cols]
            mu = acc.mean(axis=-1, keepdims=True)
            var = ((acc - mu) ** 2).mean(axis=-1, keepdims=True)
            want = (acc - mu) / np.sqrt(var + eps) * scale[cols] + shift[cols]
            assert np.max(np.abs(got[..., cols] - want)) < 1e-12

    @pytest.mark.parametrize("d", [1, 8, 128])
    @pytest.mark.parametrize("s", [1, 3])
    def test_matches_per_channel_formula(self, rng, s, d):
        # forward and backward against the textbook per-channel numpy formulas
        eps = 1e-5
        x = ParamArray("x", rng.standard_normal((2, 5, d)) * 3 + 1)
        y = ParamArray("y", rng.standard_normal((2, 5, s * d)))
        scale, shift = self.make(rng, s * d)
        g = rng.standard_normal((2, 5, s * d))
        tape = Tape()
        out = ad.layer_norm(tape, x, y, scale, shift, eps=eps)
        tape.backward(project(tape, out, g))
        want_dx = np.zeros_like(x.value)
        for c in range(s):
            cols = slice(c * d, (c + 1) * d)
            acc = x.value + y.value[..., cols]
            mu = acc.mean(axis=-1, keepdims=True)
            var = ((acc - mu) ** 2).mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + eps)
            xhat = (acc - mu) * inv
            assert np.max(np.abs(out.value[..., cols] - (xhat * scale.value[cols]
                                                         + shift.value[cols]))) < 1e-12
            dxhat = g[..., cols] * scale.value[cols]
            dacc = (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
            want_dx += dacc
            assert np.max(np.abs(y.grad[..., cols] - dacc)) < 1e-12
            assert np.max(np.abs(scale.grad[cols] - (g[..., cols] * xhat).sum(axis=(0, 1)))) < 1e-12
            assert np.max(np.abs(shift.grad[cols] - g[..., cols].sum(axis=(0, 1)))) < 1e-12
        assert np.max(np.abs(x.grad - want_dx)) < 1e-12

    def test_snapshot_term_joins_sum_in_snapshot_zero(self, rng):
        # LN(X + Y, y0) equals LN(X + Y') with y0 added into Y's snapshot 0
        d, s = 3, 2
        x = ParamArray("x", rng.standard_normal((2, 3, 4, d)))
        y = ParamArray("y", rng.standard_normal((2, 3, 4, s * d)))
        y0 = ParamArray("y0", rng.standard_normal((2, 4, s * d)))
        scale, shift = self.make(rng, s * d)
        g = rng.standard_normal(y.value.shape)
        params = [x, y, scale, shift]
        runs = []
        for joined in (True, False):
            for p in params + [y0]:
                p.zero_grad()
            tape = Tape()
            if joined:
                out = ad.layer_norm(tape, x, y, scale, shift, y0=y0)
            else:
                padded = ParamArray("padded", y.value.copy())
                padded.value[:, 0] += y0.value
                out = ad.layer_norm(tape, x, padded, scale, shift)
            tape.backward(project(tape, out, g))
            grads = [p.grad.copy() for p in params]
            runs.append((out.value, grads, y0.grad.copy() if joined else padded.grad[:, 0]))
        (got, got_grads, got_dy0), (want, want_grads, want_dy0) = runs
        assert np.max(np.abs(got - want)) < 1e-12
        for p, a, b in zip(params[:1] + params[2:], got_grads[:1] + got_grads[2:],
                           want_grads[:1] + want_grads[2:]):
            assert np.max(np.abs(a - b)) < 1e-12, p.name
        assert np.max(np.abs(got_dy0 - want_dy0)) < 1e-12

    def test_snapshot_term_finite_differences(self, rng):
        x = ParamArray("x", rng.standard_normal((3, 2, 2)))
        y = ParamArray("y", rng.standard_normal((3, 2, 4)))
        y0 = ParamArray("y0", rng.standard_normal((2, 4)))
        scale, shift = self.make(rng, 4)
        check_op([x, y, y0, scale, shift],
                 lambda tape: ad.layer_norm(tape, x, y, scale, shift, y0=y0), rng)

    @pytest.mark.parametrize("y_shape,y0_shape", [((3, 2, 4), (3, 4)), ((2, 4), (4,)),
                                                  ((3, 2, 4), (1, 2, 4))])
    def test_snapshot_term_shape_errors(self, rng, y_shape, y0_shape):
        scale, shift = self.make(rng, 4)
        x = Tensor(rng.random(y_shape[:-1] + (2,)))
        with pytest.raises(ShapeError):
            ad.layer_norm(Tape(), x, Tensor(rng.random(y_shape)), scale, shift,
                          y0=Tensor(rng.random(y0_shape)))

    @pytest.mark.parametrize("x_shape,y_shape,width", [
        ((3, 4), (3, 10), 10),   # y width not a multiple of d
        ((3, 4), (2, 12), 12),   # rows disagree
        ((3, 4), (3, 12), 4),    # scale/shift sized for one channel
    ])
    def test_grouped_shape_errors(self, rng, x_shape, y_shape, width):
        scale, shift = self.make(rng, width)
        with pytest.raises(ShapeError):
            ad.layer_norm(Tape(), Tensor(rng.random(x_shape)), Tensor(rng.random(y_shape)),
                          scale, shift)


class TestTemporalCompress:
    def test_single_snapshot_ones_kernel(self, rng):
        x = Tensor(rng.random((1, 4, 3)))
        k = ParamArray("k", np.ones((1, 3)))
        y = ad.temporal_compress(Tape(), x, k)
        assert np.array_equal(y.value, x.value[0])

    def test_mean_kernel(self, rng):
        x = Tensor(rng.random((4, 2, 3)))
        k = ParamArray("k", np.full((4, 3), 0.25))
        y = ad.temporal_compress(Tape(), x, k)
        assert np.allclose(y.value, x.value.mean(axis=0), atol=1e-15)

    def test_kernel_slice_only_touched_rows_get_grad(self, rng):
        x = ParamArray("x", rng.standard_normal((2, 3, 2)))
        k = ParamArray("k", rng.standard_normal((5, 2)))  # extent 5, input uses 2
        tape = Tape()
        y = ad.temporal_compress(tape, x, k)
        loss = project(tape, y, np.ones(y.value.shape))
        tape.backward(loss)
        assert np.all(k.grad[2:] == 0.0)

    def test_finite_differences(self, rng):
        for _ in range(100):
            m, n, d = 3, 2, 2
            x = ParamArray("x", rng.standard_normal((m, n, d)))
            k = ParamArray("k", rng.standard_normal((m, d)))
            check_op([x, k], lambda tape: ad.temporal_compress(tape, x, k), rng)


class TestConcatFeatures:
    def test_single_part_identity(self, rng):
        x = Tensor(rng.random((3, 2)))
        assert np.array_equal(ad.concat_features(Tape(), [x]).value, x.value)

    def test_two_scalars(self):
        y = ad.concat_features(Tape(), [Tensor([[1.0]]), Tensor([[2.0]])])
        assert np.array_equal(y.value, [[1.0, 2.0]])

    def test_backward_round_trip(self, rng):
        parts = [ParamArray(f"p{i}", rng.standard_normal((3, 2))) for i in range(3)]
        tape = Tape()
        out = ad.concat_features(tape, parts)
        g = rng.standard_normal(out.value.shape)
        loss = project(tape, out, g)
        tape.backward(loss)
        for i, p in enumerate(parts):
            assert np.array_equal(p.grad, g[:, 2 * i:2 * i + 2])

    def test_finite_differences(self, rng):
        parts = [ParamArray(f"p{i}", rng.standard_normal((2, 3))) for i in range(2)]
        check_op(parts, lambda tape: ad.concat_features(tape, parts), rng)

    def test_row_axis_backward_split(self, rng):
        parts = [ParamArray(f"p{i}", rng.standard_normal((i + 1, 2))) for i in range(3)]
        tape = Tape()
        out = ad.concat_features(tape, parts, axis=0)
        assert out.value.shape == (6, 2)
        g = rng.standard_normal(out.value.shape)
        loss = project(tape, out, g)
        tape.backward(loss)
        assert np.array_equal(parts[0].grad, g[0:1])
        assert np.array_equal(parts[1].grad, g[1:3])
        assert np.array_equal(parts[2].grad, g[3:6])

    def test_row_axis_finite_differences(self, rng):
        parts = [ParamArray(f"p{i}", rng.standard_normal((3, 2))) for i in range(2)]
        check_op(parts, lambda tape: ad.concat_features(tape, parts, axis=0), rng)

    def test_shape_check_ignores_only_the_concat_axis(self, rng):
        a, b = Tensor(rng.random((2, 3))), Tensor(rng.random((2, 4)))
        with pytest.raises(ShapeError):
            ad.concat_features(Tape(), [a, b], axis=0)
        assert ad.concat_features(Tape(), [a, b]).value.shape == (2, 7)


class TestKronLinear:
    @pytest.mark.parametrize("r,a,f,c", [(1, 1, 3, 2), (2, 1, 4, 6), (3, 2, 3, 5)])
    def test_forward_equals_kron_product(self, rng, r, a, f, c):
        e, theta = rng.standard_normal((a, f)), rng.standard_normal((r * f, c))
        got = ad.kron_linear(Tape(), Tensor(e), Tensor(theta)).value
        want = np.kron(np.eye(r), e) @ theta
        assert got.shape == (r * a, c)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_folds_the_gemm_of_kron_features(self, rng):
        # (Z ⊗ E) Theta = Z (I ⊗ E) Theta, Z with r blocks of a features
        r, a, f, c = 3, 2, 4, 5
        z, e = rng.standard_normal((7, r * a)), rng.standard_normal((a, f))
        theta = rng.standard_normal((r * f, c))
        wide = (z.reshape(7, r, a) @ e).reshape(7, r * f)
        got = z @ ad.kron_linear(Tape(), Tensor(e), Tensor(theta)).value
        assert np.max(np.abs(got - wide @ theta)) < 1e-12

    def test_finite_differences(self, rng):
        for r, a in ((1, 1), (2, 1), (3, 2)):
            e = ParamArray("e", rng.standard_normal((a, 3)))
            theta = ParamArray("theta", rng.standard_normal((r * 3, 4)))
            check_op([e, theta], lambda tape: ad.kron_linear(tape, e, theta), rng)

    @pytest.mark.parametrize("e_shape,theta_shape", [((1, 3), (4, 2)), ((3,), (3, 2)),
                                                     ((1, 3), (6,))])
    def test_shape_mismatch(self, rng, e_shape, theta_shape):
        with pytest.raises(ShapeError):
            ad.kron_linear(Tape(), Tensor(rng.random(e_shape)), Tensor(rng.random(theta_shape)))


def test_diffuse_is_spmm_diff_forward_without_a_record(rng):
    block = random_block(rng)
    ops = [block.decoupled, block.coupled]
    x = block_input(rng, block.coupled, (2,), flat=False)
    tape = Tape()
    assert np.array_equal(ad.diffuse(ops, x, 2), ad.spmm_diff(tape, ops, Tensor(x), 2).value)
    assert len(tape) == 1


class TestSliceTime:
    def test_backward_splits_between_carry_and_history(self, rng):
        x = ParamArray("x", rng.standard_normal((2, 5, 3, 2)))
        carry = ParamArray("carry", rng.standard_normal((2, 3, 2)))
        tape = Tape()
        out = ad.slice_time(tape, x, 2, 4, carry=carry)
        g = rng.standard_normal(out.value.shape)
        tape.backward(project(tape, out, g))
        assert np.array_equal(carry.grad, g[:, 0])
        assert np.array_equal(x.grad[:, 2:4], g[:, 1:])
        assert not x.grad[:, :2].any() and not x.grad[:, 4:].any()

    def test_finite_differences(self, rng):
        x = ParamArray("x", rng.standard_normal((4, 3, 2)))
        carry = ParamArray("carry", rng.standard_normal((3, 2)))
        check_op([x], lambda tape: ad.slice_time(tape, x, 1, 3), rng)
        check_op([x, carry], lambda tape: ad.slice_time(tape, x, 1, 4, carry=carry), rng)

    def test_bad_slice_rejected(self, rng):
        x = Tensor(rng.random((4, 3, 2)))
        for t0, t1 in ((2, 2), (-1, 2), (0, 5)):
            with pytest.raises(ShapeError):
                ad.slice_time(Tape(), x, t0, t1)


class TestMlpDecode:
    def make_params(self, rng, d, hidden, horizon):
        return (ParamArray("w1", rng.standard_normal((d, hidden)) * 0.5),
                ParamArray("b1", rng.standard_normal(hidden) * 0.1),
                ParamArray("w2", rng.standard_normal((hidden, horizon)) * 0.5),
                ParamArray("b2", rng.standard_normal(horizon) * 0.1))

    def test_zero_weights_zero_output(self, rng):
        x = Tensor(rng.random((4, 3)))
        zeros = [ParamArray(n, np.zeros(s)) for n, s in
                 [("w1", (3, 5)), ("b1", 5), ("w2", (5, 2)), ("b2", 2)]]
        y = ad.mlp_decode(Tape(), x, *zeros, horizon=2)
        assert np.array_equal(y.value, np.zeros((2, 4, 1)))

    def test_output_layout(self, rng):
        # H=d, identity second layer after a pass-through first layer: horizon h
        # of vertex v is feature h of row v
        d = 3
        w1 = ParamArray("w1", np.eye(d))
        b1 = ParamArray("b1", np.zeros(d))
        w2 = ParamArray("w2", np.eye(d))
        b2 = ParamArray("b2", np.zeros(d))
        x = np.abs(rng.random((2, 4, d)))  # positive: relu transparent
        y = ad.mlp_decode(Tape(), Tensor(x), w1, b1, w2, b2, horizon=d)
        assert y.value.shape == (2, d, 4, 1)
        assert np.array_equal(y.value[..., 0], np.swapaxes(x, -2, -1))

    def test_relu_passes_nan_and_keeps_finite_bits(self, rng, monkeypatch):
        monkeypatch.setattr(ad, "_DEBUG", False)  # the inputs are non-finite on purpose
        x = np.concatenate([rng.standard_normal(200), [-0.0, 0.0, np.inf, -np.inf, np.nan]])
        out = ad.relu(Tape(), Tensor(x)).value
        finite = np.isfinite(x)
        # bit for bit what the earlier np.where(x > 0, x, 0.0) gave, +0.0 for -0.0 included
        want = np.where(x > 0, x, 0.0)
        assert np.array_equal(out[finite], want[finite])
        assert not np.signbit(out[finite]).any()
        assert out[-3] == np.inf and out[-2] == 0.0 and np.isnan(out[-1])

    def test_finite_differences(self, rng):
        for _ in range(30):
            x = ParamArray("x", rng.standard_normal((3, 4)))
            params = self.make_params(rng, 4, 5, 2)
            check_op([x, *params],
                     lambda tape: ad.mlp_decode(tape, x, *params, horizon=2),
                     rng, tol=1e-3)  # relu kinks make FD noisier


class TestDebugMode:
    def test_non_finite_op_output_raises(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEBUG", True)
        x = Tensor(np.array([[1e200, 1.0]]))
        with pytest.raises(NumericError, match="non-finite"), np.errstate(over="ignore"):
            ad.linear(Tape(), x, Tensor(np.array([[1e200], [0.0]])))

    def test_finite_values_pass(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEBUG", True)
        out = ad.linear(Tape(), Tensor(np.ones((1, 2))), Tensor(np.ones((2, 1))))
        assert out.value[0, 0] == 2.0


class TestTapeDeterminism:
    def test_replay_bit_identical(self, rng):
        p = build_hstg(random_sensor_graph(rng, 3), 2).coupled
        x = ParamArray("x", rng.standard_normal((6, 4)))
        theta = ParamArray("t", rng.standard_normal((4, 4)))
        grads = []
        for _ in range(2):
            x.zero_grad()
            theta.zero_grad()
            tape = Tape()
            y = ad.linear(tape, ad.spmm_diff(tape, [p], x, 1), theta)
            loss = project(tape, y, np.ones(y.value.shape))
            tape.backward(loss)
            grads.append((x.grad.copy(), theta.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


class TestReplayOnce:
    def test_second_backward_raises(self):
        tape = Tape()
        theta = ParamArray("t", np.ones((2, 2)))
        loss = project(tape, ad.linear(tape, np.ones((1, 2)), theta), np.ones((1, 2)))
        tape.backward(loss)
        assert len(tape) == 0 and np.array_equal(theta.grad, np.ones((2, 2)))
        with pytest.raises(ArgumentError, match="replayed once"):
            tape.backward(loss)
        assert np.array_equal(theta.grad, np.ones((2, 2)))

    def test_saved_array_freed_once_its_backward_has_run(self, rng):
        # linear saves its input; a record made before it runs after its backward
        theta = ParamArray("t", rng.standard_normal((3, 2)))
        data = rng.standard_normal((4, 3))
        saved = weakref.ref(data)
        tape = Tape()
        alive_after = []
        tape.record(lambda: alive_after.append(saved() is not None))
        loss = project(tape, ad.linear(tape, data, theta), np.ones((4, 2)))
        del data
        assert saved() is not None
        tape.backward(loss)
        assert alive_after == [False]

    def test_diamond_finite_differences(self, rng):
        # h feeds three ops, and both inputs of an add (and a concat) are one tensor:
        # a gradient that became a view of, or the same array as, another would corrupt it
        x = ParamArray("x", rng.standard_normal((3, 4)))
        theta = ParamArray("theta", rng.standard_normal((4, 4)))
        bias = ParamArray("bias", rng.standard_normal(4))

        def build(tape):
            h = ad.linear(tape, x, theta)
            a = ad.relu(tape, h)
            b = ad.add_bias(tape, h, bias)
            s = ad.add(tape, a, b)
            twice = ad.add(tape, s, s)
            both = ad.concat_features(tape, [twice, h, twice])
            return ad.add(tape, both, ad.concat_features(tape, [h, s, s]))

        check_op([x, theta, bias], build, rng)

    def test_backward_peaks_near_the_forward_memory(self, rng):
        # a train-wide-like step: n=12, K1 s1 d128 m4, B=32, T=H=12
        n = 12
        cfg = ModelConfig(K=1, s=1, d=128, m=4, T=12, H=12)
        model = IstdGcnModel(cfg, random_sensor_graph(rng, n), seed=0)
        window = rng.standard_normal((32, cfg.T, n, 1))
        target = rng.standard_normal((32, cfg.H, n, 1))
        params = model.params()
        tracemalloc.start()
        try:
            tape = Tape()
            loss = mae_l2_loss(tape, forward(tape, model, window), target, params, 1e-4)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * held, (peak, held)


class TestNonRecordingTape:
    def test_backward_refuses_to_replay(self):
        tape = Tape(record=False)
        theta = ParamArray("t", np.ones((2, 2)))
        loss = project(tape, ad.linear(tape, Tensor(np.ones((1, 2))), theta), np.ones((1, 2)))
        assert len(tape) == 0
        with pytest.raises(ArgumentError, match="record=False"):
            tape.backward(loss)

    def test_grad_check_differences_keep_no_records(self, rng, tapes_seen):
        theta = ParamArray("theta", rng.standard_normal((3, 2)))
        c = rng.standard_normal((1, 3))

        def loss_fn(tape):
            return project(tape, ad.linear(tape, Tensor(c), theta), np.ones((1, 2)))

        (report,) = grad_check(loss_fn, [theta])
        assert report.passed and report.max_rel_err < 1e-9
        # the analytic pass keeps its 2 records; 2 differences per entry keep none
        assert tapes_seen.kept() == [2] + [0] * 2 * theta.value.size


class TestGradCheckHarness:
    def test_quadratic(self):
        theta = ParamArray("theta", np.array([3.0]).reshape(1, 1))

        def loss_fn(tape):
            sq = ad.linear(tape, theta, theta)
            return project(tape, sq, np.ones((1, 1)))

        (report,) = grad_check(loss_fn, [theta], h=1e-5)
        assert report.passed
        tape = Tape()
        theta.zero_grad()
        loss = loss_fn(tape)
        tape.backward(loss)
        assert theta.grad[0, 0] == pytest.approx(6.0, abs=1e-9)

    def test_linear_exact(self, rng):
        theta = ParamArray("theta", rng.standard_normal((3, 1)))
        c = rng.standard_normal((1, 3))

        def loss_fn(tape):
            return project(tape, ad.linear(tape, Tensor(c), theta), np.ones((1, 1)))

        (report,) = grad_check(loss_fn, [theta], h=1e-5)
        assert report.passed and report.max_rel_err < 1e-9

    def test_detects_wrong_backward(self, rng):
        theta = ParamArray("theta", rng.standard_normal((2, 2)))

        def loss_fn(tape):
            out = Tensor((theta.value ** 2).sum())

            def backward():
                theta.ensure_grad()
                theta.grad += out.grad * 3.0 * theta.value  # deliberately wrong

            tape.record(backward)
            return out

        (report,) = grad_check(loss_fn, [theta])
        assert not report.passed
