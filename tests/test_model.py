import hashlib
import json

import numpy as np
import pytest

import stdiff.autodiff as ad
import stdiff.model as model_module
from stdiff.autodiff import ParamArray, Tape, Tensor, grad_check
from stdiff.checkpoint import restore_params, save_params
from stdiff.errors import ArgumentError, NumericError
from stdiff.graph import SensorGraph
from stdiff.model import (ABLATIONS, IstdGcnModel, ModelConfig, StscChannelParams, encode,
                          expected_iterations, forward, multi_channel_forward, stsc_forward)
from stdiff.sparse import SparseMatrix, sparsify
from stdiff.stgraph import build_hstg
from stdiff.training import AdamState, TrainConfig, mae_l2_loss, optimizer_step

from conftest import RETIRED_KEYS_CONFIG_JSON, random_sensor_graph


def tiny_config(**overrides):
    base = dict(K=2, m=2, s=2, d=4, T=6, H=2)
    base.update(overrides)
    return ModelConfig(**base)


def zero_channel(block, d, k_hops, m):
    return StscChannelParams(
        theta_nh=[ParamArray(f"nh{k}", np.zeros((d, d))) for k in range(k_hops)],
        theta_h=[ParamArray(f"h{k}", np.zeros((d, d))) for k in range(k_hops)],
        ln_scale=ParamArray("s", np.ones(d)),
        ln_shift=ParamArray("b", np.zeros(d)),
        compress_kernel=ParamArray("c", np.full((m, d), 1.0 / m)),
    )


def dense_stsc_oracle(block, thetas_nh, thetas_h, x, eps):
    """Evaluate the propagation rule term by term with dense arithmetic."""
    p_nh = block.nhstg_transition.to_dense()
    p_h = block.hstg_transition.to_dense()
    acc = x.copy()
    for k, (t1, t2) in enumerate(zip(thetas_nh, thetas_h), start=1):
        acc = acc + np.linalg.matrix_power(p_nh, k) @ x @ t1
        acc = acc + np.linalg.matrix_power(p_h, k) @ x @ t2
    mu = acc.mean(axis=-1, keepdims=True)
    var = ((acc - mu) ** 2).mean(axis=-1, keepdims=True)
    return (acc - mu) / np.sqrt(var + eps)


class TestStscForward:
    def test_zero_thetas_pure_residual(self, rng):
        g = random_sensor_graph(rng, 3)
        block = build_hstg(g, 2, num_hops=2)
        ch = zero_channel(block, 4, 2, 2)
        x = Tensor(rng.standard_normal((6, 4)))
        out = stsc_forward(Tape(), ch, block, x)
        expected = ad.layer_norm(Tape(), 4, Tensor(x.value.copy()), ch.ln_scale, ch.ln_shift).value
        assert np.array_equal(out.value, expected)

    def test_dense_term_by_term_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 4))
            k_hops = int(rng.integers(1, 3))
            d = 3
            g = random_sensor_graph(rng, n)
            block = build_hstg(g, m, num_hops=k_hops)
            thetas_nh = [rng.standard_normal((d, d)) for _ in range(k_hops)]
            thetas_h = [rng.standard_normal((d, d)) for _ in range(k_hops)]
            ch = StscChannelParams(
                theta_nh=[ParamArray(f"nh{k}", t) for k, t in enumerate(thetas_nh)],
                theta_h=[ParamArray(f"h{k}", t) for k, t in enumerate(thetas_h)],
                ln_scale=ParamArray("s", np.ones(d)),
                ln_shift=ParamArray("b", np.zeros(d)),
                compress_kernel=ParamArray("c", np.full((m, d), 1.0 / m)),
            )
            x = rng.standard_normal((m * n, d))
            got = stsc_forward(Tape(), ch, block, Tensor(x), ln_eps=1e-5).value
            want = dense_stsc_oracle(block, thetas_nh, thetas_h, x, 1e-5)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_single_tensor_feeds_both_terms(self, rng):
        # decoupled and coupled terms consume the same input tensor
        g = random_sensor_graph(rng, 2)
        block = build_hstg(g, 2, num_hops=1)
        x = ParamArray("x", rng.standard_normal((4, 3)))
        ch = StscChannelParams(
            theta_nh=[ParamArray("nh", rng.standard_normal((3, 3)))],
            theta_h=[ParamArray("h", rng.standard_normal((3, 3)))],
            ln_scale=ParamArray("s", np.ones(3)),
            ln_shift=ParamArray("b", np.zeros(3)),
            compress_kernel=ParamArray("c", np.full((2, 3), 0.5)),
        )
        tape = Tape()
        out = stsc_forward(tape, ch, block, x)
        loss = ad.mae_loss(tape, out, np.zeros(out.value.shape))
        tape.backward(loss)
        # both theta branches received gradient through the shared input
        assert np.any(ch.theta_nh[0].grad != 0)
        assert np.any(ch.theta_h[0].grad != 0)

    def test_no_hstg_block_locality(self, rng):
        # with the coupled term dropped, output block t depends only on input block t
        g = random_sensor_graph(rng, 3)
        cfg = tiny_config(ablation="no_hstg", m=3, T=6)
        model = IstdGcnModel(cfg, g, seed=0)
        block = model.block_graph(3)
        x = rng.standard_normal((9, cfg.d))
        base = stsc_forward(Tape(), model.channels[0], block, Tensor(x)).value
        x2 = x.copy()
        x2[3:] = 0.0  # zero blocks 1, 2; block 0 output must not move
        out2 = stsc_forward(Tape(), model.channels[0], block, Tensor(x2)).value
        assert np.array_equal(base[:3], out2[:3])


class TestMultiChannel:
    def test_identical_channels_give_identical_halves(self, rng):
        g = random_sensor_graph(rng, 3)
        cfg = tiny_config()
        model = IstdGcnModel(cfg, g, seed=0)
        # overwrite channel 1 with channel 0's values
        for p0, p1 in zip(model.channels[0].all(), model.channels[1].all()):
            p1.value[...] = p0.value
        tape = Tape()
        x = Tensor(rng.standard_normal((2, 3, cfg.d)))
        block = model.block_graph(2)
        parts = [ad.temporal_compress(tape, stsc_forward(tape, ch, block, x), ch.compress_kernel)
                 for ch in model.channels]
        cat = ad.concat_features(tape, parts)
        assert np.array_equal(cat.value[..., :cfg.d], cat.value[..., cfg.d:])

    def test_single_channel_identity_mix(self, rng):
        g = random_sensor_graph(rng, 3)
        cfg = tiny_config(s=1)
        model = IstdGcnModel(cfg, g, seed=0)
        model.mix.value[...] = np.eye(cfg.d)
        tape = Tape()
        x = Tensor(rng.standard_normal((2, 3, cfg.d)))
        got = multi_channel_forward(tape, model, x)
        tape2 = Tape()
        h = stsc_forward(tape2, model.channels[0], model.block_graph(2), x)
        assert h.value.shape == (2, 3, cfg.d)
        want = ad.temporal_compress(tape2, h, model.channels[0].compress_kernel)
        assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_one_pass_equals_per_channel_composition(self, rng, ablation):
        # the stacked pass against the paper's form: each channel's block,
        # compressed over time, then the channels concatenated and mixed
        n = 3
        cfg = tiny_config(s=3, K=2, m=2, T=3, ablation=ablation)
        model = IstdGcnModel(cfg, random_sensor_graph(rng, n), seed=2)
        for p in model.params():  # break the symmetric initial kernels and norms
            p.value[...] += 0.1 * rng.standard_normal(p.value.shape)
        m = cfg.effective_m
        block = model.block_graph(m)
        x = ParamArray("x", rng.standard_normal((2, m, n, cfg.d)))
        w = rng.standard_normal((2, n, cfg.d))
        params = [*model.params(), x]

        def grads_of(build):
            for p in params:
                p.zero_grad()
            tape = Tape()
            out = build(tape)
            tape.backward(ad.mae_loss(tape, out, w))
            return out.value, [p.grad.copy() for p in params]

        got, got_grads = grads_of(
            lambda tape: multi_channel_forward(tape, model, x))
        for flat in (False, True):
            def per_channel(tape):
                x_in = reshaped(tape, x, (2, m * n, cfg.d)) if flat else x
                parts = []
                for ch in model.channels:
                    h = stsc_forward(tape, ch, block, x_in, ln_eps=cfg.ln_eps)
                    h = reshaped(tape, h, x.value.shape) if flat else h
                    parts.append(ad.temporal_compress(tape, h, ch.compress_kernel))
                return ad.linear(tape, ad.concat_features(tape, parts), model.mix)

            want, want_grads = grads_of(per_channel)
            assert np.max(np.abs(got - want)) < 1e-12
            for p, a, b in zip(params, got_grads, want_grads):
                assert np.max(np.abs(a - b)) < 1e-10, (p.name, flat)


class TestChannelBank:
    """The named channel parameters are views into the model's one channel bank."""

    # save_params of seed-0 tiny_config models: the fresh model, then after
    # ``perturb``.  full's bytes are those written before the bank became the
    # storage; no_hstg's are those of a model without any coupled theta
    SEED0_SHA256 = {
        "full": "1c99594119dde5158845f319152ba26842673b8f680d9bf29ece17534bb23a39",
        "no_hstg": "26d508a60038ea43b84e312d7d2d3388fb338810ed5aa97cb4fc51d7eba169e0",
    }
    PERTURBED_SHA256 = {
        "full": "444acd85a8b22d09249d372af0bf1891cf7784251f919042a9225568e09ca07f",
        "no_hstg": "3b367905ff2c0be45d3f36b2836350a39f3cc1623bf92263e172224943f99584",
    }

    @staticmethod
    def perturb(model):
        rng = np.random.default_rng(7)
        for p in model.params():
            p.value[...] += 0.1 * rng.standard_normal(p.value.shape)

    @staticmethod
    def sha256(model, path):
        save_params(model.params(), path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_channel_parameters_are_views_tiling_the_bank(self, rng, ablation):
        model = IstdGcnModel(tiny_config(s=3, ablation=ablation), random_sensor_graph(rng, 3))
        bank = model.bank
        storage = [bank.theta, bank.ln_scale, bank.ln_shift, bank.compress_kernel]
        views = [p for ch in model.channels for p in ch.all()]
        for p in views:
            owners = [b for b in storage if np.shares_memory(p.value, b.value)]
            assert len(owners) == 1 and np.shares_memory(p.grad, owners[0].grad), p.name
        assert sum(p.value.size for p in views) == sum(b.value.size for b in storage)
        for i, p in enumerate(views):  # each entry of the bank belongs to one view
            p.value[...] = i
            p.grad[...] = -i
        for b in storage:
            assert np.array_equal(b.grad, -b.value)
        values = np.concatenate([b.value.ravel() for b in storage])
        assert np.array_equal(np.unique(values), np.arange(len(views)))

    @pytest.mark.parametrize("ablation", ["full", "no_hstg"])
    def test_checkpoint_bytes_unchanged(self, rng, tmp_path, ablation):
        model = IstdGcnModel(tiny_config(ablation=ablation), random_sensor_graph(rng, 3), seed=0)
        assert self.sha256(model, tmp_path / "seed0.stdf") == self.SEED0_SHA256[ablation]

    @pytest.mark.parametrize("ablation", ["full", "no_hstg"])
    def test_forward_reads_restored_values(self, rng, tmp_path, ablation):
        # the checkpoint's bytes are pinned above
        g, cfg = random_sensor_graph(rng, 3), tiny_config(ablation=ablation)
        written = IstdGcnModel(cfg, g, seed=0)
        self.perturb(written)
        path = tmp_path / "perturbed.stdf"
        assert self.sha256(written, path) == self.PERTURBED_SHA256[ablation]
        model = IstdGcnModel(cfg, g, seed=5)
        window = rng.standard_normal((2, cfg.T, 3, 1))
        before = forward(Tape(), model, window).value
        restore_params(model.params(), path)
        for p, q in zip(model.params(), written.params()):
            assert np.array_equal(p.value, q.value), p.name
        after = forward(Tape(), model, window).value
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(Tape(), written, window).value)

    @pytest.mark.parametrize("ablation,dropped", [("no_hstg", "theta_h"),
                                                  ("no_two_step", "theta_nh")])
    def test_dropped_family_has_no_parameters(self, rng, ablation, dropped):
        g, cfg = random_sensor_graph(rng, 3), tiny_config(s=3, ablation=ablation)
        model, full = IstdGcnModel(cfg, g), IstdGcnModel(tiny_config(s=3), g)
        kept = {"theta_h": "theta_nh", "theta_nh": "theta_h"}[dropped]
        names = [p.name for p in model.params()]
        assert names == [p.name for p in full.params() if f".{dropped}" not in p.name]
        for ch in model.channels:
            assert getattr(ch, dropped) == [] and len(getattr(ch, kept)) == cfg.K
        assert model.bank.theta.value.shape == (cfg.K * cfg.d, cfg.s * cfg.d)

    @pytest.mark.parametrize("ablation", ["no_hstg", "no_two_step"])
    def test_l2_penalty_is_the_norm_of_the_live_weights(self, rng, ablation):
        g, cfg = random_sensor_graph(rng, 3), tiny_config(ablation=ablation)
        model = IstdGcnModel(cfg, g, seed=0)
        self.perturb(model)
        params = model.params()
        window = rng.standard_normal((2, cfg.T, 3, 1))
        target = rng.standard_normal((2, cfg.H, 3, 1))
        # every parameter is live: the forward reads it, so the MAE moves it
        tape = Tape()
        tape.backward(ad.mae_loss(tape, forward(tape, model, window), target))
        assert all(np.any(p.grad != 0) for p in params)
        bank = model.bank
        live = [model.input_embed, bank.theta, bank.ln_scale, bank.ln_shift,
                bank.compress_kernel, model.mix, model.dec_w1, model.dec_b1,
                model.dec_w2, model.dec_b2]
        norm = np.sqrt(sum(float((p.value ** 2).sum()) for p in live))
        lam = 1e-3
        model.zero_grads()
        tape = Tape()
        penalty = ad.l2_penalty(tape, params, lam)
        assert penalty.value == pytest.approx(lam * norm, rel=1e-12)
        tape.backward(penalty)
        for p in params:
            assert np.allclose(p.grad, lam * p.value / norm, rtol=1e-12, atol=0), p.name

    def test_forward_reads_optimizer_updates(self, rng):
        g, cfg = random_sensor_graph(rng, 3), tiny_config()
        model = IstdGcnModel(cfg, g, seed=0)
        window = rng.standard_normal((2, cfg.T, 3, 1))
        tape = Tape()
        tape.backward(mae_l2_loss(tape, forward(tape, model, window),
                                  rng.standard_normal((2, cfg.H, 3, 1)), model.params(), 1e-4))
        before = forward(Tape(), model, window).value
        optimizer_step(model.params(), AdamState(), TrainConfig())
        # a model whose parameters are the updated values, copied in
        copy = IstdGcnModel(cfg, g, seed=1)
        for p, q in zip(copy.params(), model.params()):
            p.value[...] = q.value
        after = forward(Tape(), model, window).value
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward(Tape(), copy, window).value)


def reshaped(tape, t, shape):
    """t.value reshaped to ``shape`` as a taped op."""
    out = Tensor(t.value.reshape(shape))

    def backward():
        t.ensure_grad()
        t.grad += out.grad.reshape(t.value.shape)

    tape.record(backward)
    return out


def generic_forward(tape, model, window):
    """``forward`` without the raw window: every pass diffuses at full width."""
    cfg = model.config
    com = encode(tape, model, ad.linear(tape, Tensor(window), model.input_embed))
    return ad.mlp_decode(tape, com.features, model.dec_w1, model.dec_b1, model.dec_w2,
                         model.dec_b2, cfg.H)


class TestEmbeddingFold:
    @pytest.mark.parametrize("t,m", [(6, 4), (5, 2)])  # a tail block; several carried passes
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_folded_forward_equals_generic_path(self, rng, ablation, t, m):
        n = 3
        g = random_sensor_graph(rng, n)
        for s in (1, 3):
            for k_hops in (1, 3):
                cfg = ModelConfig(K=k_hops, m=m, s=s, d=4, T=t, H=2, ablation=ablation)
                model = IstdGcnModel(cfg, g, seed=1)
                for p in model.params():  # break the symmetric kernels and norms
                    p.value[...] += 0.1 * rng.standard_normal(p.value.shape)
                window = rng.standard_normal((2, t, n, 1))
                target = rng.standard_normal((2, cfg.H, n, 1))
                results = []
                for run in (forward, generic_forward):
                    model.zero_grads()
                    tape = Tape()
                    out = run(tape, model, window)
                    tape.backward(ad.mae_loss(tape, out, target))
                    results.append((out.value, [p.grad.copy() for p in model.params()]))
                (got, got_grads), (want, want_grads) = results
                case = (s, k_hops)
                assert np.max(np.abs(got - want)) < 1e-12, case
                for p, a, b in zip(model.params(), got_grads, want_grads):
                    assert np.max(np.abs(a - b)) < 1e-10, (p.name, case)

    def test_full_width_work_only_on_the_carry(self, rng, monkeypatch):
        # the GEMMs against the full theta see one snapshot per carried pass,
        # all of them in carry_term: T=12, m=4 makes 3 carried passes
        n = 3
        cfg = ModelConfig(K=1, m=4, s=1, d=8, T=12, H=1)
        model = IstdGcnModel(cfg, random_sensor_graph(rng, n), seed=0)
        widths = []
        linear, carry_term = ad.linear, ad.carry_term

        def counting(tape, x, theta):  # x is a Tensor, or a plain array of data
            widths.append(("linear", getattr(x, "value", x).shape[:-1], theta.value.shape[0]))
            return linear(tape, x, theta)

        def counting_carry(tape, row0, carry, k_hops, theta):
            widths.append(("carry_term", carry.value.shape[:-1], theta.value.shape[0]))
            return carry_term(tape, row0, carry, k_hops, theta)

        monkeypatch.setattr(ad, "linear", counting)
        monkeypatch.setattr(ad, "carry_term", counting_carry)
        forward(Tape(), model, rng.standard_normal((2, cfg.T, n, 1)))
        full = [(op, lead) for op, lead, width in widths if width == 2 * cfg.d]
        assert {op for op, _ in full} == {"carry_term"}
        assert sum(np.prod(lead) for _, lead in full) == 3 * 2 * n


class TestCarryTerm:
    """A carried pass diffuses its carry in one carry_term; production calls no spmm_diff."""

    CONFIG = ModelConfig(K=2, m=3, s=2, d=4, T=7, H=2)

    def batches(self, rng, n):
        cfg = self.CONFIG
        return rng.standard_normal((3, cfg.T, n, 1)), run_of_windows(rng, 5, cfg.T, n)

    def test_production_calls_no_spmm_diff(self, rng, monkeypatch):
        model = IstdGcnModel(self.CONFIG, random_sensor_graph(rng, 4), seed=0)

        def refused(*args, **kwargs):
            raise AssertionError("spmm_diff called")

        monkeypatch.setattr(ad, "spmm_diff", refused)
        for windows in self.batches(rng, 4):  # the per-pass path, then a run
            target = rng.standard_normal((len(windows), self.CONFIG.H, 4, 1))
            tape = Tape()
            tape.backward(mae_l2_loss(tape, forward(tape, model, windows), target,
                                      model.params(), 1e-4))

    def test_inverse_degrees_built_once_per_model(self, rng, monkeypatch):
        # every carried pass gets the operators, and so the (r, n, d) inverse
        # degrees, that the model built once; a run's feature-major passes
        # tile those operators' degrees over its windows
        model = IstdGcnModel(self.CONFIG, random_sensor_graph(rng, 4), seed=0)
        seen, runs = [], []
        carry_term, run_carry = ad.carry_term, model_module._run_carry

        def recording(tape, row0, carry, k_hops, theta):
            seen.append(row0)
            return carry_term(tape, row0, carry, k_hops, theta)

        def run_recording(*args):
            runs.append(run_carry(*args))
            return runs[-1]

        monkeypatch.setattr(ad, "carry_term", recording)
        monkeypatch.setattr(model_module, "_run_carry", run_recording)
        per_pass, run = self.batches(rng, 4)
        forward(Tape(record=False), model, per_pass)
        carried = expected_iterations(self.CONFIG.T, self.CONFIG.m) - 1
        assert len(seen) == carried
        assert all(row0 is model.carry_ops for row0 in seen)
        forward(Tape(record=False), model, run)
        assert len(seen) == carried and len(runs) == 1
        rows = np.stack([op.inv_deg[0] for op in model.carry_ops.ops])
        assert np.array_equal(runs[0].inv, np.tile(rows, len(run)))
        assert model.carry_ops.inv.shape == (2, 4, self.CONFIG.d)


class TestResidualInTheFold:
    """The residual is the fold's hop 0: forward builds no embedded history."""

    CONFIG = ModelConfig(K=2, m=3, s=2, d=8, T=12, H=2)
    OPS = ("linear", "kron_linear", "spmm_diff", "layer_norm", "temporal_compress",
           "concat_features", "add", "add_bias", "relu", "slice_time", "mlp_decode",
           "mae_loss", "l2_penalty")

    def step(self, model, rng, batch=2):
        cfg, n = model.config, model.graph.n
        tape = Tape()
        loss = mae_l2_loss(tape, forward(tape, model, rng.standard_normal((batch, cfg.T, n, 1))),
                           rng.standard_normal((batch, cfg.H, n, 1)), model.params(), 1e-4)
        tape.backward(loss)

    def test_no_embedded_history_and_no_block_copy(self, rng, monkeypatch):
        n, cfg = 5, self.CONFIG
        model = IstdGcnModel(cfg, random_sensor_graph(rng, n), seed=0)
        shapes, thetas = [], []
        init, linear = Tensor.__init__, ad.linear

        def logging(tensor, value):
            init(tensor, value)
            shapes.append(tensor.value.shape)

        def recording(tape, x, theta):
            thetas.append(theta)
            return linear(tape, x, theta)

        def refused(*args, **kwargs):
            raise AssertionError("slice_time called")

        monkeypatch.setattr(Tensor, "__init__", logging)
        monkeypatch.setattr(ad, "linear", recording)
        monkeypatch.setattr(ad, "slice_time", refused)
        self.step(model, rng)
        assert shapes and (2, cfg.T, n, cfg.d) not in shapes
        assert not any(shape[-3:-2] == (cfg.T,) for shape in shapes)
        assert thetas and not any(theta is model.input_embed for theta in thetas)

    def test_fold_output_read_only_by_its_layer_norm(self, rng, monkeypatch):
        model = IstdGcnModel(self.CONFIG, random_sensor_graph(rng, 4), seed=0)
        folds, outputs, reads = [], [], []

        def logged(name, op):
            def wrapper(*args, **kwargs):
                tensors = [a for a in (*args, *kwargs.values()) if isinstance(a, Tensor)]
                reads.append((name, tensors))
                out = op(*args, **kwargs)
                if name == "kron_linear":
                    folds.append(out)
                elif name == "linear" and any(args[2] is f for f in folds):
                    outputs.append(out)
                return out
            return wrapper

        for name in self.OPS:
            monkeypatch.setattr(ad, name, logged(name, getattr(ad, name)))
        self.step(model, rng)
        passes = expected_iterations(self.CONFIG.T, self.CONFIG.m)
        assert len(folds) == 1 and len(outputs) == passes
        for y in outputs:
            readers = [(name, tensors) for name, tensors in reads if any(t is y for t in tensors)]
            # the one reader normalizes and compresses Y with the bank's kernel
            assert [name for name, _ in readers] == ["layer_norm"]
            assert any(t is model.bank.compress_kernel for t in readers[0][1])
        assert not any(name == "temporal_compress" for name, _ in reads)


class TestNoNormalizedBlock:
    """The layer norm compresses as it normalizes: no pass writes a normalized block."""

    CONFIG = ModelConfig(K=2, m=3, s=2, d=8, T=12, H=2)  # s*d differs from d and 2K*d

    @pytest.mark.parametrize("run", [forward, generic_forward])
    def test_only_the_channel_gemm_outputs_have_a_block_shape(self, rng, monkeypatch, run):
        n, batch, cfg = 5, 2, self.CONFIG
        model = IstdGcnModel(cfg, random_sensor_graph(rng, n), seed=0)
        created, gemms = [], []
        init, linear, kron_linear = Tensor.__init__, ad.linear, ad.kron_linear
        carry_term = ad.carry_term
        channel_weights = [model.bank.theta]

        def logging(tensor, value):
            init(tensor, value)
            created.append(tensor)

        def folding(*args, **kwargs):
            out = kron_linear(*args, **kwargs)
            channel_weights.append(out)
            return out

        def recording(tape, x, theta):
            out = linear(tape, x, theta)
            if any(theta is w for w in channel_weights):
                gemms.append(out)
            return out

        def carrying(*args):  # the carry's channel GEMMs, as a one-snapshot block
            out = carry_term(*args)
            gemms.append(out)
            return out

        monkeypatch.setattr(Tensor, "__init__", logging)
        monkeypatch.setattr(ad, "linear", recording)
        monkeypatch.setattr(ad, "kron_linear", folding)
        monkeypatch.setattr(ad, "carry_term", carrying)
        tape = Tape()
        loss = mae_l2_loss(tape, run(tape, model, rng.standard_normal((batch, cfg.T, n, 1))),
                           rng.standard_normal((batch, cfg.H, n, 1)), model.params(), 1e-4)
        tape.backward(loss)
        blocks = [t for t in created if t.value.ndim == 4 and t.value.shape[0] == batch
                  and t.value.shape[2:] == (n, cfg.s * cfg.d)]
        passes = expected_iterations(cfg.T, cfg.m)
        # the folding path adds one carry_term per carried pass
        assert len(blocks) == passes + (passes - 1 if run is forward else 0)
        assert all(any(t is y for y in gemms) for t in blocks)


class TestDataInputs:
    """The raw window and each folded pass's raw Z are data: they get no gradient."""

    CONFIG = ModelConfig(K=1, m=3, s=2, d=8, T=7, H=4)

    def step(self, model, rng):
        cfg = model.config
        window = rng.standard_normal((2, cfg.T, model.graph.n, 1))
        target = rng.standard_normal((2, cfg.H, model.graph.n, 1))
        model.zero_grads()
        tape = Tape()
        tape.backward(ad.mae_loss(tape, forward(tape, model, window), target))
        return [p.grad.copy() for p in model.params()]

    def test_no_gradient_is_built_for_data(self, rng, monkeypatch):
        # the data are the plain arrays ``linear`` receives: the raw Z of each
        # of the 3 passes (T=7, m=3), the window's readings as its hop 0; no
        # tensor over one of them may get a gradient
        model = IstdGcnModel(self.CONFIG, random_sensor_graph(rng, 4), seed=0)
        data, built = [], []
        linear = ad.linear

        def recording(tape, x, theta):
            if isinstance(x, np.ndarray):
                data.append(x)
            return linear(tape, x, theta)

        monkeypatch.setattr(ad, "linear", recording)
        for method in ("ensure_grad", "add_grad"):
            def logging(tensor, *args, _method=getattr(Tensor, method), **kwargs):
                if tensor.grad is None:
                    built.append(tensor.value)
                return _method(tensor, *args, **kwargs)
            monkeypatch.setattr(Tensor, method, logging)
        self.step(model, rng)
        assert len(data) == 3 and built
        assert not any(value is x for value in built for x in data)

    def test_parameter_gradients_bit_identical_to_tensor_inputs(self, rng, monkeypatch):
        # the data as Tensors, which get (and compute) a gradient nothing reads
        model = IstdGcnModel(self.CONFIG, random_sensor_graph(rng, 4), seed=0)
        state = rng.bit_generator.state
        plain = self.step(model, rng)
        linear = ad.linear
        monkeypatch.setattr(ad, "linear", lambda tape, x, theta: linear(
            tape, Tensor(x) if isinstance(x, np.ndarray) else x, theta))
        rng.bit_generator.state = state
        wrapped = self.step(model, rng)
        assert all(np.array_equal(a, b) for a, b in zip(plain, wrapped))


class TestEncode:
    @pytest.mark.parametrize("t,m,expected", [(12, 2, 11), (7, 3, 3), (12, 12, 1)])
    def test_iteration_examples(self, t, m, expected):
        assert expected_iterations(t, m) == expected

    def test_iteration_count_matches_closed_form(self, rng):
        g = random_sensor_graph(rng, 2)
        for t in range(2, 25):
            for m in range(2, t + 1):
                cfg = ModelConfig(K=1, m=m, s=1, d=2, T=t, H=1)
                model = IstdGcnModel(cfg, g, seed=0)
                emb = Tensor(rng.standard_normal((t, 2, 2)))
                com = encode(Tape(), model, emb)
                assert com.iterations == expected_iterations(t, m), (t, m)

    def test_no_iteration_forces_single_pass(self, rng):
        g = random_sensor_graph(rng, 2)
        cfg = tiny_config(ablation="no_iteration")
        model = IstdGcnModel(cfg, g, seed=0)
        emb = Tensor(rng.standard_normal((cfg.T, 2, cfg.d)))
        assert encode(Tape(), model, emb).iterations == 1

    def test_output_shape_independent_of_t(self, rng):
        g = random_sensor_graph(rng, 3)
        for t in (4, 7, 12):
            cfg = ModelConfig(K=1, m=3, s=1, d=4, T=t, H=1)
            model = IstdGcnModel(cfg, g, seed=0)
            emb = Tensor(rng.standard_normal((t, 3, 4)))
            com = encode(Tape(), model, emb)
            assert com.features.value.shape == (3, 4)

    def test_too_short_history_rejected(self, rng):
        g = random_sensor_graph(rng, 2)
        model = IstdGcnModel(tiny_config(), g, seed=0)
        with pytest.raises(ArgumentError):
            encode(Tape(), model, Tensor(rng.standard_normal((1, 2, 4))))


class TestForward:
    def test_zero_decoder_zero_predictions(self, rng):
        g = random_sensor_graph(rng, 3)
        cfg = tiny_config()
        model = IstdGcnModel(cfg, g, seed=0)
        model.dec_w2.value[...] = 0.0
        model.dec_b2.value[...] = 0.0
        y = forward(Tape(), model, rng.standard_normal((cfg.T, 3, 1)))
        assert np.array_equal(y.value, np.zeros((cfg.H, 3, 1)))

    def test_deterministic(self, rng):
        g = random_sensor_graph(rng, 4)
        cfg = tiny_config()
        model = IstdGcnModel(cfg, g, seed=3)
        w = rng.standard_normal((cfg.T, 4, 1))
        a = forward(Tape(), model, w).value
        b = forward(Tape(), model, w).value
        assert np.array_equal(a, b)

    def test_batched_matches_per_sample(self, rng):
        g = random_sensor_graph(rng, 3)
        cfg = tiny_config()
        model = IstdGcnModel(cfg, g, seed=1)
        batch = rng.standard_normal((4, cfg.T, 3, 1))
        joint = forward(Tape(), model, batch).value
        for b in range(4):
            single = forward(Tape(), model, batch[b]).value
            assert np.max(np.abs(joint[b] - single)) < 1e-12

    def test_permutation_equivariance(self, rng):
        n = 5
        g = random_sensor_graph(rng, n)
        cfg = tiny_config()
        window = rng.standard_normal((cfg.T, n, 1))
        model = IstdGcnModel(cfg, g, seed=0)
        base = forward(Tape(), model, window).value
        for _ in range(10):
            perm = rng.permutation(n)
            dense = g.adjacency.to_dense()[np.ix_(perm, perm)]
            g_p = SensorGraph(n, tuple(g.vertex_ids[i] for i in perm),
                              sparsify(dense))
            model_p = IstdGcnModel(cfg, g_p, seed=0)  # same seed, same params
            got = forward(Tape(), model_p, window[:, perm]).value
            assert np.max(np.abs(got - base[:, perm])) < 1e-10

    def test_non_recording_tape_keeps_nothing(self, rng):
        g = random_sensor_graph(rng, 3)
        model = IstdGcnModel(tiny_config(), g, seed=0)
        window = rng.standard_normal((2, 6, 3, 1))
        tape = Tape(record=False)
        got = forward(tape, model, window).value
        assert len(tape) == 0
        assert np.array_equal(got, forward(Tape(), model, window).value)

    def test_diffusion_shared_across_channels(self, rng, monkeypatch):
        # whatever s and K are, each diffusion writes all K hops of both
        # graphs: per carried pass one carry_term of the carry, at d width
        # through the row-0 operators, and per encoder pass one diffuse of
        # the raw window, at width 1 over the m-snapshot block;
        # calls = 2 * passes - 1
        g = random_sensor_graph(rng, 3)
        calls = []
        diffuse, carry_term = ad.diffuse, ad.carry_term

        def counting(ops, x, k_hops):
            calls.append((len(ops), k_hops, ops[0].m, x.shape[-1]))
            return diffuse(ops, x, k_hops)

        def counting_carry(tape, row0, carry, k_hops, theta):
            calls.append((len(row0.ops), k_hops, row0.ops[0].m, carry.value.shape[-1]))
            return carry_term(tape, row0, carry, k_hops, theta)

        monkeypatch.setattr(ad, "diffuse", counting)
        monkeypatch.setattr(ad, "carry_term", counting_carry)
        for s in (1, 3):
            for k_hops in (1, 3):
                cfg = tiny_config(s=s, K=k_hops)
                model = IstdGcnModel(cfg, g, seed=0)
                calls.clear()
                forward(Tape(), model, rng.standard_normal((cfg.T, 3, 1)))
                raw, carry = (2, k_hops, cfg.m, 1), (2, k_hops, 1, cfg.d)
                passes = expected_iterations(cfg.T, cfg.m)
                assert calls == [raw] + [carry, raw] * (passes - 1)

    def test_tape_records_one_block_assembly_per_pass(self, rng, monkeypatch):
        g = random_sensor_graph(rng, 3)
        cfg = tiny_config(T=4)
        model = IstdGcnModel(cfg, g, seed=0)
        slices = []
        slice_time = ad.slice_time

        def counting(tape, x, t0, t1, carry=None):
            slices.append(carry is not None)
            return slice_time(tape, x, t0, t1, carry=carry)

        monkeypatch.setattr(ad, "slice_time", counting)
        passes = expected_iterations(cfg.T, cfg.m)
        # the generic path cuts each pass's block from the embedded history;
        # only the first pass has no carry
        encode(Tape(), model, Tensor(rng.standard_normal((cfg.T, 3, cfg.d))))
        assert slices == [False] + [True] * (passes - 1)
        slices.clear()
        tape = Tape()
        forward(tape, model, rng.standard_normal((cfg.T, 3, 1)))
        # the folded path assembles no block.  Per pass, whatever K and s
        # are: the linear of the raw window's diffusion against theta_fold,
        # then layer_norm, which also compresses the snapshots, and the mix
        # linear for all s channels; a carried pass adds the carry's one
        # carry_term.  Once per forward, one kron_linear folds E and the
        # bank's weight; after the passes, the 6 decoder records:
        # 1 + 3 * passes + (passes - 1) + 6
        assert slices == []
        assert len(tape) == 1 + 3 * passes + (passes - 1) + 6 == 18
        for name in ("stack_snapshots", "concat_time", "merge_time", "split_time"):
            assert not hasattr(ad, name)

    def test_pass_records_do_not_grow_with_channels(self, rng):
        g = random_sensor_graph(rng, 3)
        window = rng.standard_normal((6, 3, 1))
        lengths = {}
        for s in (1, 3):
            tape = Tape()
            forward(tape, IstdGcnModel(tiny_config(s=s), g, seed=0), window)
            lengths[s] = len(tape)
        # the channels' weights are stored side by side: nothing is per channel
        assert lengths[3] == lengths[1]

    def test_forward_stacks_no_weights(self, rng, monkeypatch):
        g = random_sensor_graph(rng, 3)
        calls = []
        concat = ad.concat_features

        def counting(tape, parts, axis=-1):
            calls.append(axis)
            return concat(tape, parts, axis=axis)

        monkeypatch.setattr(ad, "concat_features", counting)
        counts = {}
        for t in (4, 8):
            cfg = tiny_config(T=t, s=3)
            calls.clear()
            forward(Tape(), IstdGcnModel(cfg, g, seed=0), rng.standard_normal((t, 3, 1)))
            counts[t] = len(calls)
        # the bank is the weights' storage: no concat, however many passes
        assert counts[8] == counts[4] == 0

    def test_training_step_leaves_spec_matrices_unbuilt(self, rng):
        g = random_sensor_graph(rng, 4)
        cfg = tiny_config(T=6, m=3)  # a full block and a shorter tail block
        model = IstdGcnModel(cfg, g, seed=0)
        tape = Tape()
        loss = mae_l2_loss(tape, forward(tape, model, rng.standard_normal((2, cfg.T, 4, 1))),
                           rng.standard_normal((2, cfg.H, 4, 1)), model.params(), 1e-4)
        tape.backward(loss)
        spec = {"hstg_adjacency", "nhstg_adjacency", "hstg_transition",
                "nhstg_transition", "hop_powers_h", "hop_powers_nh"}
        assert sorted(model._blocks) == [2, 3]
        for block in model._blocks.values():
            assert not spec & set(vars(block))

    def test_block_sizes_share_one_spatial_matrix(self, rng):
        model = IstdGcnModel(tiny_config(T=6, m=3), random_sensor_graph(rng, 4), seed=0)
        full, tail = model.block_graph(3), model.block_graph(2)
        spatial = full.coupled.spatial
        assert spatial is full.decoupled.spatial is tail.coupled.spatial
        assert spatial is tail.decoupled.spatial is model.graph.self_looped
        assert spatial.dense is tail.decoupled.spatial.dense

    def test_end_to_end_gradcheck(self, rng):
        g = random_sensor_graph(rng, 4)
        cfg = tiny_config()
        model = IstdGcnModel(cfg, g, seed=0)
        window = rng.standard_normal((cfg.T, 4, 1))
        target = rng.standard_normal((cfg.H, 4, 1))
        params = model.params()

        def loss_fn(tape):
            return mae_l2_loss(tape, forward(tape, model, window), target,
                               params, 1e-4)

        reports = grad_check(loss_fn, params, tol=1e-4, rng=rng)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def run_of_windows(rng, batch, t, n):
    """``batch`` consecutive (t, n, 1) windows of one series, one snapshot apart."""
    series = rng.standard_normal((batch + t - 1, n, 1))
    return np.stack([series[b:b + t] for b in range(batch)])


def carried_widths(cfg):
    """Raw snapshots per carried pass, in pass order."""
    widths, lo = [], cfg.m
    while lo < cfg.T:
        widths.append(min(cfg.m - 1, cfg.T - lo))
        lo += widths[-1]
    return widths


class TestRunPath:
    """A batch of consecutive windows folds each raw block once, for every window that holds it.

    On a non-recording tape its carried passes are feature-major plain arithmetic;
    a recording tape takes the per-pass path.
    """

    CONFIGS = [dict(K=1, m=2, s=1), dict(K=3, m=2, s=2),
               dict(K=2, m=4, s=2),  # tail passes of 3 and 2 raw snapshots: two length groups
               dict(K=3, m=3, s=1), dict(K=2, m=4, s=1, ablation="no_hstg"),
               dict(K=2, m=3, s=2, ablation="no_two_step")]
    WIDE = [dict(K=1, m=2, s=1, d=8), dict(K=2, m=4, s=2, d=16)]  # at n = 12; the rest at n = 4

    @staticmethod
    def model(rng, n, **config):
        cfg = ModelConfig(**{"d": 4, "T": 12, "H": 3, **config})
        model = IstdGcnModel(cfg, random_sensor_graph(rng, n), seed=1)
        for p in model.params():  # at init beta = 0 and the kernel is uniform: ordering hides
            p.value[...] += 0.1 * rng.standard_normal(p.value.shape)
        return model

    @staticmethod
    def feature_major_passes(monkeypatch):
        """The recording flag of the tape behind each feature-major pass, as they run."""
        seen, run_pass, encode = [], model_module._run_pass, model_module.encode
        tapes = []

        def encoding(tape, *args):
            tapes.append(tape)
            try:
                return encode(tape, *args)
            finally:
                tapes.pop()

        def recording(*args):
            seen.append(tapes[-1].recording)
            return run_pass(*args)

        monkeypatch.setattr(model_module, "encode", encoding)
        monkeypatch.setattr(model_module, "_run_pass", recording)
        return seen

    def gradients(self, run, model, windows, target):
        model.zero_grads()
        tape = Tape()
        tape.backward(mae_l2_loss(tape, run(tape, model, windows), target, model.params(), 1e-4))
        return [p.grad.copy() for p in model.params()]

    @staticmethod
    def assert_gradients_equal(model, got, want):
        for p, a, b in zip(model.params(), got, want):
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b))), p.name

    @pytest.mark.parametrize("config", CONFIGS + WIDE)
    def test_run_equals_each_window_alone(self, rng, monkeypatch, config):
        n = 12 if config in self.WIDE else 4
        model = self.model(rng, n, **config)
        passes = self.feature_major_passes(monkeypatch)
        windows = run_of_windows(rng, 30, model.config.T, n)
        got = forward(Tape(record=False), model, windows).value
        assert passes == [False] * len(carried_widths(model.config))
        want = np.stack([forward(Tape(record=False), model, w).value for w in windows])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("config", CONFIGS + WIDE)
    def test_run_equals_the_reference_path(self, rng, config):
        # the generic path diffuses each pass at full width, with the carry in
        # its block, and folds nothing: it shares neither the fold nor the
        # carry split with a run
        n = 12 if config in self.WIDE else 4
        model = self.model(rng, n, **config)
        windows = run_of_windows(rng, 8, model.config.T, n)
        got = forward(Tape(record=False), model, windows).value
        want = np.stack([generic_forward(Tape(record=False), model, w).value for w in windows])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("config", [dict(K=2, m=4, s=2), dict(K=1, m=2, s=1)])
    def test_recording_run_gradients_equal_the_reference_path(self, rng, monkeypatch, config):
        model = self.model(rng, 4, **config)
        passes = self.feature_major_passes(monkeypatch)
        windows = run_of_windows(rng, 8, model.config.T, 4)
        target = rng.standard_normal((8, model.config.H, 4, 1))
        got = self.gradients(forward, model, windows, target)
        assert passes == []
        self.assert_gradients_equal(model, got, self.gradients(generic_forward, model, windows,
                                                               target))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_gradients_equal_the_per_pass_path(self, rng, monkeypatch, config):
        # reversed, the same windows are no run: the per-pass path, and the same mean loss
        model = self.model(rng, 4, **config)
        passes = self.feature_major_passes(monkeypatch)
        windows = run_of_windows(rng, 6, model.config.T, 4)
        target = rng.standard_normal((6, model.config.H, 4, 1))
        got = self.gradients(forward, model, windows, target)
        backwards = slice(None, None, -1)
        self.assert_gradients_equal(
            model, got, self.gradients(forward, model, windows[backwards], target[backwards]))
        assert passes == []
        self.assert_gradients_equal(model, got, self.gradients(generic_forward, model, windows,
                                                               target))

    def test_grad_check_through_a_run(self, rng, monkeypatch):
        # the analytic pass records, so it takes the per-pass path; the finite
        # differences run on non-recording tapes, so they difference the run path
        model = self.model(rng, 3, K=2, m=3, s=2, T=6, H=2)  # carried passes of 2 and 1
        passes = self.feature_major_passes(monkeypatch)
        windows = run_of_windows(rng, 4, model.config.T, 3)
        target = rng.standard_normal((4, model.config.H, 3, 1))
        params = model.params()

        def loss_fn(tape):
            return mae_l2_loss(tape, forward(tape, model, windows), target, params, 1e-4)

        reports = grad_check(loss_fn, params, tol=1e-4, rng=rng)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
        assert passes and not any(passes)
        analytic = [p.grad.copy() for p in params]
        self.assert_gradients_equal(model, analytic, self.gradients(generic_forward, model,
                                                                    windows, target))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_spatial_products_and_layer_norms(self, rng, monkeypatch, config):
        model = self.model(rng, 4, **config)
        cfg = model.config
        counts = {"products": 0, "norms": 0, "feature-major norms": 0}
        matmul_dense, layer_norm, normalize = (SparseMatrix.matmul_dense, ad.layer_norm,
                                               model_module._normalize)

        def product(self, *args, **kwargs):
            counts["products"] += 1
            return matmul_dense(self, *args, **kwargs)

        def norm(tape, d, *args, **kwargs):  # one form: the width, never a carry
            assert type(d) is int, type(d)
            counts["norms"] += 1
            return layer_norm(tape, d, *args, **kwargs)

        def plain_norm(*args):
            counts["feature-major norms"] += 1
            return normalize(*args)

        monkeypatch.setattr(SparseMatrix, "matmul_dense", product)
        monkeypatch.setattr(ad, "layer_norm", norm)
        monkeypatch.setattr(model_module, "_normalize", plain_norm)

        def count(windows, tape=None):
            counts.update(products=0, norms=0, **{"feature-major norms": 0})
            forward(Tape(record=False) if tape is None else tape, model, windows)
            return tuple(counts.values())

        passes = expected_iterations(cfg.T, cfg.m)
        groups = len(set(carried_widths(cfg)))
        windows = run_of_windows(rng, 8, cfg.T, 4)
        # K products per pass and per raw block length; pass 0 alone takes the op
        run = (cfg.K * (passes + groups), 1, groups + passes - 1)
        assert count(windows) == run
        assert count(windows[:2]) == run
        per_pass = (cfg.K * (2 * passes - 1), passes, 0)
        assert count(windows, Tape()) == per_pass  # a recording tape
        assert count(windows[::2]) == per_pass  # two snapshots apart
        assert count(windows[[0, 2, 1, 3]]) == per_pass  # one swapped
        assert count(windows[:1]) == count(windows[0]) == per_pass  # one window, no batch axis

    def test_leading_axes_form_one_run(self, rng):
        model = self.model(rng, 4, K=2, m=4, s=2)
        windows = run_of_windows(rng, 20, model.config.T, 4)
        flat = forward(Tape(record=False), model, windows).value
        got = forward(Tape(record=False), model, windows.reshape((2, 10) + windows.shape[1:]))
        assert np.max(np.abs(got.value.reshape(flat.shape) - flat)) <= 1e-12 * np.max(np.abs(flat))

    def test_passes_leave_the_tables_as_built(self, rng, monkeypatch):
        # each pass reads its rows of the (s*d, U, n) tables and writes only the run's carry
        model = self.model(rng, 4, K=2, m=4, s=2)
        cfg, built, run_tables = model.config, [], model_module._run_tables

        def recording(*args):
            tables = run_tables(*args)
            built.extend((t, t.p0.copy(), t.rest.copy()) for t in tables.values())
            return tables

        monkeypatch.setattr(model_module, "_run_tables", recording)
        forward(Tape(record=False), model, run_of_windows(rng, 8, cfg.T, 4))
        assert len(built) == len(set(carried_widths(cfg))) == 2
        for table, p0, rest in built:
            assert table.p0.shape == table.rest.shape == (cfg.s * cfg.d, len(p0[0]), 4)
            assert np.array_equal(table.p0, p0) and np.array_equal(table.rest, rest)

    def test_non_finite_reading_stays_in_its_windows(self, rng, monkeypatch):
        # every spatial product, GEMM and norm of a run acts per window column
        monkeypatch.setattr(ad, "_DEBUG", False)
        model = self.model(rng, 4, K=2, m=3, s=2)
        passes = self.feature_major_passes(monkeypatch)
        t, bad = model.config.T, 20  # series snapshot 20: windows 9..20 hold it
        series = rng.standard_normal((30 + t - 1, 4, 1))
        series[bad, 1] = np.nan
        windows = np.stack([series[b:b + t] for b in range(30)])
        got = forward(Tape(record=False), model, windows).value
        assert passes
        holds = np.isin(np.arange(30), np.arange(bad - t + 1, bad + 1))
        assert not np.isfinite(got[holds]).all(axis=(1, 2, 3)).any()
        want = np.stack([forward(Tape(record=False), model, w).value for w in windows[~holds]])
        assert np.max(np.abs(got[~holds] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("poison,what", [("ch0.ln_scale", "table rows"), ("mix", "output")])
    def test_debug_names_the_run_pass(self, rng, monkeypatch, poison, what):
        # poisoned once pass 0 has run: the tables read the scale, the passes the mix
        monkeypatch.setattr(ad, "_DEBUG", True)
        model = self.model(rng, 4, K=1, m=3, s=2)
        param = {p.name: p for p in model.params()}[poison]
        run_tables = model_module._run_tables

        def poisoning(*args):
            param.value[0] = np.nan
            return run_tables(*args)

        monkeypatch.setattr(model_module, "_run_tables", poisoning)
        with pytest.raises(NumericError, match=rf"non-finite {what} in run pass \[3, 5\)"):
            forward(Tape(record=False), model, run_of_windows(rng, 8, model.config.T, 4))


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config(ablation="no_hstg")
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_config_json_with_retired_keys_loads(self):
        assert ModelConfig.from_json(RETIRED_KEYS_CONFIG_JSON) == ModelConfig()
        keys = set(json.loads(ModelConfig().to_json()))
        assert keys == {"K", "m", "s", "d", "T", "H", "ablation"}

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ArgumentError):
            ModelConfig(ablation="bogus")

    @pytest.mark.parametrize("field,value", [
        ("decoder_hidden", 0), ("decoder_hidden", -1), ("ln_eps", 0.0), ("ln_eps", -1.0),
        ("ln_eps", float("nan")), ("ln_eps", float("inf")), ("ln_eps", -float("inf"))])
    def test_out_of_range_decoder_width_or_eps_rejected(self, field, value):
        # retired keys: a config.json may carry them only at their one value
        with pytest.raises(ArgumentError, match=f"{field} variant .* was removed"):
            ModelConfig.from_json(json.dumps({field: value}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ArgumentError):
            ModelConfig.from_json('{"K": 2, "bogus": 1}')

    def test_unknown_temporal_direction_rejected(self):
        # a retired key loads only at the one value the model builds
        for value in ('"transposed"', '"sideways"', "null"):
            with pytest.raises(ArgumentError, match="temporal_direction variant .* was removed"):
                ModelConfig.from_json(f'{{"K": 2, "temporal_direction": {value}}}')

    @pytest.mark.parametrize("text", ['{"decoder_hidden": 2.0}', '{"ablation": 1}',
                                      '{"d": true}', '{"ln_eps": null}', '"K"'])
    def test_wrong_field_type_rejected(self, text):
        with pytest.raises(ArgumentError):
            ModelConfig.from_json(text)

