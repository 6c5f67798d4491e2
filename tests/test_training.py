import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stdiff

import stdiff.autodiff as ad
from conftest import has_mallopt
from stdiff.autodiff import ParamArray, Tape, Tensor, grad_check
from stdiff.data import SyntheticSpec, generate_synthetic, make_windows
from stdiff.errors import ArgumentError, DomainError, NumericError
from stdiff.metrics import evaluate
from stdiff.model import IstdGcnModel, ModelConfig, forward
from stdiff.training import (AdamState, NormStats, TrainConfig, compute_norm_stats,
                             inverse_zscore, mae_l2_loss, optimizer_step, predict_batch,
                             predict_windows, split_dataset, train, zscore)


def tiny_setup(seed=0, steps=40, **cfg_overrides):
    cfg_args = dict(K=2, m=2, s=2, d=4, T=6, H=2)
    cfg_args.update(cfg_overrides)
    cfg = ModelConfig(**cfg_args)
    g, series = generate_synthetic(SyntheticSpec(n=5, steps=steps, seed=seed))
    windows = make_windows(series, cfg.T, cfg.H)
    model = IstdGcnModel(cfg, g, seed=seed)
    return cfg, g, series, windows, model


class TestZscore:
    def test_mean_maps_to_zero(self):
        stats = NormStats(mean=10.0, std=2.0)
        assert zscore(10.0, stats) == 0.0

    def test_one_sigma_maps_to_one(self):
        stats = NormStats(mean=10.0, std=2.0)
        assert zscore(12.0, stats) == 1.0

    def test_round_trip(self, rng):
        stats = NormStats(mean=3.3, std=1.7)
        x = rng.random((5, 4)) * 50
        assert np.max(np.abs(inverse_zscore(zscore(x, stats), stats) - x)) < 1e-12

    def test_nonpositive_std_rejected(self):
        with pytest.raises(DomainError):
            NormStats(mean=0.0, std=0.0)

    def test_stats_ignore_missing_zeros(self):
        vals = np.array([[0.0, 10.0], [20.0, 0.0]])
        stats = compute_norm_stats(vals)
        assert stats.mean == 15.0


class TestLoss:
    def test_perfect_prediction_zero_loss(self, rng):
        pred = Tensor(rng.random((2, 3, 1)))
        loss = mae_l2_loss(Tape(), pred, pred.value.copy(), [], 0.0)
        assert float(loss.value) == 0.0

    def test_unit_difference(self, rng):
        target = rng.random((2, 3, 1))
        loss = mae_l2_loss(Tape(), Tensor(target + 1.0), target, [], 0.0)
        assert float(loss.value) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_oracle_with_regularization(self, rng):
        pred = Tensor(rng.standard_normal((3, 2, 1)))
        target = rng.standard_normal((3, 2, 1))
        params = [ParamArray("a", rng.standard_normal((2, 2))),
                  ParamArray("b", rng.standard_normal(3))]
        lam = 0.01
        loss = mae_l2_loss(Tape(), pred, target, params, lam)
        # entrywise scalar recomputation
        expected = 0.0
        for p, t in zip(pred.value.reshape(-1), target.reshape(-1)):
            expected += abs(p - t)
        expected /= pred.value.size
        sq = sum(v * v for p in params for v in p.value.reshape(-1))
        expected += lam * np.sqrt(sq)
        assert float(loss.value) == pytest.approx(expected, rel=1e-14)

    def test_gradcheck_away_from_kinks(self, rng):
        target = rng.standard_normal((2, 2, 1))
        pred_p = ParamArray("pred", target + rng.choice([-1, 1], size=(2, 2, 1)) * 0.5)
        reg = ParamArray("reg", rng.standard_normal((2, 2)))

        def loss_fn(tape):
            return mae_l2_loss(tape, pred_p, target, [pred_p, reg], 0.05)

        reports = grad_check(loss_fn, [pred_p, reg], tol=1e-4, rng=rng)
        assert all(r.passed for r in reports)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("l2_lambda", -1e-4), ("l2_lambda", float("nan")),
        ("l2_lambda", float("inf")), ("epochs", 0), ("batch_size", 0),
        ("early_stop_patience", -3), ("seed", -1)])
    def test_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ArgumentError, match=field):
            TrainConfig(**{field: value})

    def test_boundary_values_accepted(self):
        TrainConfig(l2_lambda=0.0, early_stop_patience=0, seed=0, epochs=1, batch_size=1)


class TestOptimizer:
    def test_zero_grads_leave_params_unchanged(self, rng):
        p = ParamArray("p", rng.random((3, 3)))
        before = p.value.copy()
        optimizer_step([p], AdamState(), TrainConfig())
        assert np.array_equal(p.value, before)

    def test_scalar_quadratic_converges(self):
        p = ParamArray("p", np.array([5.0]))
        state = AdamState()
        cfg = TrainConfig(learning_rate=0.05)
        for _ in range(2000):
            p.zero_grad()
            p.grad += 2.0 * (p.value - 1.5)  # d/dp (p - 1.5)^2
            optimizer_step([p], state, cfg)
        assert abs(p.value[0] - 1.5) < 1e-6

    def test_deterministic_given_same_inputs(self, rng):
        results = []
        for _ in range(2):
            local = np.random.default_rng(7)
            p = ParamArray("p", local.random((2, 2)))
            state = AdamState()
            cfg = TrainConfig(learning_rate=1e-2)
            for _ in range(10):
                p.zero_grad()
                p.grad += local.standard_normal((2, 2))
                optimizer_step([p], state, cfg)
            results.append(p.value.copy())
        assert np.array_equal(results[0], results[1])

    def test_non_finite_grad_names_parameter(self):
        p = ParamArray("offender", np.ones(2))
        p.grad[0] = np.nan
        with pytest.raises(NumericError, match="offender"):
            optimizer_step([p], AdamState(), TrainConfig())


class TestSplit:
    def test_ten_windows(self):
        tr, va, te = split_dataset(list(range(10)))
        assert (tr, va, te) == ([0, 1, 2, 3, 4, 5], [6, 7], [8, 9])

    def test_chronological_no_overlap(self):
        tr, va, te = split_dataset(list(range(100)))
        assert max(tr) < min(va) < max(va) < min(te)

    def test_too_few_samples(self):
        with pytest.raises(ArgumentError):
            split_dataset([1, 2])

    def test_stats_exclude_validation_and_test(self):
        _cfg, _g, _series, windows, _model = tiny_setup()
        tr, va, te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        recomputed = compute_norm_stats(
            np.concatenate([w.history.reshape(-1) for w in tr]))
        assert stats == recomputed
        tainted = compute_norm_stats(np.stack([w.history for w in windows]))
        assert stats != tainted


class TestTrainLoop:
    def test_smoke_one_epoch(self, tmp_path):
        _cfg, _g, _series, windows, model = tiny_setup()
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        report = train(model, tr, va, stats,
                       TrainConfig(epochs=1, batch_size=8),
                       log_path=tmp_path / "log.csv")
        assert len(report.logs) == 1
        lines = (tmp_path / "log.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,") and len(lines) == 2

    def test_single_batch_loss_monotone_for_small_lr(self):
        failures = 0
        for seed in range(20):
            cfg, g, series, windows, model = tiny_setup(seed=seed)
            batch = windows[:8]
            stats = compute_norm_stats(np.stack([w.history for w in batch]))
            tcfg = TrainConfig(learning_rate=1e-4, l2_lambda=0.0)
            params = model.params()
            state = AdamState()
            hist = np.stack([w.history for w in batch])
            targ = np.stack([w.target for w in batch])
            losses = []
            for _ in range(50):
                tape = Tape()
                pred = forward(tape, model, zscore(hist, stats))
                loss = mae_l2_loss(tape, pred, zscore(targ, stats), params, 0.0)
                losses.append(float(loss.value))
                model.zero_grads()
                tape.backward(loss)
                optimizer_step(params, state, tcfg)
            if any(b > a + 1e-9 for a, b in zip(losses, losses[1:])):
                failures += 1
        assert failures == 0

    def test_checkpoint_round_trip_bit_identical(self, tmp_path, rng):
        from stdiff.checkpoint import restore_params
        cfg, g, _series, windows, model = tiny_setup()
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        train(model, tr, va, stats, TrainConfig(epochs=2, batch_size=8),
              checkpoint_path=tmp_path / "best.stdf")
        w = rng.standard_normal((cfg.T, 5, 1))
        before = forward(Tape(), model, w).value
        model2 = IstdGcnModel(cfg, g, seed=99)
        restore_params(model2.params(), tmp_path / "best.stdf")
        after = forward(Tape(), model2, w).value
        assert np.array_equal(before, after)

    def test_resume_continues_trajectory(self, tmp_path):
        # two epochs at once vs one epoch, checkpoint, one more epoch:
        # with identical batch order the final params agree
        from stdiff.checkpoint import restore_params
        cfg, g, _series, windows, model_a = tiny_setup()
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        # run A: 1 epoch, save everything, then continue manually
        tcfg = TrainConfig(epochs=1, batch_size=8, early_stop_patience=100)
        train(model_a, tr, va, stats, tcfg)
        loss_next = _one_epoch_loss(model_a, tr, stats, tcfg, epoch_index=1)
        # run B from identical fresh state, same epochs done in sequence
        model_b = IstdGcnModel(cfg, g, seed=0)
        train(model_b, tr, va, stats, tcfg)
        loss_next_b = _one_epoch_loss(model_b, tr, stats, tcfg, epoch_index=1)
        assert loss_next == loss_next_b

    def test_nan_loss_aborts_with_batch_index(self, monkeypatch):
        # the loop's own message, so op-level debug checks stay off
        monkeypatch.setattr(ad, "_DEBUG", False)
        _cfg, _g, _series, windows, model = tiny_setup()
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        model.input_embed.value[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="batch"):
                train(model, tr, va, stats, TrainConfig(epochs=1, batch_size=8))


class TestForwardOnlyPasses:
    def test_predict_batch_equals_recording_forward(self):
        _cfg, _g, _series, windows, model = tiny_setup()
        hist = np.stack([w.history for w in windows[:8]])
        stats = compute_norm_stats(hist)
        want = inverse_zscore(forward(Tape(), model, zscore(hist, stats)).value, stats)
        assert np.array_equal(predict_batch(model, hist, stats), want)

    def test_evaluate_keeps_no_records(self, tapes_seen):
        _cfg, _g, _series, windows, model = tiny_setup()
        tr, _va, te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        evaluate(model, te, stats, batch_size=3)
        assert [len(t) for t in tapes_seen.values()] == [0] * -(-len(te) // 3)

    def test_validation_keeps_no_records(self, tapes_seen):
        _cfg, _g, _series, windows, model = tiny_setup()
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        train(model, tr, va, stats, TrainConfig(epochs=1, batch_size=4))
        kept = tapes_seen.kept()
        n_train, n_val = -(-len(tr) // 4), -(-len(va) // 4)
        assert len(kept) == n_train + n_val
        assert all(kept[:n_train]) and kept[n_train:] == [0] * n_val


def nan_history(window):
    return dataclasses.replace(window, history=np.full_like(window.history, np.nan))


class TestPredictionLoop:
    def test_evaluate_predicts_64_windows_per_batch(self, batch_sizes):
        _cfg, _g, _series, windows, model = tiny_setup(steps=160)
        stats = compute_norm_stats(np.stack([w.history for w in windows]))
        evaluate(model, windows, stats)
        assert batch_sizes == [64, 64, len(windows) - 128]

    def test_validation_predicts_batch_size_windows_per_batch(self, batch_sizes):
        _cfg, _g, _series, windows, model = tiny_setup(steps=60)
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        train(model, tr, va, stats, TrainConfig(epochs=2, batch_size=4))
        per_epoch = [4] * (len(va) // 4) + [len(va) % 4]
        assert len(va) % 4 and batch_sizes == per_epoch * 2

    def test_names_first_window_with_a_non_finite_prediction(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEBUG", False)
        _cfg, _g, _series, windows, model = tiny_setup()
        stats = compute_norm_stats(np.stack([w.history for w in windows]))
        windows = windows[:9] + [nan_history(w) for w in windows[9:11]] + windows[11:]
        done = []
        with pytest.raises(NumericError, match="window starting at 9$"):
            for chunk, _pred in predict_windows(model, windows, stats, 4):
                done.append(chunk)
        assert done == [windows[:4], windows[4:8]]

    def test_nan_parameter_reaches_the_predictions(self, monkeypatch):
        # relu used to map NaN to 0, so every output was the same finite number
        monkeypatch.setattr(ad, "_DEBUG", False)
        _cfg, _g, _series, windows, model = tiny_setup()
        tr, _va, te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        next(p for p in model.params() if p.name == "ch0.theta_nh1").value[0, 1] = np.nan
        assert np.isnan(predict_batch(model, np.stack([w.history for w in te]), stats)).all()
        with pytest.raises(NumericError, match=f"window starting at {te[0].start_index}$"):
            evaluate(model, te, stats)

    def test_validation_refuses_a_non_finite_prediction(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEBUG", False)
        _cfg, _g, _series, windows, model = tiny_setup()
        tr, va, _te = split_dataset(windows)
        stats = compute_norm_stats(np.stack([w.history for w in tr]))
        va = va[:3] + [nan_history(va[3])] + va[4:]
        with pytest.raises(NumericError, match=f"window starting at {va[3].start_index}$"):
            train(model, tr, va, stats, TrainConfig(epochs=1, batch_size=4))


def _one_epoch_loss(model, tr, stats, tcfg, epoch_index):
    """Deterministic replay of the given epoch's batch schedule."""
    rng = np.random.default_rng(tcfg.seed)
    for _ in range(epoch_index + 1):
        order = rng.permutation(len(tr))
    hist = np.stack([tr[i].history for i in order[:tcfg.batch_size]])
    targ = np.stack([tr[i].target for i in order[:tcfg.batch_size]])
    tape = Tape()
    pred = forward(tape, model, zscore(hist, stats))
    loss = mae_l2_loss(tape, pred, zscore(targ, stats), model.params(),
                       tcfg.l2_lambda)
    return float(loss.value)



# Training loops at train-wide's benchmark shape, each printing its minor page
# faults per step over 5 steps after 3 warm-up steps.  Under glibc's default
# policy a loop either keeps its heap or has the step's freed working set
# trimmed and faulted back in by the next step, 8,608 times per step; which,
# depends on where earlier allocations happen to sit, so several loops run.
STEADY_STATE_LOOPS = """
import resource

import numpy as np

from stdiff.autodiff import Tape
from stdiff.graph import SensorGraph
from stdiff.model import IstdGcnModel, ModelConfig, forward
from stdiff.sparse import SparseMatrix
from stdiff.training import AdamState, TrainConfig, mae_l2_loss, optimizer_step


def faults_per_step(seed, n=12, batch=32, warm_up=3, counted=5):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(dense, 0.0)
    graph = SensorGraph(n, tuple(f"v{i}" for i in range(n)), SparseMatrix(dense))
    cfg = ModelConfig(K=1, s=1, d=128, m=4, T=12, H=12)
    model = IstdGcnModel(cfg, graph, seed=seed)
    params, state, config = model.params(), AdamState(), TrainConfig()
    faults = []
    for _ in range(warm_up + counted + 1):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        history = rng.standard_normal((batch, cfg.T, n, 1))
        target = rng.standard_normal((batch, cfg.H, n, 1))
        tape = Tape()
        loss = mae_l2_loss(tape, forward(tape, model, history), target, params, config.l2_lambda)
        model.zero_grads()
        tape.backward(loss)
        optimizer_step(params, state, config)
    return (faults[-1] - faults[warm_up]) / counted


print(*(faults_per_step(seed) for seed in range(6)))
"""


class TestHeapStaysMapped:
    @pytest.mark.skipif(not has_mallopt(), reason="the heap policy needs glibc's mallopt")
    def test_training_steps_do_not_fault_their_working_set_back_in(self):
        pytest.importorskip("resource")
        # a fresh interpreter: earlier tests' allocations cannot set the heap's state
        env = dict(os.environ, PYTHONPATH=str(Path(stdiff.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", STEADY_STATE_LOOPS], env=env, check=True,
                             capture_output=True, text=True).stdout
        per_loop = [float(f) for f in out.split()]
        assert len(per_loop) == 6 and max(per_loop) < 100, per_loop
