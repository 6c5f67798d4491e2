import tracemalloc
import warnings

import numpy as np
import pytest

import stdiff.metrics as metrics
from stdiff.data import SpeedSeries, SyntheticSpec, generate_synthetic, make_windows
from stdiff.errors import ArgumentError, DomainError, ShapeError
from stdiff.metrics import (evaluate, evaluate_historical_average,
                            historical_average_baseline, mae, mape, metrics_by_horizon,
                            rmse)
from stdiff.model import IstdGcnModel, ModelConfig
from stdiff.training import NormStats, predict_batch


def scalar_mae(pred, target, mask):
    total, count = 0.0, 0
    for p, t, m in zip(pred.reshape(-1), target.reshape(-1), mask.reshape(-1)):
        if m:
            total += abs(p - t)
            count += 1
    return total / count


def scalar_rmse(pred, target, mask):
    total, count = 0.0, 0
    for p, t, m in zip(pred.reshape(-1), target.reshape(-1), mask.reshape(-1)):
        if m:
            total += (p - t) ** 2
            count += 1
    return np.sqrt(total / count)


def scalar_mape(pred, target, mask, delta=1e-5):
    total, count = 0.0, 0
    for p, t, m in zip(pred.reshape(-1), target.reshape(-1), mask.reshape(-1)):
        if m:
            total += abs(p - t) / (t + delta)
            count += 1
    return 100.0 * total / count


class TestScalarOracles:
    def test_thousand_random_instances(self, rng):
        for _ in range(1000):
            shape = tuple(rng.integers(1, 4, size=int(rng.integers(1, 4))))
            pred = rng.uniform(1.0, 80.0, size=shape)
            target = rng.uniform(1.0, 80.0, size=shape)
            mask = rng.random(shape) < 0.8
            if not mask.any():
                mask.reshape(-1)[0] = True
            assert abs(mae(pred, target, mask) - scalar_mae(pred, target, mask)) < 1e-12
            assert abs(rmse(pred, target, mask) - scalar_rmse(pred, target, mask)) < 1e-12
            assert abs(mape(pred, target, mask) - scalar_mape(pred, target, mask)) < 1e-12

    def test_rmse_worked_example(self):
        # diffs 3 and 4: sqrt((9 + 16) / 2) = sqrt(12.5)
        assert rmse([3.0, 4.0], [0.0, 0.0],
                    np.ones(2, dtype=bool)) == pytest.approx(np.sqrt(12.5), abs=1e-15)

    def test_mape_worked_example(self):
        # |11 - 10| / 10 = 10 percent, up to the small denominator shift
        assert mape([11.0], [10.0]) == pytest.approx(10.0, abs=1e-3)

    def test_zero_targets_masked_by_default(self):
        pred = np.array([5.0, 100.0])
        target = np.array([5.0, 0.0])
        assert mae(pred, target) == 0.0

    def test_mae_never_exceeds_rmse(self, rng):
        for _ in range(1000):
            pred = rng.standard_normal(int(rng.integers(2, 30)))
            target = rng.standard_normal(pred.shape)
            mask = np.ones(pred.shape, dtype=bool)
            assert mae(pred, target, mask) <= rmse(pred, target, mask) + 1e-12

    def test_permutation_invariance(self, rng):
        pred = rng.uniform(1, 80, size=50)
        target = rng.uniform(1, 80, size=50)
        perm = rng.permutation(50)
        for fn in (mae, rmse, mape):
            assert fn(pred, target) == pytest.approx(fn(pred[perm], target[perm]),
                                                     rel=1e-10)

    def test_mae_rmse_scale_consistency(self, rng):
        pred = rng.uniform(1, 80, size=40)
        target = rng.uniform(1, 80, size=40)
        mask = np.ones(40, dtype=bool)
        assert mae(3 * pred, 3 * target, mask) == pytest.approx(
            3 * mae(pred, target, mask), rel=1e-10)
        assert rmse(3 * pred, 3 * target, mask) == pytest.approx(
            3 * rmse(pred, target, mask), rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.zeros(3), np.zeros(4))

    def test_all_masked_rejected(self):
        with pytest.raises(DomainError):
            mae(np.ones(3), np.zeros(3))

    def test_bad_mape_delta(self):
        with pytest.raises(ArgumentError):
            mape([1.0], [1.0], np.ones(1, dtype=bool), delta=0.0)


class TestHorizonReport:
    def test_slices_match_direct_computation(self, rng):
        pred = rng.uniform(1, 80, size=(6, 12, 4, 1))
        target = rng.uniform(1, 80, size=(6, 12, 4, 1))
        report = metrics_by_horizon(pred, target)
        assert [r.horizon_min for r in report.per_horizon] == [15, 30, 60]
        for r, h in zip(report.per_horizon, (3, 6, 12)):
            assert r.mae == pytest.approx(mae(pred[:, h - 1], target[:, h - 1]))
        assert report.aggregate.mae == pytest.approx(mae(pred, target))

    def test_short_horizon_rows_dropped(self, rng):
        pred = rng.uniform(1, 80, size=(3, 4, 2, 1))
        target = rng.uniform(1, 80, size=(3, 4, 2, 1))
        report = metrics_by_horizon(pred, target)
        assert [r.horizon_min for r in report.per_horizon] == [15]

    @pytest.mark.parametrize("interval, labels", [(300, "15 30 60 60"),
                                                  (600, "30 60 120 120"),
                                                  (90, "4.5 9 18 18")])
    def test_minutes_follow_the_interval(self, rng, interval, labels):
        # three horizons, then the aggregate, labelled as the reports print them
        pred = rng.uniform(1, 80, size=(3, 12, 2, 1))
        report = metrics_by_horizon(pred, pred + 1.0, interval=interval)
        assert " ".join(str(r.horizon_min) for r in report.rows()) == labels


class TestStreamedSums:
    """Every report is accumulated window by window, in an order chunking cannot change."""

    @pytest.fixture
    def arrays(self, rng):
        # 150 windows: no chunk size below divides it evenly
        pred = rng.uniform(1, 80, size=(150, 12, 5, 1))
        target = rng.uniform(1, 80, size=pred.shape)
        target[rng.random(pred.shape) < 0.05] = 0.0
        return pred, target, rng.random(pred.shape) < 0.7

    @pytest.mark.parametrize("with_mask", [False, True], ids=["default_mask", "mask"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_does_not_change_a_bit(self, arrays, monkeypatch, chunk, with_mask):
        pred, target, mask = arrays
        mask = mask if with_mask else None
        whole = metrics_by_horizon(pred, target, mask=mask)  # 150 windows: more than one chunk
        monkeypatch.setattr(metrics, "EVAL_BATCH", len(pred))
        assert metrics_by_horizon(pred, target, mask=mask) == whole
        monkeypatch.setattr(metrics, "EVAL_BATCH", chunk)
        assert metrics_by_horizon(pred, target, mask=mask) == whole

    def test_rows_agree_with_masked_errors_on_slices(self, arrays):
        pred, target, mask = arrays
        report = metrics_by_horizon(pred, target, mask=mask)
        for row, h in zip(report.per_horizon, (3, 6, 12)):
            want = metrics.masked_errors(pred[:, h - 1], target[:, h - 1], mask[:, h - 1])
            assert (row.mae, row.rmse, row.mape) == pytest.approx(want, rel=1e-12)
        want = metrics.masked_errors(pred, target, mask)
        agg = report.aggregate
        assert (agg.mae, agg.rmse, agg.mape) == pytest.approx(want, rel=1e-12)
        assert agg.n_samples == len(pred)

    def test_masked_out_entries_never_enter(self, arrays):
        # non-finite values where the mask is off change nothing and warn nothing
        pred, target, mask = arrays
        want = metrics_by_horizon(pred, target, mask=mask)
        pred, target = pred.copy(), target.copy()
        pred[~mask] = np.nan
        target[~mask] = -1e-5  # a zero MAPE denominator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert metrics_by_horizon(pred, target, mask=mask) == want

    def test_mask_shape_mismatch_rejected(self, arrays):
        pred, target, mask = arrays
        with pytest.raises(ShapeError, match="mask shape"):
            metrics_by_horizon(pred, target, mask=mask[:, :6])

    def test_horizon_without_readings_rejected(self, arrays):
        pred, target, _mask = arrays
        target = target.copy()
        target[:, 5] = 0.0
        with pytest.raises(DomainError, match="empty mask"):
            metrics_by_horizon(pred, target)

    def test_no_windows_rejected(self):
        with pytest.raises(DomainError, match="empty mask"):
            metrics_by_horizon(np.zeros((0, 12, 3, 1)), np.zeros((0, 12, 3, 1)))


def tiny_eval_setup(n=5, steps=160, H=3):
    cfg = ModelConfig(K=1, m=2, s=1, d=4, T=6, H=H)
    graph, series = generate_synthetic(SyntheticSpec(n=n, steps=steps, seed=3))
    return IstdGcnModel(cfg, graph, seed=3), make_windows(series, cfg.T, cfg.H)


class TestStreamedEvaluate:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_equals_metrics_by_horizon_on_whole_arrays(self, batch_size):
        # predictions batched as evaluate batches them: a window's last bits
        # depend on its batch (a run or the per-pass loop), the sums on nothing else
        model, windows = tiny_eval_setup()
        stats = NormStats(50.0, 10.0)
        pred = np.concatenate([
            predict_batch(model, np.stack([w.history for w in windows[lo:lo + batch_size]]), stats)
            for lo in range(0, len(windows), batch_size)])
        want = metrics_by_horizon(pred, np.stack([w.target for w in windows]))
        assert evaluate(model, windows, stats, batch_size=batch_size) == want

    def test_empty_test_set_rejected(self):
        model, _windows = tiny_eval_setup()
        with pytest.raises(ArgumentError, match="empty test set"):
            evaluate(model, [], NormStats(50.0, 10.0))

    def test_transient_peak_does_not_grow_with_the_window_count(self):
        # one 64-window batch at a time: the whole-set arrays used to double with the set
        model, windows = tiny_eval_setup(n=20, steps=820)
        stats = NormStats(50.0, 10.0)
        evaluate(model, windows[:64], stats)  # first-call allocations out of the way

        def peak(ws):
            tracemalloc.start()
            try:
                evaluate(model, ws, stats)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        half = len(windows) // 2
        assert peak(windows[:2 * half]) < 1.2 * peak(windows[:half])


def weekly_series(weeks=2, interval=300):
    """Constant 60 on weekdays, 30 on weekends (timestamp 0 = Thursday)."""
    steps = weeks * 7 * 86400 // interval
    ts = np.arange(steps, dtype=np.int64) * interval
    day = (ts // 86400 + 4) % 7  # epoch day 0 is a Thursday
    vals = np.where((day == 5) | (day == 6), 30.0, 60.0)
    values = np.stack([vals, vals * 0.5], axis=1)
    return SpeedSeries(ts, values, ("a", "b"))


def slot_loop_reference(train_series, eval_windows):
    """The historical average as a per-slot ``nanmean`` loop, one time-of-week slot at a time.

    A stream shorter than one week averages each sensor over the whole stream.
    """
    values, interval = train_series.values, train_series.interval
    week_slots = 7 * 86400 // interval
    obs = np.where(values != 0.0, values, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        level = np.nan_to_num(np.nanmean(obs, axis=0))
        if values.shape[0] < week_slots:
            slot_mean, week_slots = level[None], 1
        else:
            slots = (train_series.timestamps // interval) % week_slots
            slot_mean = np.full((week_slots, values.shape[1]), np.nan)
            for slot in range(week_slots):
                rows = obs[slots == slot]
                if rows.size:
                    slot_mean[slot] = np.nanmean(rows, axis=0)
            slot_mean = np.where(np.isfinite(slot_mean), slot_mean, level)
    preds = []
    for w in eval_windows:
        slot0 = (w.target_timestamps[0] // interval) % week_slots
        preds.append(np.stack([slot_mean[(slot0 + h) % week_slots]
                               for h in range(w.target.shape[0])])[..., None])
    return np.stack(preds)


def noisy_series(rng, days, interval=300, n=3, start=1_577_836_800 + 7_200):
    """Random speeds from ``start``, about 3% of them stored as 0 (missing)."""
    steps = days * 86400 // interval
    ts = start + np.arange(steps, dtype=np.int64) * interval
    vals = rng.uniform(20.0, 70.0, size=(steps, n))
    vals[rng.random(vals.shape) < 0.03] = 0.0
    return SpeedSeries(ts, vals, tuple(f"s{i}" for i in range(n)))


def always_zero_sensor(rng):
    series = noisy_series(rng, days=15)
    series.values[:, 1] = 0.0
    return series


def slot_without_readings(rng):
    series = noisy_series(rng, days=15)
    slots = (series.timestamps // 300) % 2016
    series.values[slots == 7] = 0.0
    series.values[slots == 8, 2] = 0.0
    return series


class TestHistoricalAverage:
    @pytest.mark.parametrize("make", [
        lambda rng: noisy_series(rng, days=22),
        always_zero_sensor,
        slot_without_readings,
        lambda rng: noisy_series(rng, days=16, interval=600),
    ], ids=["three_weeks", "always_zero_sensor", "slot_without_readings", "600s"])
    def test_equals_slot_loop_reference(self, rng, make):
        series = make(rng)
        windows = make_windows(series, 12, 12, stride=7)
        got = historical_average_baseline(series, windows)
        assert np.array_equal(got, slot_loop_reference(series, windows))

    def test_single_sensor_many_weeks_within_rounding_of_reference(self, rng):
        # nanmean sums a one-column slot of 8+ rows pairwise, the baseline week by week
        series = noisy_series(rng, days=63, n=1)
        windows = make_windows(series, 12, 12, stride=97)
        got = historical_average_baseline(series, windows)
        np.testing.assert_allclose(got, slot_loop_reference(series, windows),
                                   rtol=8 * np.finfo(np.float64).eps, atol=0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_short_stream_equals_slot_loop_reference(self, rng, n):
        series = noisy_series(rng, days=5, n=n)
        windows = make_windows(series, 12, 12, stride=5)
        with pytest.warns(UserWarning, match="shorter than one week"):
            got = historical_average_baseline(series, windows)
        assert np.array_equal(got, slot_loop_reference(series, windows))

    def test_recovers_weekly_slot_pattern(self):
        series = weekly_series(weeks=2)
        windows = make_windows(series, 12, 12, stride=50)
        preds = historical_average_baseline(series, windows)
        for w, p in zip(windows, preds):
            assert np.max(np.abs(p - w.target)) < 1e-12

    def test_short_stream_is_constant_per_vertex(self):
        # one slot: every horizon of every window gets the sensor's mean
        series = weekly_series(weeks=1)
        short = SpeedSeries(series.timestamps[:-1], series.values[:-1], series.ids)
        windows = make_windows(short, 12, 12, stride=100)
        with pytest.warns(UserWarning, match="shorter than one week"):
            preds = historical_average_baseline(short, windows)
        assert np.all(preds[:, :, 0, 0] == preds[0, 0, 0, 0])
        assert preds[0, 0, 0, 0] == pytest.approx(short.values[:, 0].mean(), rel=1e-12)

    def test_short_stream_falls_back_with_warning(self):
        ts = np.arange(50, dtype=np.int64) * 300
        series = SpeedSeries(ts, np.full((50, 2), 42.0), ("a", "b"))
        windows = make_windows(series, 12, 12)
        with pytest.warns(UserWarning, match="shorter than one week"):
            preds = historical_average_baseline(series, windows)
        assert np.allclose(preds, 42.0)

    def test_zero_entries_excluded_from_averages(self):
        ts = np.arange(40, dtype=np.int64) * 300
        vals = np.full((40, 1), 50.0)
        vals[::4] = 0.0  # missing
        series = SpeedSeries(ts, vals, ("a",))
        windows = make_windows(series, 12, 12)
        with pytest.warns(UserWarning, match="shorter than one week"):
            preds = historical_average_baseline(series, windows)
        assert np.allclose(preds, 50.0)


class TestStreamedHistoricalAverage:
    @pytest.mark.parametrize("days", [5, 16], ids=["one_slot", "weekly"])
    def test_equals_metrics_by_horizon_of_the_baseline(self, rng, days):
        series = noisy_series(rng, days=days)
        windows = make_windows(series, 12, 12)[-300:]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = evaluate_historical_average(series, windows, interval=series.interval)
            pred = historical_average_baseline(series, windows)
        assert got == metrics_by_horizon(pred, np.stack([w.target for w in windows]))

    def test_empty_test_set_rejected_before_the_slot_table(self, rng, monkeypatch):
        def fit(cls, train_series):
            raise AssertionError("the slot table was built for an empty test set")

        monkeypatch.setattr(metrics.HistoricalAverage, "fit", classmethod(fit))
        with pytest.raises(ArgumentError, match="empty test set"):
            evaluate_historical_average(noisy_series(rng, days=8), [])
