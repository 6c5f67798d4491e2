import numpy as np
import pytest

from stdiff.data import SpeedSeries, make_windows
from stdiff.errors import ArgumentError, DomainError, ShapeError
from stdiff.metrics import (historical_average_baseline, mae, mape,
                            metrics_by_horizon, rmse)


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


def weekly_series(weeks=2, interval=300):
    """Constant 60 on weekdays, 30 on weekends (timestamp 0 = Thursday)."""
    steps = weeks * 7 * 86400 // interval
    ts = np.arange(steps, dtype=np.int64) * interval
    day = (ts // 86400 + 4) % 7  # epoch day 0 is a Thursday
    vals = np.where((day == 5) | (day == 6), 30.0, 60.0)
    values = np.stack([vals, vals * 0.5], axis=1)
    return SpeedSeries(ts, values, ("a", "b"))


class TestHistoricalAverage:
    def test_weekly_mode_recovers_slot_pattern(self):
        series = weekly_series(weeks=2)
        windows = make_windows(series, 12, 12, stride=50)
        preds = historical_average_baseline(series, windows, mode="weekly")
        for w, p in zip(windows, preds):
            assert np.max(np.abs(p - w.target)) < 1e-12

    def test_global_mode_is_constant_per_vertex(self):
        series = weekly_series(weeks=1)
        windows = make_windows(series, 12, 12, stride=100)
        preds = historical_average_baseline(series, windows, mode="global")
        assert np.allclose(preds[:, :, 0, 0], preds[0, 0, 0, 0])
        mean_a = series.values[:, 0].mean()
        assert preds[0, 0, 0, 0] == pytest.approx(mean_a, rel=1e-12)

    def test_short_stream_falls_back_with_warning(self):
        ts = np.arange(50, dtype=np.int64) * 300
        series = SpeedSeries(ts, np.full((50, 2), 42.0), ("a", "b"))
        windows = make_windows(series, 12, 12)
        with pytest.warns(UserWarning, match="shorter than one week"):
            preds = historical_average_baseline(series, windows, mode="weekly")
        assert np.allclose(preds, 42.0)

    def test_zero_entries_excluded_from_averages(self):
        ts = np.arange(40, dtype=np.int64) * 300
        vals = np.full((40, 1), 50.0)
        vals[::4] = 0.0  # missing
        series = SpeedSeries(ts, vals, ("a",))
        windows = make_windows(series, 12, 12)
        preds = historical_average_baseline(series, windows, mode="global")
        assert np.allclose(preds, 50.0)

    def test_unknown_mode_rejected(self):
        series = weekly_series(weeks=1)
        with pytest.raises(ArgumentError):
            historical_average_baseline(series, [], mode="monthly")
