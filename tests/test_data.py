import numpy as np
import pytest

from stdiff.data import (SpeedSeries, SyntheticSpec, generate_synthetic,
                         load_speed_csv, make_windows, save_speed_csv)
from stdiff.errors import ArgumentError, FormatError, IdentifierError
from stdiff.graph import SensorGraph
from stdiff.sparse import SparseMatrix


def small_series(steps=30, n=3):
    rng = np.random.default_rng(5)
    ts = np.arange(steps, dtype=np.int64) * 300
    vals = rng.uniform(1.0, 80.0, size=(steps, n))
    return SpeedSeries(ts, vals, tuple(f"s{i}" for i in range(n)))


class TestSpeedSeries:
    def test_interval_from_timestamps(self):
        assert small_series().interval == 300

    def test_ragged_timestamp_spacing_rejected(self):
        ts = np.array([0, 300, 700], dtype=np.int64)
        with pytest.raises(FormatError):
            SpeedSeries(ts, np.ones((3, 1)), ("a",))

    def test_column_mismatch_rejected(self):
        ts = np.arange(3, dtype=np.int64) * 300
        with pytest.raises(FormatError):
            SpeedSeries(ts, np.ones((3, 2)), ("a",))

    def test_non_finite_rejected(self):
        ts = np.arange(2, dtype=np.int64) * 300
        vals = np.array([[1.0], [np.nan]])
        with pytest.raises(FormatError):
            SpeedSeries(ts, vals, ("a",))


class TestCsvRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        series = small_series()
        save_speed_csv(series, tmp_path / "s.csv")
        back = load_speed_csv(tmp_path / "s.csv")
        assert back.ids == series.ids
        assert np.array_equal(back.timestamps, series.timestamps)
        assert np.array_equal(back.values, series.values)

    def test_graph_id_check(self, tmp_path):
        series = small_series(n=2)
        save_speed_csv(series, tmp_path / "s.csv")
        good = SensorGraph(2, ("s0", "s1"), SparseMatrix.zeros(2, 2))
        load_speed_csv(tmp_path / "s.csv", graph=good)
        bad = SensorGraph(2, ("x", "y"), SparseMatrix.zeros(2, 2))
        with pytest.raises(IdentifierError):
            load_speed_csv(tmp_path / "s.csv", graph=bad)

    def test_missing_header_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("0,1.0\n300,2.0\n")
        with pytest.raises(FormatError):
            load_speed_csv(tmp_path / "s.csv")

    @pytest.mark.parametrize("text", [
        "timestamp,a\n0,1.0\n300,inf\n",         # non-finite reading
        "timestamp,a\n0,1.0\n300,2.0\n900,3.0\n",  # off the fixed interval
    ])
    def test_bad_series_names_csv(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=str(path)):
            load_speed_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("timestamp,a\n0,1.0\n300\n")
        with pytest.raises(FormatError):
            load_speed_csv(tmp_path / "s.csv")


class TestWindows:
    def test_count_formula_exhaustive(self):
        for total in range(2, 101):
            for t_hist in (1, 3, 12):
                for horizon in (1, 2, 12):
                    if total < t_hist + horizon:
                        continue
                    series = small_series(steps=total)
                    windows = make_windows(series, t_hist, horizon)
                    assert len(windows) == total - t_hist - horizon + 1

    def test_history_and_target_are_contiguous(self):
        series = small_series()
        w = make_windows(series, 4, 2)[5]
        assert w.start_index == 5
        assert np.array_equal(w.history[..., 0], series.values[5:9])
        assert np.array_equal(w.target[..., 0], series.values[9:11])
        assert np.array_equal(w.target_timestamps, series.timestamps[9:11])

    def test_no_window_overlaps_past_the_end(self):
        series = small_series(steps=30)
        windows = make_windows(series, 12, 12)
        last = windows[-1]
        assert last.start_index + 12 + 12 == 30

    def test_stride(self):
        series = small_series(steps=30)
        assert len(make_windows(series, 4, 2, stride=5)) == 5

    def test_too_short_rejected(self):
        with pytest.raises(ArgumentError):
            make_windows(small_series(steps=10), 8, 8)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        g1, s1 = generate_synthetic(SyntheticSpec(n=6, steps=50, seed=9))
        g2, s2 = generate_synthetic(SyntheticSpec(n=6, steps=50, seed=9))
        assert np.array_equal(s1.values, s2.values)
        assert g1.adjacency == g2.adjacency
        _, s3 = generate_synthetic(SyntheticSpec(n=6, steps=50, seed=10))
        assert not np.array_equal(s1.values, s3.values)

    def test_shapes_and_positivity(self):
        g, s = generate_synthetic(SyntheticSpec(n=5, steps=40, seed=0))
        assert g.n == 5 and s.values.shape == (40, 5)
        assert np.all(s.values >= 1.0)
        assert s.interval == 300

    def test_noise_free_static_dynamics_is_periodic(self):
        # alpha=0 removes diffusion; the pure seasonal signal repeats
        spec = SyntheticSpec(n=4, steps=60, seed=3, alpha=0.0, noise_std=0.0,
                             period=12)
        _, s = generate_synthetic(spec)
        assert np.max(np.abs(s.values[1:13] - s.values[13:25])) < 1e-9

    def test_diffusion_couples_neighbors(self):
        # with diffusion on, tomorrow's value depends on the neighbors' today
        spec = SyntheticSpec(n=6, steps=100, seed=1, alpha=0.9, noise_std=0.0,
                             dynamics="diffusion")
        g, s = generate_synthetic(spec)
        # the signal converges toward consensus across connected vertices
        early_spread = s.values[1].std()
        late_spread = s.values[-1].std()
        assert late_spread < early_spread

    def test_invalid_spec_rejected(self):
        with pytest.raises(ArgumentError):
            generate_synthetic(SyntheticSpec(n=1))
        with pytest.raises(ArgumentError):
            generate_synthetic(SyntheticSpec(dynamics="chaos"))
        with pytest.raises(ArgumentError):
            SyntheticSpec.from_json('{"n": 4, "bogus": 1}')
