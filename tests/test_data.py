import csv
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import mutate_bytes
from stdiff.data import (SpeedSeries, SyntheticSpec, WindowSample, Windows,
                         generate_synthetic, load_speed_csv, make_windows, save_speed_csv)
from stdiff.errors import ArgumentError, FormatError, IdentifierError
from stdiff.graph import SensorGraph
from stdiff.metrics import evaluate
from stdiff.model import IstdGcnModel, ModelConfig
from stdiff.sparse import sparsify
from stdiff.training import TrainConfig, compute_norm_stats, split_dataset, train


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

    @pytest.mark.parametrize("ts", [
        [9223372036854775000, -9223372036854775000],  # np.diff wraps to +1616
        [-9223372036854775000, 9223372036854775000],  # increasing, span beyond int64
        [0, 300, 300],
    ], ids=["decreasing_past_int64", "span_past_int64", "repeated"])
    def test_timestamps_that_wrap_or_stall_rejected_silently(self, ts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            with pytest.raises(FormatError, match="timestamps"):
                SpeedSeries(np.array(ts, dtype=np.int64), np.ones((len(ts), 1)), ("a",))

    def test_interval_near_int64_limits(self):
        step = 2 ** 62 - 1  # the widest span an int64 holds, less one
        ts = np.array([-step, 0, step], dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SpeedSeries(ts, np.ones((3, 1)), ("a",)).interval == step

    def test_column_mismatch_rejected(self):
        ts = np.arange(3, dtype=np.int64) * 300
        with pytest.raises(FormatError):
            SpeedSeries(ts, np.ones((3, 2)), ("a",))

    def test_non_finite_rejected(self):
        ts = np.arange(2, dtype=np.int64) * 300
        vals = np.array([[1.0], [np.nan]])
        with pytest.raises(FormatError):
            SpeedSeries(ts, vals, ("a",))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (3, 1)])
    def test_non_finite_anywhere_rejected(self, bad, where):
        ts = np.arange(4, dtype=np.int64) * 300
        vals = np.ones((4, 3))
        vals[where] = bad
        with pytest.raises(FormatError, match="non-finite"):
            SpeedSeries(ts, vals, ("a", "b", "c"))

    def test_zero_rows_valid(self):
        series = SpeedSeries(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), ("a", "b"))
        assert len(series) == 0 and series.interval == 300

    def test_checks_allocate_no_readings_sized_array(self):
        # one bool per reading would be values.size bytes; the timestamp
        # checks take about 9 bytes per row
        steps, n = 10_000, 100
        ts = np.arange(steps, dtype=np.int64) * 300
        vals = np.ones((steps, n))
        tracemalloc.start()
        try:
            SpeedSeries(ts, vals, tuple(map(str, range(n))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vals.size / 4


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
        good = SensorGraph(2, ("s0", "s1"), sparsify(np.zeros((2, 2))))
        load_speed_csv(tmp_path / "s.csv", graph=good)
        bad = SensorGraph(2, ("x", "y"), sparsify(np.zeros((2, 2))))
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


def csv_loop_reference(path):
    """``(ids, timestamps, values)`` of a speed CSV, read one Python number at a time.

    The reading loop the speed CSV loader used before it parsed with numpy;
    the loader must read every valid file exactly as this does.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        ts, rows = [], []
        for line in reader:
            if not line:
                continue
            assert len(line) == len(header)
            ts.append(int(line[0]))
            rows.append([float(v) for v in line[1:]])
    return tuple(header[1:]), np.asarray(ts, dtype=np.int64), np.asarray(rows)


VALID_SPEED_CSVS = {
    "crlf": "timestamp,a,b\r\n0,1.5,2\r\n300,3.25,4\r\n",
    "blank_lines": "timestamp,a,b\n\n0,1.5,2\n\n\n300,3.25,4\n\n",
    "no_final_newline": "timestamp,a,b\n0,1.5,2\n300,3.25,4",
    "spaces": "timestamp,a,b\n 0 , 1.5,2 \n300 ,3.25 ,\t4\n",
    "quoted": '"timestamp","a","b,c"\n"0","1.5",2\n300,"3.25"," 4"\n',
    "exponents": "timestamp,a,b\n0,1.5e1,2E-3\n300,3.25e+2,.4e0\n",
    "leading_sign_or_zero": "timestamp,a,b\n+0,+1.5,002\n0300,03.25,+04.\n",
    "stored_zeros": "timestamp,a,b\n0,0,0.0\n300,0e0,4\n600,-0,0.000\n",
    "long_digits": ("timestamp,a,b\n1330000000,0.1,62.123456789012345678901\n"
                    "1330000300,4.9e-324,2.2250738585072011e-308\n"),
}


class TestLoaderMatchesCsvLoop:
    @pytest.mark.parametrize("text", VALID_SPEED_CSVS.values(), ids=VALID_SPEED_CSVS.keys())
    def test_valid_file_reads_bit_for_bit(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        ids, ts, values = csv_loop_reference(path)
        series = load_speed_csv(path)
        assert series.ids == ids
        assert series.timestamps.dtype == np.int64 and series.values.dtype == np.float64
        assert series.timestamps.flags.c_contiguous and series.values.flags.c_contiguous
        assert series.timestamps.tobytes() == ts.tobytes()
        assert series.values.tobytes() == values.tobytes()


    @pytest.mark.parametrize("steps", [1024, 1025, 2500])
    def test_readings_packed_block_by_block_read_bit_for_bit(self, tmp_path, steps):
        # the readings move to the front of the parsed table 1,024 rows at a time
        series = small_series(steps=steps, n=7)
        path = tmp_path / "s.csv"
        save_speed_csv(series, path)
        back = load_speed_csv(path)
        assert back.timestamps.flags.c_contiguous and back.values.flags.c_contiguous
        assert back.timestamps.tobytes() == series.timestamps.tobytes()
        assert back.values.tobytes() == series.values.tobytes()


def test_load_holds_one_table(tmp_path):
    """The load's traced peak stays near the parsed table's bytes.

    numpy's reader alone peaks at 1.16-1.28 times its table while the table
    grows (measured at 6,000-20,000 rows); a second table-sized copy of the
    readings takes the load to 2.15 times.
    """
    steps, n = 10_000, 30
    path = tmp_path / "s.csv"
    save_speed_csv(small_series(steps=steps, n=n), path)
    tracemalloc.start()
    try:
        load_speed_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * steps * (n + 1) * 8


class TestSpeedCsvEdgeCases:
    def test_header_only_holds_no_readings(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,a,b\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning stays silent
            with pytest.raises(FormatError, match=f"{path}: holds no readings"):
                load_speed_csv(path)

    @pytest.mark.parametrize("text", [
        "timestamp,a\n0,1.0\n300,2.0#x\n",              # '#' does not start a comment
        "timestamp,a\n0,1.0\n300.5,2.0\n",              # timestamp not an integer
        "timestamp,a\n0,1.0\n99999999999999999999,2.0\n",  # timestamp beyond int64
        "timestamp,a\n0,1.0\n300,\n",                    # empty reading
    ], ids=["hash_in_value", "fractional_timestamp", "timestamp_beyond_int64",
            "empty_reading"])
    def test_malformed_row_names_file(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=str(path)):
            load_speed_csv(path)

    def test_wrapping_timestamps_name_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,a\n9223372036854775000,1.0\n-9223372036854775000,2.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=f"{path}: timestamps must increase"):
                load_speed_csv(path)

    def test_unclosed_quote_in_header_names_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text('timestamp,"a\n' + "0,1.0\n" * 40000)
        with pytest.raises(FormatError, match=str(path)):
            load_speed_csv(path)


def test_fuzzed_speed_csv_is_a_series_or_an_error_naming_it(tmp_path):
    graph, series = generate_synthetic(SyntheticSpec(n=3, steps=20, seed=2))
    values = series.values.copy()
    values[3, 1] = 0.0
    good = tmp_path / "good.csv"
    save_speed_csv(SpeedSeries(series.timestamps, values, series.ids), good)
    data = good.read_bytes()
    rng = np.random.default_rng(1505)
    outcomes = {"series": 0, "error": 0}
    for i in range(300):
        path = tmp_path / f"m{i}.csv"
        path.write_bytes(mutate_bytes(data, rng))
        try:
            back = load_speed_csv(path, graph=graph if i % 2 else None)
        except (FormatError, IdentifierError) as exc:
            assert str(path) in str(exc)
            outcomes["error"] += 1
            continue
        outcomes["series"] += 1
        assert back.values.flags.c_contiguous and np.all(np.isfinite(back.values))
        ids, ts, ref = csv_loop_reference(path)  # what is accepted reads as before
        assert back.ids == ids and back.timestamps.tobytes() == ts.tobytes()
        assert back.values.tobytes() == ref.tobytes()
    assert min(outcomes.values()) >= 30, outcomes


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

    @pytest.mark.parametrize("stride", [1, 3])
    def test_indexed_items_are_the_per_window_samples(self, stride):
        series = small_series(steps=40)
        windows = make_windows(series, 5, 3, stride=stride)
        want = window_samples(series, 5, 3, stride)
        assert len(windows) == len(want)
        for got in (list(windows), [windows[i] for i in range(-len(want), 0)]):
            for g, w in zip(got, want, strict=True):
                assert g.start_index == w.start_index
                for field in ("history", "target", "target_timestamps"):
                    assert np.array_equal(getattr(g, field), getattr(w, field))
                assert np.shares_memory(g.history, series.values)

    def test_gathers_equal_stacked_slices(self, rng):
        windows = make_windows(small_series(steps=60), 5, 3, stride=2)
        n = len(windows)
        for idx in (rng.permutation(n)[:7], np.arange(1, n, 3), np.array([-1, -4, 0, -n])):
            picked = [windows[int(i)] for i in idx]
            for field in ("history", "target", "target_timestamps"):
                stacked = np.stack([getattr(w, field) for w in picked])
                assert np.array_equal(getattr(windows, field)(idx), stacked)

    @pytest.mark.parametrize("part", [slice(2, 9), slice(None, None, 3), slice(-5, None),
                                      slice(None, None, -2), slice(4, 4)])
    def test_slice_is_windows_of_the_sliced_starts(self, part):
        windows = make_windows(small_series(steps=40), 5, 3)
        sub = windows[part]
        assert isinstance(sub, Windows)
        assert sub.starts.tolist() == windows.starts.tolist()[part]
        assert [w.start_index for w in sub] == [w.start_index for w in list(windows)[part]]

    def test_split_slices_windows(self):
        windows = make_windows(small_series(steps=40), 5, 3)
        parts = split_dataset(windows)
        assert all(isinstance(p, Windows) for p in parts)
        assert np.array_equal(np.concatenate([p.starts for p in parts]), windows.starts)

    def test_set_up_and_training_build_no_window_sample(self, monkeypatch):
        built = []
        init = WindowSample.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WindowSample, "__init__", counting_init)
        cfg = ModelConfig(K=1, m=2, s=1, d=4, T=6, H=2)
        graph, series = generate_synthetic(SyntheticSpec(n=5, steps=60, seed=2))
        tr, va, te = split_dataset(make_windows(series, cfg.T, cfg.H))
        stats = compute_norm_stats(series.values[:len(tr)])
        model = IstdGcnModel(cfg, graph, seed=2)
        evaluate(model, te, stats, batch_size=4)
        train(model, tr, va, stats, TrainConfig(epochs=1, batch_size=4))
        assert built == []
        assert tr[0].start_index == 0 and len(built) == 1  # the counter counts


def window_samples(series, t_hist, horizon, stride=1):
    """One ``WindowSample`` per window, built in a loop as a reference."""
    values, ts = series.values[..., None], series.timestamps
    out = []
    for start in range(0, len(series) - t_hist - horizon + 1, stride):
        mid, end = start + t_hist, start + t_hist + horizon
        out.append(WindowSample(values[start:mid], values[mid:end], start, ts[mid:end]))
    return out


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
        # every field is checked when the spec is made, before any generation
        nan, inf = float("nan"), float("inf")
        for field, value in (("n", 1), ("steps", 1), ("seed", -2), ("alpha", nan),
                             ("alpha", inf), ("period", 0), ("noise_std", -1.0),
                             ("noise_std", nan), ("noise_std", inf), ("dynamics", "chaos")):
            with pytest.raises(ArgumentError, match=field):
                SyntheticSpec(**{field: value})
        with pytest.raises(ArgumentError):
            SyntheticSpec.from_json('{"n": 4, "bogus": 1}')

    def test_float_field_accepts_int(self):
        spec = SyntheticSpec.from_json('{"alpha": 1, "noise_std": 0}')
        assert spec.alpha == 1 and spec.noise_std == 0
        with pytest.raises(ArgumentError, match="'n' must be int"):
            SyntheticSpec.from_json('{"n": 4.0}')
