import json

import numpy as np
import pytest

import stdiff.autodiff as ad
import stdiff.cli as cli
import stdiff.training as training
from conftest import RETIRED_KEYS_CONFIG_JSON, mutate_bytes
from stdiff.autodiff import ParamArray
from stdiff.checkpoint import load_params, save_params
from stdiff.cli import build_parser, main
from stdiff.data import (SpeedSeries, SyntheticSpec, generate_synthetic, load_speed_csv,
                         make_windows, save_speed_csv)
from stdiff.graph import load_adjacency, save_adjacency
from stdiff.metrics import historical_average_baseline, metrics_by_horizon
from stdiff.model import RETIRED_KEYS, IstdGcnModel, ModelConfig
from stdiff.training import split_dataset

TINY = ModelConfig(K=2, m=2, s=2, d=4, T=6, H=2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Synthetic graph + speed CSV on disk, plus a tiny model config."""
    root = tmp_path_factory.mktemp("data")
    graph, series = generate_synthetic(SyntheticSpec(n=4, steps=60, seed=3))
    save_adjacency(graph, root / "adj")
    save_speed_csv(series, root / "speed.csv")
    (root / "config.json").write_text(TINY.to_json() + "\n")
    return root, graph, series


def train_args(dataset_root, out, **extra):
    args = ["train", "--data", str(dataset_root / "speed.csv"),
            "--adj", str(dataset_root / "adj"),
            "--config", str(dataset_root / "config.json"),
            "--out", str(out), "--epochs", "1", "--batch-size", "16"]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


def save_long_series(series, path, steps=400):
    """A ``steps``-snapshot series over ``series``' sensors, saved to ``path``; returned."""
    rng = np.random.default_rng(7)
    long = SpeedSeries(series.timestamps[0] + 300 * np.arange(steps, dtype=np.int64),
                       rng.uniform(20.0, 70.0, size=(steps, len(series.ids))), series.ids)
    save_speed_csv(long, path)
    return long


def save_with_range_missing(series, path, which):
    """``series`` saved to ``path`` with every target of its ``which`` split stored as 0."""
    split = split_dataset(make_windows(series, TINY.T, TINY.H))[which]
    values = series.values.copy()
    values[split[0].start_index + TINY.T:split[-1].start_index + TINY.T + TINY.H] = 0.0
    save_speed_csv(SpeedSeries(series.timestamps, values, series.ids), path)


def strip_wall_time(log_text):
    rows = [line.split(",") for line in log_text.strip().splitlines()]
    return [row[:-1] for row in rows]


class TestBuildAdj:
    def make_inputs(self, tmp_path):
        dists = {("a", "b"): 1.0, ("a", "c"): 2.0, ("b", "c"): 3.0}
        lines = ["from,to,distance"]
        for (u, v), d in dists.items():
            lines += [f"{u},{v},{d}", f"{v},{u},{d}"]
        (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "ids.txt").write_text("a\nb\nc\n")
        return dists

    def test_matches_entrywise_oracle(self, tmp_path):
        dists = self.make_inputs(tmp_path)
        code = main(["build-adj", "--distances", str(tmp_path / "d.csv"),
                     "--ids", str(tmp_path / "ids.txt"),
                     "--out", str(tmp_path / "adj"), "--quantile", "0"])
        assert code == 0
        graph = load_adjacency(tmp_path / "adj")
        sigma = np.std([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        dense = graph.adjacency.to_dense()
        idx = {"a": 0, "b": 1, "c": 2}
        for (u, v), d in dists.items():
            w = np.exp(-d * d / sigma ** 2)
            assert dense[idx[u], idx[v]] == pytest.approx(w, rel=1e-12)
            assert dense[idx[v], idx[u]] == pytest.approx(w, rel=1e-12)
        assert np.all(np.diag(dense) == 0)

    def test_quantile_zero_keeps_complete_graph(self, tmp_path):
        self.make_inputs(tmp_path)
        main(["build-adj", "--distances", str(tmp_path / "d.csv"),
              "--ids", str(tmp_path / "ids.txt"),
              "--out", str(tmp_path / "adj"), "--quantile", "0"])
        assert load_adjacency(tmp_path / "adj").adjacency.nnz == 6

    @pytest.mark.parametrize("distance", ["-1.0", "nan"])
    def test_bad_distance_exits_2_naming_csv(self, tmp_path, capsys, distance):
        self.make_inputs(tmp_path)
        path = tmp_path / "d.csv"
        path.write_text(path.read_text() + f"c,a,{distance}\n")
        assert main(["build-adj", "--distances", str(path), "--ids", str(tmp_path / "ids.txt"),
                     "--out", str(tmp_path / "adj")]) == 2
        assert f"{path} line 8" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        pytest.param("quantile", "1.5", id="1.5"),
        pytest.param("quantile", "nan", id="nan"),
        pytest.param("epsilon", "nan", id="epsilon-nan"),   # nan or negative: no edge kept
        pytest.param("epsilon", "-1", id="epsilon--1"),
    ])
    def test_quantile_outside_unit_interval_exits_2(self, tmp_path, capsys, flag, value):
        self.make_inputs(tmp_path)
        assert main(["build-adj", "--distances", str(tmp_path / "d.csv"),
                     "--ids", str(tmp_path / "ids.txt"),
                     "--out", str(tmp_path / "adj"), f"--{flag}", value]) == 2
        assert f"{flag} {float(value)!r}" in capsys.readouterr().err
        assert not (tmp_path / "adj.csv").exists()

    def test_unclosed_quote_in_distances_exits_2_naming_csv(self, tmp_path, capsys):
        self.make_inputs(tmp_path)
        path = tmp_path / "d.csv"
        path.write_text('from,to,"distance\n' + "a,b,1.0\n" * 30000)
        assert main(["build-adj", "--distances", str(path), "--ids", str(tmp_path / "ids.txt"),
                     "--out", str(tmp_path / "adj")]) == 2
        assert f"{path}: malformed CSV" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        (tmp_path / "ids.txt").write_text("a\n")
        code = main(["build-adj", "--distances", str(tmp_path / "nope.csv"),
                     "--ids", str(tmp_path / "ids.txt"),
                     "--out", str(tmp_path / "adj")])
        assert code == 2


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n": 4, "steps": 30, "seed": 11}\n')
        for name in ("a", "b"):
            assert main(["synth", "--spec", str(spec),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "a_speed.csv").read_bytes()
                == (tmp_path / "b_speed.csv").read_bytes())
        assert ((tmp_path / "a_adj.csv").read_bytes()
                == (tmp_path / "b_adj.csv").read_bytes())

    def test_round_trips_through_loader(self, tmp_path):
        main(["synth", "--out", str(tmp_path / "s")])
        graph = load_adjacency(tmp_path / "s_adj")
        series = load_speed_csv(tmp_path / "s_speed.csv", graph=graph)
        assert len(series) == SyntheticSpec().steps

    @pytest.mark.parametrize("text", [
        '{"n": 4, "steps": ',     # malformed JSON
        '{"n": "five"}',          # wrongly typed field
        '{"noise_std": true}',
        '[4, 30]',                # not an object
        '{"n": 1}',               # out-of-range fields
        '{"steps": 1}',
        '{"seed": -2}',
        '{"alpha": NaN}',
        '{"period": 0}',
        '{"noise_std": -1}',
        '{"noise_std": Infinity}',
        '{"dynamics": "chaos"}',
    ])
    def test_bad_spec_exits_2_naming_file(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 2
        assert str(spec) in capsys.readouterr().err
        assert not (tmp_path / "s_speed.csv").exists()


class TestTrain:
    def test_smoke_writes_artifacts(self, dataset, tmp_path):
        root, _graph, _series = dataset
        out = tmp_path / "run"
        assert main(train_args(root, out)) == 0
        for name in ("manifest.json", "config.json", "best.stdf", "log.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert str(root / "speed.csv") in manifest["inputs"]

    def test_same_seed_bit_identical(self, dataset, tmp_path):
        root, _graph, _series = dataset
        for name in ("r1", "r2"):
            assert main(train_args(root, tmp_path / name, seed=7)) == 0
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert (a / "best.stdf").read_bytes() == (b / "best.stdf").read_bytes()
        assert (strip_wall_time((a / "log.csv").read_text())
                == strip_wall_time((b / "log.csv").read_text()))

    def test_ablation_recorded_in_manifest(self, dataset, tmp_path):
        root, _graph, _series = dataset
        out = tmp_path / "abl"
        assert main(train_args(root, out, ablation="no_iteration")) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["ablation"] == "no_iteration"
        saved = ModelConfig.from_json((out / "config.json").read_text())
        assert saved.effective_m == saved.T

    def test_manifest_hashes_inputs(self, dataset, tmp_path):
        import hashlib
        root, _graph, _series = dataset
        out = tmp_path / "run"
        main(train_args(root, out))
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((root / "speed.csv").read_bytes()).hexdigest()
        assert manifest["inputs"][str(root / "speed.csv")] == digest

    @pytest.mark.parametrize("record", ["0,x,0.5", "0,1", "0,99,0.5", "0,1,0.5\n0,1,0.5"])
    def test_bad_adjacency_exits_2_naming_csv(self, dataset, tmp_path, capsys, record):
        root, _graph, _series = dataset
        (tmp_path / "adj.json").write_text((root / "adj.json").read_text())
        (tmp_path / "adj.csv").write_text(f"row,col,weight\n{record}\n")
        args = train_args(root, tmp_path / "run")
        args[args.index("--adj") + 1] = str(tmp_path / "adj")
        assert main(args) == 2
        assert str(tmp_path / "adj") + ".csv" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", ['{"n": 4, "ids": 5}', '{"n": 4, "ids": ["a"]}'])
    def test_bad_sidecar_exits_2_naming_json(self, dataset, tmp_path, capsys, sidecar):
        root, _graph, _series = dataset
        (tmp_path / "adj.json").write_text(sidecar + "\n")
        (tmp_path / "adj.csv").write_text((root / "adj.csv").read_text())
        args = train_args(root, tmp_path / "run")
        args[args.index("--adj") + 1] = str(tmp_path / "adj")
        assert main(args) == 2
        assert str(tmp_path / "adj") + ".json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"K": "2"}',
        '{"K": 2.5}',
        '{"ln_eps": "x"}',
        '{"self_loops": "no"}',
        '[1]',
        '{"m": 1}',
        '{"temporal_direction": "sideways"}',
        '{"decoder_hidden": -1}',
        '{"decoder_hidden": 0}',
        '{"ln_eps": -1.0}',
        '{"ln_eps": 0}',
        '{"ln_eps": NaN}',
        '{"ln_eps": Infinity}',
        '{"temporal_direction": "transposed"}',   # removed block-graph variants
        '{"self_loops": false}',
        '{"self_loops": 1}',
        '{"d_in": 2}',   # retired constants: one reading in, one out, decoder width d
        '{"d_out": 2}',
        '{"decoder_hidden": 8}',
        '{"ln_eps": 1e-6}',
    ])
    def test_bad_config_exits_2_naming_file(self, dataset, tmp_path, capsys, text):
        root, _graph, _series = dataset
        config = tmp_path / "cfg.json"
        config.write_text(text)
        args = train_args(root, tmp_path / "run")
        args[args.index("--config") + 1] = str(config)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(config) in err
        data = json.loads(text)
        assert not isinstance(data, dict) or all(key in err for key in data)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("rows", [
        [(0, "1.0"), (300, "inf")],                  # non-finite reading
        [(0, "1.0"), (300, "2.0"), (900, "3.0")],    # off the fixed interval
        [(0, "1.0"), (10 ** 20, "2.0")],             # timestamp beyond int64
    ])
    def test_bad_speed_csv_exits_2_naming_file(self, dataset, tmp_path, capsys, rows):
        root, graph, _series = dataset
        lines = [",".join(("timestamp",) + graph.vertex_ids)]
        lines += [",".join([str(t)] + [v] * graph.n) for t, v in rows]
        (tmp_path / "speed.csv").write_text("\n".join(lines) + "\n")
        args = train_args(root, tmp_path / "run")
        args[args.index("--data") + 1] = str(tmp_path / "speed.csv")
        assert main(args) == 2
        assert str(tmp_path / "speed.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["d_in", "d_out"])
    def test_feature_width_other_than_one_exits_2_naming_config(
            self, dataset, tmp_path, capsys, field):
        # the speed CSV holds one feature per sensor
        root, _graph, _series = dataset
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({field: 2}))
        args = train_args(root, tmp_path / "run")
        args[args.index("--config") + 1] = str(config)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(config) in err and field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("reading", [0.0, 42.0, 47.9],
                             ids=["all_missing", "constant", "constant_with_rounded_mean"])
    def test_training_range_without_usable_readings_exits_2_naming_csv(
            self, dataset, tmp_path, capsys, reading):
        root, _graph, series = dataset
        flat = tmp_path / "flat.csv"
        save_speed_csv(SpeedSeries(series.timestamps, np.full_like(series.values, reading),
                                   series.ids), flat)
        args = train_args(root, tmp_path / "run")
        args[args.index("--data") + 1] = str(flat)
        assert main(args) == 2
        assert str(flat) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("variant", ["stored_zeros", "outage", "train_shorter_than_T"])
    def test_norm_stats_equal_the_stacked_training_windows(self, dataset, tmp_path, variant):
        root, _graph, series = dataset
        values = series.values.copy()
        if variant == "stored_zeros":
            values[np.random.default_rng(5).random(values.shape) < 0.1] = 0.0
        elif variant == "outage":
            values[10:19] = 0.0
        else:  # 9 windows of T + H = 8 steps, 5 of them training windows
            values = values[:16]
        data = tmp_path / "speed.csv"
        save_speed_csv(SpeedSeries(series.timestamps[:len(values)], values, series.ids), data)
        args = build_parser().parse_args(train_args(root, tmp_path / "run"))
        args.data = str(data)
        _g, _s, (train_w, _v, _t), stats = cli._load_dataset(args, TINY)
        assert variant != "train_shorter_than_T" or len(train_w) < TINY.T
        want = training.compute_norm_stats(np.stack([w.history for w in train_w]))
        assert abs(stats.mean - want.mean) <= 1e-12 * abs(want.mean)
        assert abs(stats.std - want.std) <= 1e-12 * want.std

    def test_validation_range_without_readings_exits_2_naming_csv(self, dataset, tmp_path,
                                                                   capsys):
        root, _graph, series = dataset
        data = tmp_path / "speed.csv"
        save_with_range_missing(series, data, 1)
        args = train_args(root, tmp_path / "run")
        args[args.index("--data") + 1] = str(data)
        assert main(args) == 2
        assert f"{data}: validation range: empty mask" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,preset", [
        ("seed", "-1", False), ("seed", "-1", True), ("lr", "nan", False), ("lr", "inf", False),
        ("lr", "0", False), ("l2-lambda", "nan", False), ("l2-lambda", "-1e-4", False),
        ("patience", "-3", False)])
    def test_out_of_range_training_flag_exits_2(self, dataset, tmp_path, monkeypatch, capsys,
                                                flag, value, preset):
        root, _graph, _series = dataset
        args = train_args(root, tmp_path / "run")
        if preset:
            monkeypatch.setenv("STDIFF_" + flag.upper().replace("-", "_"), value)
        else:
            args.append(f"--{flag}={value}")
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_too_short_series_exits_2(self, dataset, tmp_path):
        root, graph, series = dataset
        short = type(series)(series.timestamps[:9], series.values[:9], series.ids)
        save_speed_csv(short, tmp_path / "short.csv")
        code = main(["train", "--data", str(tmp_path / "short.csv"),
                     "--adj", str(root / "adj"),
                     "--config", str(root / "config.json"),
                     "--out", str(tmp_path / "run"), "--epochs", "1"])
        assert code == 2


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    root, graph, series = dataset
    out = tmp_path_factory.mktemp("trained")
    assert main(train_args(root, out)) == 0
    return root, out, series


class TestEval:
    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    def test_report_has_model_and_baseline_rows(self, trained, tmp_path):
        root, run, _series = trained
        out = tmp_path / "report.csv"
        code = main(["eval", "--checkpoint", str(run / "best.stdf"),
                     "--data", str(root / "speed.csv"),
                     "--adj", str(root / "adj"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,horizon_min,mae,rmse,mape_pct,n_samples"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"istd-gcn", "ha"}
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            assert float(parts[2]) >= 0 and float(parts[3]) >= float(parts[2]) - 1e-9

    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    @pytest.mark.parametrize("steps", [400, 3600], ids=["one_slot", "weekly"])
    def test_rows_equal_whole_array_reports(self, trained, tmp_path, steps):
        # every row streams in 64-window chunks; whole arrays must give the same bits
        root, run, series = trained
        save_long_series(series, tmp_path / "long.csv", steps)
        argv = ["eval", "--checkpoint", str(run / "best.stdf"),
                "--data", str(tmp_path / "long.csv"), "--adj", str(root / "adj"),
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        args = build_parser().parse_args(argv)
        cfg, graph, model = cli._restore_model(args)
        _g, long, (train_w, _v, test_w), stats = cli._load_dataset(args, cfg, graph)
        assert len(test_w) > 64
        targets = np.stack([w.target for w in test_w])
        pred = np.concatenate([p for _, p in training.predict_windows(model, test_w, stats, 64)])
        n_train = train_w[-1].start_index + cfg.T
        ha = historical_average_baseline(
            SpeedSeries(long.timestamps[:n_train], long.values[:n_train], long.ids), test_w)
        want = [[label, str(row.horizon_min), repr(row.mae), repr(row.rmse), repr(row.mape),
                 str(row.n_samples)]
                for label, rep in (("istd-gcn", metrics_by_horizon(pred, targets)),
                                   ("ha", metrics_by_horizon(ha, targets)))
                for row in rep.rows()]
        lines = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert [line.split(",") for line in lines] == want

    def test_too_short_series_exits_2(self, trained, tmp_path):
        root, run, series = trained
        short = type(series)(series.timestamps[:9], series.values[:9], series.ids)
        save_speed_csv(short, tmp_path / "short.csv")
        code = main(["eval", "--checkpoint", str(run / "best.stdf"),
                     "--data", str(tmp_path / "short.csv"),
                     "--adj", str(root / "adj"), "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.parametrize("reading", [0.0, 42.0], ids=["all_missing", "constant"])
    def test_training_range_without_usable_readings_exits_2_naming_csv(
            self, trained, tmp_path, capsys, reading):
        root, run, series = trained
        flat = tmp_path / "flat.csv"
        save_speed_csv(SpeedSeries(series.timestamps, np.full_like(series.values, reading),
                                   series.ids), flat)
        out = tmp_path / "out" / "r.csv"
        code = main(["eval", "--checkpoint", str(run / "best.stdf"), "--data", str(flat),
                     "--adj", str(root / "adj"), "--out", str(out)])
        assert code == 2
        assert str(flat) in capsys.readouterr().err
        assert not out.parent.exists()

    def test_test_range_without_readings_exits_2_naming_csv(self, trained, tmp_path, capsys):
        root, run, series = trained
        data = tmp_path / "speed.csv"
        save_with_range_missing(series, data, 2)
        code = main(["eval", "--checkpoint", str(run / "best.stdf"), "--data", str(data),
                     "--adj", str(root / "adj"), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"{data}: test range: empty mask" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    def test_fuzzed_speed_csv_exits_0_or_2(self, trained, tmp_path, capsys):
        root, run, _series = trained
        data = (root / "speed.csv").read_bytes()
        rng = np.random.default_rng(1515)
        codes = []
        for i in range(8):
            path = tmp_path / f"m{i}.csv"
            path.write_bytes(mutate_bytes(data, rng))
            codes.append(main(["eval", "--checkpoint", str(run / "best.stdf"),
                               "--data", str(path), "--adj", str(root / "adj"),
                               "--out", str(tmp_path / f"r{i}.csv")]))
            assert codes[-1] == 0 or str(path) in capsys.readouterr().err
        assert set(codes) == {0, 2}

    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    def test_config_json_with_retired_keys_reports_as_without_them(self, dataset, tmp_path):
        root, graph, _series = dataset
        run = tmp_path / "run"
        run.mkdir()
        (run / "config.json").write_text(RETIRED_KEYS_CONFIG_JSON)
        save_params(IstdGcnModel(ModelConfig(), graph, seed=0).params(), run / "best.stdf")
        stripped = {key: value for key, value in json.loads(RETIRED_KEYS_CONFIG_JSON).items()
                    if key not in RETIRED_KEYS}
        (tmp_path / "stripped.json").write_text(json.dumps(stripped))
        reports = []
        for config in ([], ["--config", str(tmp_path / "stripped.json")]):
            out = tmp_path / f"r{len(reports)}.csv"
            assert main(["eval", "--checkpoint", str(run / "best.stdf"),
                         "--data", str(root / "speed.csv"), "--adj", str(root / "adj"),
                         *config, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_checkpoint_exits_2(self, trained, tmp_path):
        root, _run, _series = trained
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.stdf"),
                     "--data", str(root / "speed.csv"),
                     "--adj", str(root / "adj"),
                     "--config", str(root / "config.json"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    def test_stale_dropped_term_in_ablated_checkpoint_exits_2(self, dataset, tmp_path, capsys):
        # a no_hstg model has no coupled thetas, so a checkpoint holding one
        # (as ablated checkpoints once did) is refused
        root, _graph, _series = dataset
        run = tmp_path / "run"
        assert main(train_args(root, run, ablation="no_hstg")) == 0
        argv = ["eval", "--checkpoint", str(run / "best.stdf"), "--data", str(root / "speed.csv"),
                "--adj", str(root / "adj"), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        params = [ParamArray(name, value)
                  for name, value in load_params(run / "best.stdf").items()]
        assert not any(".theta_h" in p.name for p in params)
        stale = tmp_path / "stale.stdf"
        save_params(params + [ParamArray("ch0.theta_h1", np.ones((TINY.d, TINY.d)))], stale)
        argv[argv.index("--checkpoint") + 1] = str(stale)
        argv += ["--config", str(run / "config.json")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(stale) in err and "'ch0.theta_h1'" in err

    def test_unclosed_quote_in_adjacency_exits_2_naming_csv(self, trained, tmp_path, capsys):
        root, run, _series = trained
        (tmp_path / "adj.json").write_text((root / "adj.json").read_text())
        path = tmp_path / "adj.csv"
        path.write_text('row,col,"weight\n' + "0,1,0.5\n" * 30000)
        code = main(["eval", "--checkpoint", str(run / "best.stdf"),
                     "--data", str(root / "speed.csv"), "--adj", str(tmp_path / "adj"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"{path}: malformed CSV" in capsys.readouterr().err


class TestRestoredRunManifests:
    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    @pytest.mark.parametrize("command,explicit_config", [("eval", False), ("predict", True)])
    def test_inputs_match_train_plus_checkpoint(self, trained, tmp_path, command,
                                                explicit_config):
        # the config actually read: --config, or the config.json beside the checkpoint
        root, run, _series = trained
        config = root / "config.json" if explicit_config else run / "config.json"
        out = tmp_path / f"{command}.csv"
        argv = [command, "--checkpoint", str(run / "best.stdf"),
                "--data", str(root / "speed.csv"), "--adj", str(root / "adj"),
                "--out", str(out)]
        assert main(argv + (["--config", str(config)] if explicit_config else [])) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        train_inputs = json.loads((run / "manifest.json").read_text())["inputs"]
        assert set(train_inputs) == {str(root / name) for name in
                                     ("speed.csv", "adj.csv", "adj.json", "config.json")}
        assert set(manifest["inputs"]) == {str(root / "speed.csv"), str(root / "adj.csv"),
                                           str(root / "adj.json"), str(config),
                                           str(run / "best.stdf")}

    def test_duplicate_parameter_name_exits_2_naming_checkpoint(self, trained, tmp_path,
                                                                capsys):
        root, run, _series = trained
        data = (run / "best.stdf").read_bytes()
        # rename dec_b2 onto dec_b1: the same length, so the file stays well formed
        assert data.count(b"dec_b2") == 1
        bad = tmp_path / "dup.stdf"
        bad.write_bytes(data.replace(b"dec_b2", b"dec_b1"))
        code = main(["eval", "--checkpoint", str(bad), "--data", str(root / "speed.csv"),
                     "--adj", str(root / "adj"), "--config", str(run / "config.json"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dup.stdf" in err and "'dec_b1'" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
class TestRestoredRunBadInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_exits_2_naming_file_and_parameter(
            self, trained, tmp_path, capsys, command, bad):
        # relu maps NaN to 0, so such a checkpoint used to predict the decoder bias
        root, run, _series = trained
        params = {name: ParamArray(name, value)
                  for name, value in load_params(run / "best.stdf").items()}
        params["ch0.theta_nh1"].value[0, 1] = bad
        ckpt = tmp_path / "bad.stdf"
        save_params(list(params.values()), ckpt)
        out = tmp_path / "out" / f"{command}.csv"
        code = main([command, "--checkpoint", str(ckpt), "--data", str(root / "speed.csv"),
                     "--adj", str(root / "adj"), "--config", str(run / "config.json"),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "'ch0.theta_nh1'" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("field", ["d_in", "d_out"])
    def test_feature_width_other_than_one_exits_2_naming_config(
            self, trained, tmp_path, capsys, command, field):
        root, run, _series = trained
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**json.loads(TINY.to_json()), field: 2}))
        out = tmp_path / "out" / f"{command}.csv"
        code = main([command, "--checkpoint", str(run / "best.stdf"),
                     "--data", str(root / "speed.csv"), "--adj", str(root / "adj"),
                     "--config", str(config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err and field in err
        assert not out.parent.exists()


class TestPredict:
    def test_row_count_matches_windows(self, trained, tmp_path):
        root, run, series = trained
        out = tmp_path / "pred.csv"
        code = main(["predict", "--checkpoint", str(run / "best.stdf"),
                     "--data", str(root / "speed.csv"),
                     "--adj", str(root / "adj"), "--out", str(out)])
        assert code == 0
        windows = make_windows(series, TINY.T, TINY.H)
        _tr, _va, test_w = split_dataset(windows)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "timestamp,vertex_id,horizon_min,pred,actual"
        assert len(lines) - 1 == len(test_w) * len(series.ids) * TINY.H

    def test_actuals_round_trip(self, trained, tmp_path):
        root, run, series = trained
        out = tmp_path / "pred.csv"
        main(["predict", "--checkpoint", str(run / "best.stdf"),
              "--data", str(root / "speed.csv"),
              "--adj", str(root / "adj"), "--out", str(out)])
        first = out.read_text().strip().splitlines()[1].split(",")
        ts, vid, horizon = int(first[0]), first[1], int(first[2])
        t_index = int(np.where(series.timestamps == ts)[0][0])
        v_index = series.ids.index(vid)
        assert horizon == 5
        assert float(first[4]) == series.values[t_index, v_index]

    def test_failure_leaves_no_output(self, trained, tmp_path, monkeypatch):
        # the second batch's first window is not finite: nothing of the
        # first batch may be left behind, not even a temporary file
        root, run, series = trained
        save_long_series(series, tmp_path / "long.csv")
        predict, calls = training.predict_batch, []

        def nan_in_second_batch(model, history, stats):
            pred = predict(model, history, stats)
            calls.append(len(history))
            if len(calls) == 2:
                pred[0] = np.nan
            return pred

        monkeypatch.setattr(training, "predict_batch", nan_in_second_batch)
        out = tmp_path / "out" / "pred.csv"
        assert main(["predict", "--checkpoint", str(run / "best.stdf"),
                     "--data", str(tmp_path / "long.csv"), "--adj", str(root / "adj"),
                     "--out", str(out)]) == 1
        assert len(calls) == 2
        assert sorted(p.name for p in out.parent.iterdir()) == ["manifest.json"]


@pytest.mark.filterwarnings("ignore:training stream shorter than one week")
@pytest.mark.parametrize("command", ["eval", "predict"])
class TestForwardOnlyCommands:
    def invoke(self, trained, tmp_path, command):
        root, run, _series = trained
        assert main([command, "--checkpoint", str(run / "best.stdf"),
                     "--data", str(root / "speed.csv"), "--adj", str(root / "adj"),
                     "--out", str(tmp_path / f"{command}.csv")]) == 0

    def test_loads_adjacency_once(self, trained, tmp_path, monkeypatch, command):
        calls = []
        load = cli.load_adjacency

        def counting(prefix):
            calls.append(prefix)
            return load(prefix)

        monkeypatch.setattr(cli, "load_adjacency", counting)
        self.invoke(trained, tmp_path, command)
        assert len(calls) == 1

    def test_keeps_no_records(self, trained, tmp_path, tapes_seen, command):
        self.invoke(trained, tmp_path, command)
        assert tapes_seen and all(len(t) == 0 for t in tapes_seen.values())

    def test_predicts_64_windows_per_batch(self, trained, tmp_path, batch_sizes, command):
        root, run, series = trained
        long = save_long_series(series, tmp_path / "long.csv")
        n_test = len(split_dataset(make_windows(long, TINY.T, TINY.H))[2])
        assert main([command, "--checkpoint", str(run / "best.stdf"),
                     "--data", str(tmp_path / "long.csv"), "--adj", str(root / "adj"),
                     "--out", str(tmp_path / f"{command}.csv")]) == 0
        assert n_test % 64 and batch_sizes == [64] * (n_test // 64) + [n_test % 64]

    def test_non_finite_prediction_exits_1_naming_window(self, trained, tmp_path, monkeypatch,
                                                         capsys, command):
        # the loop's own message, so op-level debug checks stay off
        monkeypatch.setattr(ad, "_DEBUG", False)
        restore = cli.restore_params

        def restore_then_poison(params, path):
            restore(params, path)
            next(p for p in params if p.name == "ch0.theta_nh1").value[0, 1] = np.nan

        monkeypatch.setattr(cli, "restore_params", restore_then_poison)
        root, run, _series = trained
        assert main([command, "--checkpoint", str(run / "best.stdf"),
                     "--data", str(root / "speed.csv"), "--adj", str(root / "adj"),
                     "--out", str(tmp_path / f"{command}.csv")]) == 1
        assert "non-finite prediction for the window starting at" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ten_minute_run(tmp_path_factory):
    """A model trained on a 600 s series with all three default horizons (H=12)."""
    root = tmp_path_factory.mktemp("ten_minute")
    graph, series = generate_synthetic(SyntheticSpec(n=3, steps=60, seed=5))
    series = SpeedSeries(series.timestamps * 2, series.values, series.ids)
    save_adjacency(graph, root / "adj")
    save_speed_csv(series, root / "speed.csv")
    cfg = ModelConfig(K=1, m=2, s=1, d=2, T=2, H=12)
    (root / "config.json").write_text(cfg.to_json() + "\n")
    assert main(train_args(root, root / "run")) == 0
    return root, ["--checkpoint", str(root / "run" / "best.stdf"),
                  "--data", str(root / "speed.csv"), "--adj", str(root / "adj")]


@pytest.mark.parametrize("command, flag, kind", [
    ("build-adj", "--distances", "utf16"),
    ("build-adj", "--ids", "utf16"),
    ("train", "--data", "utf16"),
    ("train", "--adj", "utf16"),
    ("build-adj", "--distances", "directory"),
])
def test_unreadable_input_exits_2_naming_file(dataset, tmp_path, capsys, command, flag, kind):
    root, _graph, _series = dataset
    if command == "build-adj":
        TestBuildAdj().make_inputs(tmp_path)
        args = ["build-adj", "--distances", str(tmp_path / "d.csv"),
                "--ids", str(tmp_path / "ids.txt"), "--out", str(tmp_path / "adj")]
    else:
        args = train_args(root, tmp_path / "run")
    if flag == "--adj":  # a good sidecar beside the unreadable edge list
        (tmp_path / "bad.json").write_text((root / "adj.json").read_text())
        path, value = tmp_path / "bad.csv", str(tmp_path / "bad")
    else:
        path = value = tmp_path / "bad"
    if kind == "directory":
        path.mkdir()
    else:  # a byte-order mark and UTF-16 text: not UTF-8
        path.write_bytes(b"\xff\xfe" + "from,to,distance\n".encode("utf-16-le"))
    args[args.index(flag) + 1] = str(value)
    assert main(args) == 2
    assert str(path) in capsys.readouterr().err


class TestTenMinuteInterval:
    @pytest.mark.filterwarnings("ignore:training stream shorter than one week")
    def test_eval_labels_horizons_from_interval(self, ten_minute_run, tmp_path, capsys):
        _root, args = ten_minute_run
        out = tmp_path / "report.csv"
        assert main(["eval", *args, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        # per model: three horizons and the aggregate, after one header
        assert len(lines) == 1 + 2 * (3 + 1)
        assert [line.split(",")[1] for line in lines[1:5]] == ["30", "60", "120", "120"]
        printed = capsys.readouterr().out
        assert " 30 min" in printed and " 60 min" in printed and "120 min" in printed
        assert "15 min" not in printed

    def test_predict_labels_first_step_ten_minutes(self, ten_minute_run, tmp_path):
        _root, args = ten_minute_run
        out = tmp_path / "pred.csv"
        assert main(["predict", *args, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert {int(r[2]) for r in rows} == {10 * h for h in range(1, 13)}
        assert int(rows[0][2]) == 10


class TestEnvironmentPresets:
    def test_malformed_preset_is_a_usage_error_of_its_command(self, dataset, tmp_path,
                                                              monkeypatch, capsys):
        root, _graph, _series = dataset
        monkeypatch.setenv("STDIFF_EPOCHS", "abc")
        args = train_args(root, tmp_path / "run")
        del args[args.index("--epochs"):args.index("--epochs") + 2]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "argument --epochs: invalid int value: 'abc'" in capsys.readouterr().err

    def test_malformed_preset_leaves_other_commands_working(self, monkeypatch):
        monkeypatch.setenv("STDIFF_EPOCHS", "abc")
        assert main(["gradcheck"]) == 0

    def test_preset_is_converted_by_the_flag_type(self, monkeypatch):
        monkeypatch.setenv("STDIFF_SEED", "3")
        monkeypatch.setenv("STDIFF_QUANTILE", "0.25")
        args = build_parser().parse_args(["gradcheck"])
        assert args.seed == 3 and type(args.seed) is int
        adj = build_parser().parse_args(["build-adj", "--distances", "d", "--ids", "i",
                                         "--out", "o"])
        assert adj.quantile == 0.25 and adj.epsilon is None


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_fails_at_absurd_tolerance(self, capsys):
        assert main(["gradcheck", "--tol", "1e-15"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tolerance_exits_2(self, capsys, tol):
        assert main(["gradcheck", "--tol", tol]) == 2
        out = capsys.readouterr()
        assert f"tolerance {float(tol)!r}" in out.err and out.out == ""

    @pytest.mark.parametrize("field", ["d_in", "d_out"])
    def test_feature_width_other_than_one_exits_2_naming_config(self, tmp_path, capsys, field):
        # its synthetic series has one feature per sensor, like a speed CSV
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**json.loads(TINY.to_json()), field: 2}))
        assert main(["gradcheck", "--config", str(config)]) == 2
        assert str(config) in capsys.readouterr().err
