import math

import numpy as np
import pytest

from stdiff.errors import ArgumentError, DomainError, FormatError, IdentifierError
from stdiff.graph import (DistanceRecord, build_gaussian_adjacency, load_adjacency,
                          load_distance_csv, save_adjacency)


def symmetric_records(pairs):
    out = []
    for a, b, d in pairs:
        out.append(DistanceRecord(a, b, d))
        out.append(DistanceRecord(b, a, d))
    return out


class TestGaussianAdjacency:
    def test_zero_distance_gives_weight_one(self):
        g = build_gaussian_adjacency(
            [DistanceRecord("a", "b", 0.0), DistanceRecord("a", "c", 5.0)],
            ["a", "b", "c"], weight_quantile=0.0)
        assert g.adjacency.to_dense()[0, 1] == 1.0

    def test_distance_equal_sigma(self):
        # two records, distances {0, 2}: sigma = 1, so d=1 would give exp(-1);
        # check the d = sigma point directly on the d=2 record: exp(-4)
        recs = [DistanceRecord("a", "b", 0.0), DistanceRecord("a", "c", 2.0)]
        g = build_gaussian_adjacency(recs, ["a", "b", "c"], weight_quantile=0.0)
        assert g.adjacency.to_dense()[0, 2] == pytest.approx(math.exp(-4.0), abs=1e-12)
        # analytic anchor: at d exactly sigma the kernel is exp(-1)
        assert math.exp(-(1.0 ** 2) / 1.0 ** 2) == pytest.approx(0.367879, abs=1e-6)

    def test_three_sensor_entrywise_oracle(self):
        pairs = [("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 3.0)]
        recs = symmetric_records(pairs)
        g = build_gaussian_adjacency(recs, ["a", "b", "c"], weight_quantile=0.0)
        dists = np.array([d for _, _, d in pairs] * 2)
        sigma = dists.std()  # population std of the provided distances
        expected = np.zeros((3, 3))
        idx = {"a": 0, "b": 1, "c": 2}
        for f, t, d in pairs:
            w = math.exp(-d ** 2 / sigma ** 2)
            expected[idx[f], idx[t]] = w
            expected[idx[t], idx[f]] = w
        assert np.allclose(g.adjacency.to_dense(), expected, atol=1e-15)

    def test_symmetric_records_give_symmetric_matrix(self, rng):
        ids = [f"v{i}" for i in range(6)]
        pairs = [(ids[i], ids[j], float(rng.uniform(1, 10)))
                 for i in range(6) for j in range(i + 1, 6)]
        g = build_gaussian_adjacency(symmetric_records(pairs), ids, weight_quantile=0.2)
        dense = g.adjacency.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_weights_in_unit_interval(self, rng):
        ids = ["a", "b", "c", "d"]
        recs = symmetric_records([("a", "b", 1.0), ("c", "d", 7.0), ("a", "d", 3.0)])
        g = build_gaussian_adjacency(recs, ids, weight_quantile=0.0)
        _rows, _cols, weights = g.adjacency.nonzero()
        assert len(weights) == 6
        assert weights.min() > 0.0 and weights.max() <= 1.0

    def test_epsilon_mode_thresholds_on_distance(self):
        recs = [DistanceRecord("a", "b", 1.0), DistanceRecord("b", "a", 9.0)]
        g = build_gaussian_adjacency(recs, ["a", "b"], epsilon=2.0)
        dense = g.adjacency.to_dense()
        assert dense[0, 1] > 0 and dense[1, 0] == 0.0

    def test_unknown_id_rejected(self):
        with pytest.raises(IdentifierError):
            build_gaussian_adjacency([DistanceRecord("a", "zz", 1.0)], ["a", "b"])

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(DomainError):
            build_gaussian_adjacency(
                [DistanceRecord("a", "b", 2.0), DistanceRecord("b", "a", 2.0)],
                ["a", "b"])

    @pytest.mark.parametrize("keyword,value", [
        pytest.param("weight_quantile", 1.5, id="1.5"),
        pytest.param("weight_quantile", -0.1, id="-0.1"),
        pytest.param("weight_quantile", math.nan, id="nan"),
        pytest.param("epsilon", -1.0, id="epsilon--1.0"),   # nan or negative: no edge kept
        pytest.param("epsilon", math.nan, id="epsilon-nan"),
    ])
    def test_quantile_outside_unit_interval_rejected(self, keyword, value):
        recs = [DistanceRecord("a", "b", 1.0), DistanceRecord("a", "c", 2.0)]
        with pytest.raises(ArgumentError, match=f"{keyword.split('_')[-1]} {value!r}"):
            build_gaussian_adjacency(recs, ["a", "b", "c"], **{keyword: value})
        for edge in (0.0, 1.0):
            build_gaussian_adjacency(recs, ["a", "b", "c"], weight_quantile=edge)
        for kept in (0.0, math.inf):  # inf keeps every edge
            build_gaussian_adjacency(recs, ["a", "b", "c"], epsilon=kept)

    def test_empty_records_rejected(self):
        with pytest.raises(IdentifierError):
            build_gaussian_adjacency([], ["a"])


class TestAdjacencyIO:
    def test_round_trip(self, tmp_path, rng):
        ids = ["x", "y", "z"]
        recs = symmetric_records([("x", "y", 1.0), ("y", "z", 2.0)])
        g = build_gaussian_adjacency(recs, ids, weight_quantile=0.0)
        save_adjacency(g, tmp_path / "adj")
        g2 = load_adjacency(tmp_path / "adj")
        assert g2.vertex_ids == g.vertex_ids
        assert g2.adjacency == g.adjacency

    def test_save_adjacency_golden_text(self, tmp_path):
        # records out of row-major order, a self-edge and a repeated (s2, s3)
        # pair, whose two weights are summed into one edge
        recs = [DistanceRecord(a, b, d) for a, b, d in [
            ("s3", "s0", 6.0), ("s2", "s3", 4.0), ("s0", "s1", 1.0), ("s1", "s2", 2.5),
            ("s0", "s3", 6.0), ("s2", "s1", 2.5), ("s1", "s0", 1.0), ("s0", "s2", 3.0),
            ("s0", "s0", 0.0), ("s2", "s3", 5.0)]]
        g = build_gaussian_adjacency(recs, ["s0", "s1", "s2", "s3"], weight_quantile=0.0)
        save_adjacency(g, tmp_path / "adj")
        assert (tmp_path / "adj.csv").read_bytes() == (
            b"row,col,weight\r\n"
            b"0,0,1.0\r\n"
            b"0,1,0.7807308955495855\r\n"
            b"0,2,0.10777357587828773\r\n"
            b"0,3,0.00013491156218652388\r\n"
            b"1,0,0.7807308955495855\r\n"
            b"1,2,0.21287935057700197\r\n"
            b"2,1,0.21287935057700197\r\n"
            b"2,3,0.021109252530499105\r\n"
            b"3,0,0.00013491156218652388\r\n")
        assert (tmp_path / "adj.json").read_bytes() == (
            b'{"n": 4, "ids": ["s0", "s1", "s2", "s3"]}\n')

    def test_distance_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("from,to,distance\na,b,1.5\nb,a,1.5\n")
        recs = load_distance_csv(path)
        assert recs == [DistanceRecord("a", "b", 1.5), DistanceRecord("b", "a", 1.5)]

    @pytest.mark.parametrize("distance", ["-1.0", "nan", "inf", "far"])
    def test_bad_distance_names_csv_and_line(self, tmp_path, distance):
        path = tmp_path / "d.csv"
        path.write_text(f"from,to,distance\na,b,1.5\nb,a,{distance}\n")
        with pytest.raises(FormatError, match=f"{path} line 3"):
            load_distance_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("src,dst,w\na,b,1\n")
        with pytest.raises(FormatError):
            load_distance_csv(path)

    def test_unclosed_quote_in_distance_csv_names_file(self, tmp_path):
        # the quote swallows every later line into one field, past csv's size limit
        path = tmp_path / "d.csv"
        path.write_text('from,to,"distance\n' + "a,b,1.0\n" * 30000)
        with pytest.raises(FormatError, match=f"{path}: malformed CSV"):
            load_distance_csv(path)

    def test_unclosed_quote_in_adjacency_csv_names_file(self, tmp_path):
        (tmp_path / "adj.json").write_text('{"n": 2, "ids": ["a", "b"]}\n')
        (tmp_path / "adj.csv").write_text('row,col,"weight\n' + "0,1,0.5\n" * 30000)
        with pytest.raises(FormatError, match=r"adj\.csv: malformed CSV"):
            load_adjacency(tmp_path / "adj")

    @pytest.mark.parametrize("record", [
        "0,one,0.5",     # non-integer index
        "0,1",           # short row
        "0,3,0.5",       # column index out of range for n=3
        "-1,1,0.5",      # negative index
        "0,1,nan",       # non-finite weight
        "0,1,-0.5",      # negative weight
        "1,2,0.25",      # the edge of line 2 again
    ])
    def test_bad_adjacency_record_names_csv(self, tmp_path, record):
        (tmp_path / "adj.json").write_text('{"n": 3, "ids": ["a", "b", "c"]}\n')
        (tmp_path / "adj.csv").write_text(f"row,col,weight\n1,2,0.25\n{record}\n")
        with pytest.raises(FormatError, match=r"adj\.csv line 3"):
            load_adjacency(tmp_path / "adj")

    def test_repeated_edge_rejected_not_summed(self, tmp_path):
        # the reversed edge (1, 0) is another entry; a second (0, 1) used to load as 1.0
        (tmp_path / "adj.json").write_text('{"n": 2, "ids": ["a", "b"]}\n')
        (tmp_path / "adj.csv").write_text("row,col,weight\n0,1,0.5\n1,0,0.5\n0,1,0.5\n")
        with pytest.raises(FormatError, match=r"adj\.csv line 4: duplicate edge \(0, 1\)"):
            load_adjacency(tmp_path / "adj")

    @pytest.mark.parametrize("sidecar", [
        '{"n": 2, "ids": 5}',              # ids not a list
        '[1, 2]',                          # not an object
        '{"n": null, "ids": ["a", "b"]}',  # n not an integer
        '{"n": 3, "ids": ["a", "b"]}',     # ids not n long
        '{"n": 2, "ids": ["a", "a"]}',     # duplicate ids
    ])
    def test_bad_sidecar_names_json(self, tmp_path, sidecar):
        (tmp_path / "adj.json").write_text(sidecar + "\n")
        (tmp_path / "adj.csv").write_text("row,col,weight\n0,1,0.25\n")
        with pytest.raises(FormatError, match=r"adj\.json"):
            load_adjacency(tmp_path / "adj")
