import numpy as np
import pytest

from stdiff.autodiff import ParamArray
from stdiff.checkpoint import MAGIC, load_params, restore_params, save_params
from stdiff.errors import FormatError


def make_params(rng):
    return [
        ParamArray("scalarish", rng.standard_normal(1)),
        ParamArray("matrix", rng.standard_normal((3, 4))),
        ParamArray("tensor", rng.standard_normal((2, 3, 2))),
    ]


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        params = make_params(rng)
        # include values that expose any text-based lossiness
        params[1].value[0, 0] = 0.1 + 0.2
        params[1].value[0, 1] = np.nextafter(1.0, 2.0)
        path = tmp_path / "p.stdf"
        save_params(params, path)
        loaded = load_params(path)
        assert set(loaded) == {"scalarish", "matrix", "tensor"}
        for p in params:
            assert loaded[p.name].shape == p.value.shape
            assert np.array_equal(
                loaded[p.name].view(np.uint64), p.value.view(np.uint64))

    def test_restore_into_model_params(self, tmp_path, rng):
        params = make_params(rng)
        path = tmp_path / "p.stdf"
        save_params(params, path)
        fresh = [ParamArray(p.name, np.zeros(p.value.shape)) for p in params]
        restore_params(fresh, path)
        for a, b in zip(params, fresh):
            assert np.array_equal(a.value, b.value)

    def test_save_is_deterministic(self, tmp_path, rng):
        params = make_params(rng)
        save_params(params, tmp_path / "a.stdf")
        save_params(params, tmp_path / "b.stdf")
        assert (tmp_path / "a.stdf").read_bytes() == (tmp_path / "b.stdf").read_bytes()

    def test_empty_param_list(self, tmp_path):
        save_params([], tmp_path / "p.stdf")
        assert load_params(tmp_path / "p.stdf") == {}


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        (tmp_path / "p.stdf").write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_params(tmp_path / "p.stdf")

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "p.stdf"
        save_params(make_params(rng), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_params(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = tmp_path / "p.stdf"
        save_params(make_params(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_params(path)

    def test_duplicate_names_rejected_on_save(self, tmp_path, rng):
        params = [ParamArray("same", rng.random(2)), ParamArray("same", rng.random(2))]
        with pytest.raises(FormatError):
            save_params(params, tmp_path / "p.stdf")

    def test_duplicate_names_rejected_on_load(self, tmp_path):
        # a file written with distinct names, then one renamed onto the other
        path = tmp_path / "p.stdf"
        save_params([ParamArray("w", np.zeros(2)), ParamArray("v", np.ones(2))], path)
        data = path.read_bytes()
        assert data.count(b"v") == 1  # the name; no data byte reads as "v"
        path.write_bytes(data.replace(b"v", b"w"))
        with pytest.raises(FormatError, match=r"p\.stdf.*duplicate parameter 'w'"):
            load_params(path)
        with pytest.raises(FormatError, match="duplicate"):
            restore_params([ParamArray("w", np.zeros(2))], path)

    def test_restore_missing_parameter(self, tmp_path, rng):
        path = tmp_path / "p.stdf"
        save_params(make_params(rng)[:2], path)
        with pytest.raises(FormatError, match="missing"):
            restore_params(make_params(rng), path)

    def test_restore_shape_mismatch(self, tmp_path, rng):
        path = tmp_path / "p.stdf"
        save_params([ParamArray("w", rng.random((2, 2)))], path)
        with pytest.raises(FormatError, match="shape"):
            restore_params([ParamArray("w", np.zeros((3, 3)))], path)

    def test_restore_unknown_extra_parameter(self, tmp_path, rng):
        path = tmp_path / "p.stdf"
        params = make_params(rng)
        save_params(params, path)
        with pytest.raises(FormatError, match="unknown"):
            restore_params(params[:2], path)

    def test_magic_prefix_on_disk(self, tmp_path, rng):
        path = tmp_path / "p.stdf"
        save_params(make_params(rng), path)
        assert path.read_bytes()[:5] == MAGIC
