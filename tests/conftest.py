import ctypes

import numpy as np
import pytest

import stdiff.training as training
from stdiff.autodiff import Tape
from stdiff.graph import SensorGraph
from stdiff.sparse import SparseMatrix


# config.json as ModelConfig().to_json() wrote it while the block graph had
# variants: 13 keys, six of them retired since
RETIRED_KEYS_CONFIG_JSON = """{
  "H": 12,
  "K": 5,
  "T": 12,
  "ablation": "full",
  "d": 256,
  "d_in": 1,
  "d_out": 1,
  "decoder_hidden": null,
  "ln_eps": 1e-05,
  "m": 2,
  "s": 8,
  "self_loops": true,
  "temporal_direction": "as_written"
}"""


def has_mallopt() -> bool:
    """Whether the C library this interpreter runs on has glibc's ``mallopt``."""
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def random_sparse(rng, rows, cols, density=0.4, nonneg=False):
    dense = rng.random((rows, cols))
    mask = rng.random((rows, cols)) < density
    dense = np.where(mask, dense, 0.0)
    if not nonneg:
        dense *= np.where(rng.random((rows, cols)) < 0.5, 1.0, -1.0)
    return SparseMatrix(dense)


def random_sensor_graph(rng, n, density=0.5):
    """Nonnegative weighted graph without self-edges."""
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    return SensorGraph(n, tuple(f"v{i}" for i in range(n)), SparseMatrix(dense))


# bytes a mutation inserts: delimiter, comment and quote characters, a bare
# carriage return, NUL, and a byte that is never UTF-8
FUZZ_INSERTS = (b",", b"#", b'"', b"\r", b"\x00", b"\xff")


def mutate_bytes(data: bytes, rng) -> bytes:
    """``data`` with one seeded mutation: a flipped byte, a deleted or duplicated
    run, a truncation, or one of ``FUZZ_INSERTS`` inserted."""
    i = int(rng.integers(len(data)))
    kind = int(rng.integers(5))
    if kind == 0:
        return data[:i] + bytes([data[i] ^ int(rng.integers(1, 256))]) + data[i + 1:]
    if kind == 1:
        return data[:i] + data[i + int(rng.integers(1, 8)):]
    if kind == 2:
        j = min(len(data), i + int(rng.integers(1, 40)))
        return data[:j] + data[i:j] + data[j:]
    if kind == 3:
        return data[:i]
    return data[:i] + FUZZ_INSERTS[int(rng.integers(len(FUZZ_INSERTS)))] + data[i:]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TapesSeen(dict):
    """id -> every tape handed a record, in order of its first record."""

    def __init__(self):
        super().__init__()
        self.at_backward = {}

    def kept(self) -> list[int]:
        """The records each tape kept: its length when ``backward`` started, else now."""
        return [self.at_backward.get(key, len(tape)) for key, tape in self.items()]


@pytest.fixture
def tapes_seen(monkeypatch):
    """Every tape handed a record during the test (``TapesSeen``).

    The tapes stay alive.  ``backward`` empties a tape, so each one's length
    is also taken when its ``backward`` starts.
    """
    seen = TapesSeen()
    record, backward = Tape.record, Tape.backward

    def logging_record(tape, backward_fn):
        seen.setdefault(id(tape), tape)
        record(tape, backward_fn)

    def logging_backward(tape, loss):
        seen.at_backward[id(tape)] = len(tape)
        backward(tape, loss)

    monkeypatch.setattr(Tape, "record", logging_record)
    monkeypatch.setattr(Tape, "backward", logging_backward)
    return seen


@pytest.fixture
def batch_sizes(monkeypatch):
    """The number of windows of each ``predict_batch`` call during the test, in order."""
    sizes = []
    predict = training.predict_batch

    def counting(model, history, stats):
        sizes.append(len(history))
        return predict(model, history, stats)

    monkeypatch.setattr(training, "predict_batch", counting)
    return sizes
