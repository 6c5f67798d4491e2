import numpy as np
import pytest

import stdiff.training as training
from stdiff.autodiff import Tape
from stdiff.graph import SensorGraph
from stdiff.sparse import SparseMatrix


def random_sparse(rng, rows, cols, density=0.4, nonneg=False):
    dense = rng.random((rows, cols))
    mask = rng.random((rows, cols)) < density
    dense = np.where(mask, dense, 0.0)
    if not nonneg:
        dense *= np.where(rng.random((rows, cols)) < 0.5, 1.0, -1.0)
    return SparseMatrix.from_dense(dense)


def random_sensor_graph(rng, n, density=0.5):
    """Nonnegative weighted graph without self-edges."""
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(dense, 0.0)
    return SensorGraph(n, tuple(f"v{i}" for i in range(n)), SparseMatrix.from_dense(dense))


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
