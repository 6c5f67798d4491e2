import numpy as np
import pytest

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


@pytest.fixture
def tapes_seen(monkeypatch):
    """Every tape handed a record during the test, in order of its first record.

    The tapes stay alive, so ``len(tape)`` afterwards is what each one kept.
    """
    seen = {}
    record = Tape.record

    def logging_record(tape, backward_fn):
        seen.setdefault(id(tape), tape)
        record(tape, backward_fn)

    monkeypatch.setattr(Tape, "record", logging_record)
    return seen
