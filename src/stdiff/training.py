"""Loss, Adam-style optimizer, normalization, chronological splits and the
training loop.

The objective is mean absolute error over all predicted entries plus an L2
term.  As printed, the penalty is lam * ||theta||_2 (the norm, not its
square).

Splits are chronological (60/20/20 by default) and normalization statistics
come from the training portion only.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamArray, Tape, Tensor
from .checkpoint import save_params
from .data import Windows
from .errors import ArgumentError, DomainError, NumericError
from .model import IstdGcnModel, forward


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    l2_lambda: float = 1e-4
    epochs: int = 100
    batch_size: int = 32
    early_stop_patience: int = 20
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so these range checks reject it too
        if not 0 < self.learning_rate < math.inf:
            raise ArgumentError("learning_rate must be finite and positive")
        if not 0 <= self.l2_lambda < math.inf:
            raise ArgumentError("l2_lambda must be finite and nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ArgumentError("epochs and batch_size must be >= 1")
        if self.early_stop_patience < 0:
            raise ArgumentError("early_stop_patience must be >= 0")
        if self.seed < 0:
            raise ArgumentError("seed must be >= 0")


@dataclass(frozen=True)
class NormStats:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise DomainError("normalization std must be positive")


def zscore(x, stats: NormStats) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - stats.mean) / stats.std


def inverse_zscore(z, stats: NormStats) -> np.ndarray:
    return np.asarray(z, dtype=np.float64) * stats.std + stats.mean


def compute_norm_stats(values: np.ndarray, weights: np.ndarray | None = None) -> NormStats:
    """Mean/std over observed entries; zeros are treated as missing.

    ``weights``, one positive count per row of ``values`` (its first axis),
    counts each entry of a row that many times: the stats of a stack that
    repeats each row as often, without building it.
    """
    values = np.asarray(values, dtype=np.float64)
    observed = values != 0.0
    obs = values[observed]
    if obs.size == 0:
        raise DomainError("no observed values to normalize")
    if obs.min() == obs.max():  # a rounded mean of a constant can leave a tiny nonzero std
        raise DomainError("constant series: zero standard deviation")
    if weights is None:
        w, total = 1.0, obs.size
    else:  # obs lists each row's entries in turn
        w = np.repeat(np.asarray(weights, dtype=np.float64),
                      observed.reshape(len(values), -1).sum(axis=1))
        total = w.sum()
    mean = (w * obs).sum() / total
    std = float(np.sqrt((w * (obs - mean) ** 2).sum() / total))
    return NormStats(mean=float(mean), std=std)


def mae_l2_loss(
    tape: Tape,
    pred: Tensor,
    target: np.ndarray,
    params: list[ParamArray],
    lam: float,
) -> Tensor:
    """Mean absolute error plus lam * ||theta||_2 over all trainable entries."""
    loss = ad.mae_loss(tape, pred, target)
    if lam > 0.0 and params:
        loss = ad.add(tape, loss, ad.l2_penalty(tape, params, lam))
    return loss


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(params: list[ParamArray], state: AdamState, config: TrainConfig) -> None:
    """Bias-corrected adaptive-moment update, in place and deterministic.

    The operations are those of m_hat = m / (1 - b1^t), v_hat likewise and
    value -= lr * m_hat / (sqrt(v_hat) + eps), in that order, each written
    into a (2, ...) slice of one work array that all parameters share: a step
    makes no other temporary.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    work = np.empty(2 * max((p.value.size for p in params), default=0))
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient for parameter {p.name!r}")
        if p.name not in state.m:
            state.m[p.name], state.v[p.name] = np.zeros_like(p.value), np.zeros_like(p.value)
        m, v = state.m[p.name], state.v[p.name]
        num, den = work[:2 * p.value.size].reshape((2,) + p.value.shape)
        m *= b1
        m += np.multiply(1 - b1, p.grad, out=num)
        v *= b2
        v += np.multiply(1 - b2, np.square(p.grad, out=num), out=num)
        np.multiply(config.learning_rate, np.divide(m, 1 - b1 ** t, out=num), out=num)
        np.add(np.sqrt(np.divide(v, 1 - b2 ** t, out=den), out=den), eps, out=den)
        p.value -= np.divide(num, den, out=num)


def split_dataset(samples: Windows, ratios=(0.6, 0.2, 0.2)) -> tuple[Windows, Windows, Windows]:
    """Contiguous chronological split; no shuffling across boundaries.

    Each part is a slice of ``samples``: a ``Windows`` of a ``Windows``.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ArgumentError("split ratios must sum to 1")
    n = len(samples)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    if n_train == 0 or n_val == 0 or n - n_train - n_val == 0:
        raise ArgumentError(f"too few samples ({n}) for a nonempty split")
    return samples[:n_train], samples[n_train:n_train + n_val], samples[n_train + n_val:]


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    val_mae: float
    val_rmse: float
    val_mape: float
    wall_time: float


@dataclass
class TrainReport:
    logs: list
    best_epoch: int
    best_val_mae: float
    stopped_early: bool


def predict_batch(model: IstdGcnModel, history: np.ndarray, stats: NormStats) -> np.ndarray:
    """Denormalized model predictions for a (B, T, n, 1) history block.

    The pass runs on a non-recording tape: nothing is kept for a backward.
    """
    pred = forward(Tape(record=False), model, zscore(history, stats))
    return inverse_zscore(pred.value, stats)


def predict_windows(model: IstdGcnModel, windows: Windows, stats: NormStats, batch_size: int):
    """Yield each run of ``batch_size`` windows (a ``Windows`` slice) with its
    denormalized predictions.

    The one loop that batches windows through ``predict_batch``.  A window
    whose prediction is not finite raises ``NumericError`` naming its start.
    """
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo:lo + batch_size]
        pred = predict_batch(model, chunk.history(), stats)
        finite = np.isfinite(pred).reshape(len(chunk), -1).all(axis=1)
        if not finite.all():
            bad = int(chunk.starts[np.argmin(finite)])
            raise NumericError(f"non-finite prediction for the window starting at {bad}")
        yield chunk, pred


def train(
    model: IstdGcnModel,
    train_windows: Windows,
    val_windows: Windows,
    stats: NormStats,
    config: TrainConfig,
    *,
    log_path=None,
    checkpoint_path=None,
) -> TrainReport:
    """Minibatch training with validation-MAE early stopping.

    Keeps the parameters of the best validation epoch (restored into the
    model before returning, and saved to ``checkpoint_path`` if given).
    Batch order is shuffled per epoch from ``config.seed``, so runs are
    deterministic end to end.
    """
    from .metrics import evaluate  # local import avoids a cycle

    if not train_windows or not val_windows:
        raise ArgumentError("need nonempty train and validation sets")
    rng = np.random.default_rng(config.seed)
    params = model.params()
    state = AdamState()
    logs: list[EpochLog] = []
    best_val = np.inf
    best_epoch = -1
    best_values = None
    stopped_early = False
    start = time.monotonic()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_windows))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            hist, targ = train_windows.history(batch), train_windows.target(batch)
            tape = Tape()
            pred = forward(tape, model, zscore(hist, stats))
            loss = mae_l2_loss(tape, pred, zscore(targ, stats), params, config.l2_lambda)
            if not np.isfinite(loss.value):
                raise NumericError(
                    f"NaN loss at epoch {epoch}, batch {n_batches} "
                    f"(first window index {order[lo]})"
                )
            model.zero_grads()
            tape.backward(loss)
            optimizer_step(params, state, config)
            epoch_loss += float(loss.value)
            n_batches += 1
        val = evaluate(model, val_windows, stats, batch_size=config.batch_size).aggregate
        logs.append(EpochLog(epoch, epoch_loss / n_batches, val.mae, val.rmse,
                             val.mape, time.monotonic() - start))
        if val.mae < best_val:
            best_val = val.mae
            best_epoch = epoch
            best_values = [p.value.copy() for p in params]
        elif epoch - best_epoch >= config.early_stop_patience:
            stopped_early = True
            break
    if best_values is not None:
        for p, v in zip(params, best_values):
            p.value[...] = v
    if checkpoint_path is not None:
        save_params(params, checkpoint_path)
    if log_path is not None:
        write_log_csv(logs, log_path)
    return TrainReport(logs=logs, best_epoch=best_epoch, best_val_mae=best_val,
                       stopped_early=stopped_early)


def write_log_csv(logs: list, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_mae", "val_rmse", "val_mape",
                         "wall_time"])
        for row in logs:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_mae),
                             repr(row.val_rmse), repr(row.val_mape),
                             f"{row.wall_time:.3f}"])
