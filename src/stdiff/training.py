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
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamArray, Tape, Tensor
from .checkpoint import save_params
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
        if self.learning_rate <= 0:
            raise ArgumentError("learning_rate must be positive")
        if self.l2_lambda < 0:
            raise ArgumentError("l2_lambda must be nonnegative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ArgumentError("epochs and batch_size must be >= 1")


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


def compute_norm_stats(values: np.ndarray) -> NormStats:
    """Mean/std over observed entries; zeros are treated as missing."""
    values = np.asarray(values, dtype=np.float64)
    obs = values[values != 0.0]
    if obs.size == 0:
        raise DomainError("no observed values to normalize")
    std = float(obs.std())
    if std == 0.0:
        raise DomainError("constant series: zero standard deviation")
    return NormStats(mean=float(obs.mean()), std=std)


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
    """Bias-corrected adaptive-moment update, in place and deterministic."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient for parameter {p.name!r}")
        m = state.m.setdefault(p.name, np.zeros_like(p.value))
        v = state.v.setdefault(p.name, np.zeros_like(p.value))
        m *= b1
        m += (1 - b1) * p.grad
        v *= b2
        v += (1 - b2) * p.grad ** 2
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.value -= config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def split_dataset(samples: list, ratios=(0.6, 0.2, 0.2)) -> tuple[list, list, list]:
    """Contiguous chronological split; no shuffling across boundaries."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ArgumentError("split ratios must sum to 1")
    n = len(samples)
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    if n_train == 0 or n_val == 0 or n - n_train - n_val == 0:
        raise ArgumentError(f"too few samples ({n}) for a nonempty split")
    return (
        list(samples[:n_train]),
        list(samples[n_train:n_train + n_val]),
        list(samples[n_train + n_val:]),
    )


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


def _batch_arrays(windows: list) -> tuple[np.ndarray, np.ndarray]:
    hist = np.stack([w.history for w in windows])
    targ = np.stack([w.target for w in windows])
    return hist, targ


def predict_batch(model: IstdGcnModel, history: np.ndarray, stats: NormStats) -> np.ndarray:
    """Denormalized model predictions for a (B, T, n, d_in) history block.

    The pass runs on a non-recording tape: nothing is kept for a backward.
    """
    pred = forward(Tape(record=False), model, zscore(history, stats))
    return inverse_zscore(pred.value, stats)


def _validation_metrics(model, windows, stats, batch_size):
    from .metrics import mae, mape, rmse  # local import avoids a cycle

    preds, targs = [], []
    for lo in range(0, len(windows), batch_size):
        chunk = windows[lo:lo + batch_size]
        hist, targ = _batch_arrays(chunk)
        preds.append(predict_batch(model, hist, stats))
        targs.append(targ)
    pred = np.concatenate(preds)
    targ = np.concatenate(targs)
    mask = targ != 0.0
    return mae(pred, targ, mask), rmse(pred, targ, mask), mape(pred, targ, mask)


def train(
    model: IstdGcnModel,
    train_windows: list,
    val_windows: list,
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
            batch = [train_windows[i] for i in order[lo:lo + config.batch_size]]
            hist, targ = _batch_arrays(batch)
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
        val_mae, val_rmse, val_mape = _validation_metrics(
            model, val_windows, stats, config.batch_size)
        logs.append(EpochLog(epoch, epoch_loss / n_batches, val_mae, val_rmse,
                             val_mape, time.monotonic() - start))
        if val_mae < best_val:
            best_val = val_mae
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
