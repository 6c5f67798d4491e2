"""Tape-based reverse-mode differentiation for exactly the ops the model uses.

Not a general autodiff: each operation here has a hand-derived backward
pass.  A forward call hands one record to the tape.  A recording ``Tape()``,
as training and the analytic pass of ``grad_check`` use, keeps it;
``Tape.backward`` replays the records once, in exact reverse execution order
with fixed (row-major) accumulation, so a replay is deterministic.  It drops
each record once it has run, and with it the arrays that op saved and the
gradient of its output.
Forward-only passes (prediction, evaluation, validation, the finite
differences of ``grad_check``) run on ``Tape(record=False)``, which drops each
record, so they are never replayed and hold no op's saved arrays past its use.

Ops accept arbitrary leading batch axes; the documented shapes apply to the
trailing axes.  All arithmetic is double precision.  Set ``STDIFF_DEBUG=1``
to trip on any non-finite intermediate.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError

if TYPE_CHECKING:
    from .stgraph import BlockDiffusion

_DEBUG = os.environ.get("STDIFF_DEBUG", "") not in ("", "0")


class Tensor:
    """Dense double-precision value with a lazily allocated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        if _DEBUG and not np.all(np.isfinite(self.value)):
            raise NumericError("non-finite tensor value")
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    def ensure_grad(self) -> np.ndarray:
        """The gradient, zero-filled first if there is none: for an op that writes part of it."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def add_grad(self, g: np.ndarray, owned: bool = True) -> None:
        """Add ``g``, of this tensor's shape, to its gradient.

        The first ``g`` becomes the gradient: taken as it is when ``owned``
        (just computed, and handed to no other tensor), else copied, as a view
        of another tensor's gradient must be.  Later ones are added into it.
        """
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g


class ParamArray(Tensor):
    """Named trainable tensor; gradient storage always allocated.

    A ``grad`` array, when given, is the gradient storage itself, so a
    parameter can be a view of one block of a larger one, value and gradient.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, value, grad: np.ndarray | None = None):
        super().__init__(value)
        self.name = name
        self.grad = np.zeros_like(self.value) if grad is None else grad

    def zero_grad(self):
        self.grad.fill(0.0)


class Tape:
    """Ordered record of executed differentiable operations.

    Every op calls ``record`` with its backward closure, which holds the
    arrays that op saved.  A recording tape (the default) keeps the closures
    for ``backward``, which replays them once, deterministically: it pops
    each closure before running it, so the closure, its saved arrays and the
    gradient of its op's output are freed as soon as it has run.  A second
    ``backward`` raises.  ``record=False`` makes a forward-only tape: it
    drops each closure at once, so an op's saved arrays are freed as soon as
    the next op has consumed its output, and it can never be replayed.
    """

    def __init__(self, record: bool = True):
        self._recording = record
        self._records = []
        self._replayed = False

    def record(self, backward_fn):
        if self._recording:
            self._records.append(backward_fn)

    def __len__(self):
        return len(self._records)

    def backward(self, loss: Tensor):
        if not self._recording:
            raise ArgumentError("cannot replay: tape was created with record=False")
        if self._replayed:
            raise ArgumentError("cannot replay: a tape is replayed once")
        if loss.value.shape != ():
            raise ShapeError("backward starts from a scalar loss")
        records, self._records, self._replayed = self._records, [], True
        loss.grad = np.ones_like(loss.value)
        while records:
            records.pop()()


# -- primitive ops -----------------------------------------------------


def linear(tape: Tape, x: Tensor | np.ndarray, theta: Tensor) -> Tensor:
    """Y = X @ Theta on the feature axis; X is (..., r, d_in), Theta (d_in, d_out).

    An X given as a plain array is data: it gets no gradient.
    """
    xv = x if isinstance(x, np.ndarray) else x.value
    if xv.ndim < 2 or theta.value.ndim != 2 or xv.shape[-1] != theta.value.shape[0]:
        raise ShapeError(f"linear shape mismatch {xv.shape} @ {theta.shape}")
    out = Tensor(xv @ theta.value)

    def backward():
        g = out.grad
        if xv is not x:
            x.add_grad(g @ theta.value.T)
        theta.add_grad(xv.reshape(-1, theta.value.shape[0]).T @ g.reshape(
            -1, theta.value.shape[1]))

    tape.record(backward)
    return out


def kron_linear(tape: Tape, e: Tensor, theta: Tensor) -> Tensor:
    """(I_r ⊗ E) Theta, (r*a, c), for E (a, f) and Theta (r*f, c).

    (Z ⊗ E) Theta = Z (I_r ⊗ E) Theta: a GEMM over r*a columns, not r*f.
    """
    if e.value.ndim != 2 or theta.value.ndim != 2 or theta.value.shape[0] % e.value.shape[1]:
        raise ShapeError(f"kron_linear shape mismatch {e.shape} ⊗ {theta.shape}")
    (a, f), c = e.value.shape, theta.value.shape[1]
    blocks = theta.value.reshape(-1, f, c)
    out = Tensor((e.value @ blocks).reshape(-1, c))

    def backward():
        g = out.grad.reshape(-1, a, c)
        e.add_grad(np.einsum("rac,rfc->af", g, blocks))
        theta.add_grad((e.value.T @ g).reshape(theta.value.shape))

    tape.record(backward)
    return out


def diffuse(ops: list[BlockDiffusion], x: np.ndarray, k_hops: int) -> np.ndarray:
    """``spmm_diff``'s Z of plain data, with nothing recorded."""
    if not ops or k_hops < 1:
        raise ArgumentError("diffusion needs at least one operator and one hop")
    d, r = x.shape[-1], len(ops)
    z = np.empty(x.shape[:-1] + (k_hops * r * d,))
    hops, prev = z.reshape(x.shape[:-1] + (k_hops, r, d)), [x] * r
    for k in range(k_hops):
        for i, op in enumerate(ops):
            prev[i] = op.apply(prev[i], out=hops[..., k, i, :])
    return z


def spmm_diff(tape: Tape, ops: list[BlockDiffusion], x: Tensor, k_hops: int) -> Tensor:
    """Every diffusion hop of one block, Z = [P_1 X | ... | P_r X | ... | P_r^K X].

    X is (..., m, n, d) or (..., m*n, d); Z has X's shape with k_hops*r*d
    features, hop k of operator i in columns [(k*r + i)*d, (k*r + i + 1)*d).
    Each hop is its operator applied to the previous hop, written straight
    into Z, which is allocated once.  Backward runs the transposed recursion
    gX += P^T(G_1 + P^T(G_2 + ... P^T G_K)) per operator.  P carries no
    gradient.
    """
    out = Tensor(diffuse(ops, x.value, k_hops))
    d, r = x.value.shape[-1], len(ops)

    def backward():
        g = out.grad.reshape(out.grad.shape[:-1] + (k_hops, r, d))
        for i in reversed(range(r)):
            acc = ops[i].apply_transpose(g[..., k_hops - 1, i, :])
            for k in reversed(range(k_hops - 1)):
                acc += g[..., k, i, :]
                acc = ops[i].apply_transpose(acc)
            x.add_grad(acc)

    tape.record(backward)
    return out


def layer_norm(tape: Tape, x: Tensor, y: Tensor, scale: Tensor, shift: Tensor,
               eps: float = 1e-5, y0: Tensor | None = None) -> Tensor:
    """Layer norm of the residual sum X + Y per channel, population variance.

    X is (..., d), Y (..., s*d): channel c normalizes X + Y[..., c*d:(c+1)*d]
    over its d features, then applies scale and shift [c*d:(c+1)*d].  A
    (..., n, s*d) ``y0`` joins the sum in snapshot 0 of a (..., m, n, s*d) Y.  The
    sum is formed once, as (rows, d) channel rows, and centred and scaled in
    place; the row moments and the scale and shift gradients are BLAS
    matrix-vector products.  Backward keeps only that normalized sum and
    the per-row inverse std.
    """
    d, width = x.value.shape[-1], y.value.shape[-1]
    if (y.value.shape[:-1] != x.value.shape[:-1] or width % d
            or scale.value.shape != (width,) or shift.value.shape != (width,)
            or y0 is not None and y0.value.shape != y.value.shape[:-3] + y.value.shape[-2:]):
        raise ShapeError(f"layer_norm cannot group {x.shape} {y.shape} {scale.shape} {shift.shape}")
    s = width // d
    avg = np.full(d, 1.0 / d)
    xhat = (y.value.reshape(-1, s, d) + x.value.reshape(-1, 1, d)).reshape(-1, d)
    if y0 is not None:
        xhat.reshape(y.value.shape)[..., 0, :, :] += y0.value
    xhat -= (xhat @ avg)[:, None]
    buf = np.square(xhat)
    inv = 1.0 / np.sqrt(buf @ avg + eps)
    xhat *= inv[:, None]
    out_value = np.multiply(xhat.reshape(-1, width), scale.value, out=buf.reshape(-1, width))
    out_value += shift.value
    out = Tensor(out_value.reshape(y.value.shape))

    def backward():
        g = out.grad.reshape(-1, width)
        ones = np.ones(g.shape[0])
        shift.add_grad(ones @ g)
        tmp = g * xhat.reshape(-1, width)
        scale.add_grad(ones @ tmp)
        dacc = (g * scale.value).reshape(-1, d)    # dxhat, then dacc in place
        tmp = np.multiply(dacc, xhat, out=tmp.reshape(-1, d))
        proj = (tmp @ avg)[:, None]
        dacc -= (dacc @ avg)[:, None]
        dacc -= np.multiply(xhat, proj, out=tmp)
        dacc *= inv[:, None]
        x.add_grad(dacc.reshape(-1, s, d).sum(axis=1).reshape(x.value.shape))
        dy = dacc.reshape(y.value.shape)
        if y0 is not None:
            y0.add_grad(dy[..., 0, :, :], owned=False)
        y.add_grad(dy)

    tape.record(backward)
    return out


def temporal_compress(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """Collapse the snapshot axis: Y[..., i, f] = sum_t X[..., t, i, f] * k[t, f].

    X is (..., m, n, d).  ``kernel`` may have more rows than m (shared kernel
    across iteration tails); only its first m rows participate, and only
    those rows receive gradient.
    """
    if x.value.ndim < 3:
        raise ShapeError("temporal_compress expects (..., m, n, d)")
    m, d = x.value.shape[-3], x.value.shape[-1]
    if kernel.value.ndim != 2 or kernel.value.shape[0] < m or kernel.value.shape[1] != d:
        raise ShapeError(
            f"compression kernel {kernel.shape} incompatible with input {x.shape}"
        )
    k = kernel.value[:m]
    out = Tensor(np.einsum("...tnf,tf->...nf", x.value, k))

    def backward():
        g = out.grad
        x.add_grad(np.einsum("...nf,tf->...tnf", g, k))
        kernel.ensure_grad()
        tail = x.value.shape[-3:]
        kernel.grad[:m] += np.einsum(
            "btnf,bnf->tf", x.value.reshape((-1,) + tail), g.reshape((-1,) + tail[1:]))

    tape.record(backward)
    return out


def concat_features(tape: Tape, parts: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` (default: the feature axis); backward splits by offset."""
    if not parts:
        raise ShapeError("nothing to concatenate")
    ndim = parts[0].value.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat axis {axis} out of range for {ndim}-d parts")
    axis %= ndim
    rest = parts[0].value.shape[:axis] + parts[0].value.shape[axis + 1:]
    for p in parts:
        if p.value.ndim != ndim or p.value.shape[:axis] + p.value.shape[axis + 1:] != rest:
            raise ShapeError(f"concat parts must agree on all but axis {axis}")
    widths = [p.value.shape[axis] for p in parts]
    out = Tensor(np.concatenate([p.value for p in parts], axis=axis))
    offsets = np.cumsum([0] + widths)
    lead = (slice(None),) * axis

    def backward():
        g = out.grad
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p.add_grad(g[lead + (slice(lo, hi),)], owned=False)

    tape.record(backward)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.value + b.value)

    def backward():
        a.add_grad(out.grad, owned=False)
        b.add_grad(out.grad, owned=False)

    tape.record(backward)
    return out


def add_bias(tape: Tape, x: Tensor, b: Tensor) -> Tensor:
    """X + b broadcast over leading axes; b is (d,)."""
    if b.value.shape != (x.value.shape[-1],):
        raise ShapeError("bias width mismatch")
    out = Tensor(x.value + b.value)

    def backward():
        x.add_grad(out.grad, owned=False)
        b.add_grad(out.grad.sum(axis=tuple(range(out.grad.ndim - 1))))

    tape.record(backward)
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    """max(x, 0); a NaN passes through, so it reaches the output."""
    out = Tensor(np.maximum(x.value, 0.0))

    def backward():
        x.add_grad(np.where(x.value > 0, out.grad, 0.0))

    tape.record(backward)
    return out


def slice_time(tape: Tape, x: Tensor, t0: int, t1: int, carry: Tensor | None = None) -> Tensor:
    """One (..., m, n, d) block: snapshots [t0, t1) of the (..., T, n, d) history.

    A (..., n, d) ``carry``, when given, is snapshot 0 and the slice follows it.
    The block is assembled in one copy; backward splits the gradient between
    ``carry`` and ``x``.
    """
    if x.value.ndim < 3 or not (0 <= t0 < t1 <= x.value.shape[-3]):
        raise ShapeError(f"bad time slice [{t0}, {t1}) for {x.shape}")
    lead, tail = x.value.shape[:-3], x.value.shape[-2:]
    if carry is not None and carry.value.shape != lead + tail:
        raise ShapeError(f"carry {carry.shape} is not a snapshot of {x.shape}")
    c = 0 if carry is None else 1
    block = np.empty(lead + (c + t1 - t0,) + tail)
    if carry is not None:
        block[..., 0, :, :] = carry.value
    block[..., c:, :, :] = x.value[..., t0:t1, :, :]
    out = Tensor(block)

    def backward():
        g = out.grad
        if carry is not None:
            carry.add_grad(g[..., 0, :, :], owned=False)
        x.ensure_grad()
        x.grad[..., t0:t1, :, :] += g[..., c:, :, :]

    tape.record(backward)
    return out


def mlp_decode(tape: Tape, x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
               horizon: int) -> Tensor:
    """Two-layer per-vertex MLP emitting all horizons in one pass.

    X is (..., n, d); the feature chain is d -> hidden -> horizon with a
    positive-part nonlinearity between the layers.  Output is (..., H, n, 1),
    one speed per horizon and vertex.
    """
    if w2.value.shape[1] != horizon:
        raise ShapeError("decoder output layer must emit one feature per horizon")
    h = relu(tape, add_bias(tape, linear(tape, x, w1), b1))
    o = add_bias(tape, linear(tape, h, w2), b2)
    out = Tensor(np.swapaxes(o.value, -2, -1)[..., None])

    def backward():
        o.add_grad(np.swapaxes(out.grad[..., 0], -2, -1).copy())

    tape.record(backward)
    return out


# -- loss --------------------------------------------------------------


def mae_loss(tape: Tape, pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error over all entries; subgradient 0 at exact zeros."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ShapeError(f"loss shape mismatch {pred.shape} vs {target.shape}")
    diff = pred.value - target
    out = Tensor(np.abs(diff).mean())

    def backward():
        pred.add_grad(out.grad * np.sign(diff) / diff.size)

    tape.record(backward)
    return out


def l2_penalty(tape: Tape, params: list[Tensor], lam: float) -> Tensor:
    """lam * ||theta||_2 over all entries of all params (the norm, not its square)."""
    norm = np.sqrt(sum(float((p.value ** 2).sum()) for p in params))
    out = Tensor(lam * norm)

    def backward():
        g = float(out.grad)
        for p in params:
            if norm > 0.0:
                p.add_grad(g * lam * p.value / norm)

    tape.record(backward)
    return out


# -- gradient checking -------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    name: str
    max_rel_err: float
    entries_checked: int
    passed: bool


def grad_check(
    loss_fn,
    params: list[ParamArray],
    *,
    h: float = 1e-5,
    tol: float = 1e-4,
    max_entries: int = 10000,
    rng: np.random.Generator | None = None,
) -> list[GradCheckReport]:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn(tape) -> Tensor`` must be a pure scalar function of the given
    parameters.  Parameters with more than ``max_entries`` entries are
    subsampled.  Relative error uses a unit floor:
    |a - n| / max(1, |a|, |n|).
    """
    if h <= 0:
        raise ArgumentError("finite-difference step must be positive")
    rng = rng or np.random.default_rng(0)

    def run() -> float:
        val = float(loss_fn(Tape(record=False)).value)
        if not np.isfinite(val):
            raise NumericError("non-finite loss during gradient check")
        return val

    for p in params:
        p.zero_grad()
    tape = Tape()
    loss = loss_fn(tape)
    if not np.isfinite(loss.value):
        raise NumericError("non-finite loss during gradient check")
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    reports = []
    for p in params:
        n_entries = p.value.size
        if n_entries > max_entries:
            idx = rng.choice(n_entries, size=max_entries, replace=False)
        else:
            idx = np.arange(n_entries)
        a_flat = analytic[p.name].reshape(-1)
        max_err = 0.0
        for i in idx:
            at = np.unravel_index(i, p.value.shape)  # a strided view does not flatten in place
            orig = p.value[at]
            p.value[at] = orig + h
            f_plus = run()
            p.value[at] = orig - h
            f_minus = run()
            p.value[at] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = a_flat[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_err = max(max_err, err)
        reports.append(GradCheckReport(p.name, max_err, len(idx), max_err <= tol))
    return reports
