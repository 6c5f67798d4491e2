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

A backward frees a training step's whole working set at once (15 MB at the
train-wide benchmark's K1 s1 d128 m4 B32 shape, a step's tracemalloc peak
above its start), and the next step allocates it again.  glibc's default
policy moves its mmap and trim thresholds with the allocation history and,
in most runs, handed that freed heap back to the OS, so every step faulted
it in anew: 8,608 minor faults per train-wide step.  Importing this module
fixes the mmap threshold at 32 MiB, the ceiling glibc's dynamic threshold
climbs to on 64-bit, and the trim threshold at 128 MiB (``HEAP_POLICY``), so
up to 128 MiB of freed heap stays mapped for the next step and a train-wide
step takes no fault.  A paper-shape step (n=207 K5 s8 d256 m2, batch 1,
``scripts/paper_step.py``, one BLAS thread) falls in one of two modes, which
the allocation history picks: 63-547 minor faults, or 22,473-23,495.  Three
runs each of the script with no arguments and with its defaults spelled out
(``--steps 3 --warmup 2``) put one spelling in each mode, and a change to
what a forward allocates, with the same training step, swapped the two; the
modes do not differ in step time.  It took about 36,000 faults while each
pass still wrote a normalized block.  Where an array lives does not change
the arithmetic, so results are bit-identical.  It is a no-op where the C
library has no ``mallopt`` (off glibc).
"""
from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ArgumentError, NumericError, ShapeError

if TYPE_CHECKING:
    from .stgraph import BlockDiffusion, CarryDiffusion

_DEBUG = os.environ.get("STDIFF_DEBUG", "") not in ("", "0")

# glibc heap policy.  Minor faults per train-wide training step (K1 s1 d128 m4,
# B=32): 8,608 whenever glibc's default trimmed the freed heap, 0 with these.
MMAP_THRESHOLD = 32 << 20   # glibc's dynamic ceiling on 64-bit, fixed so history cannot move it
TRIM_THRESHOLD = 128 << 20  # free heap kept mapped at the top, above a step's working set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers in glibc's malloc.h


def _keep_heap_mapped() -> dict | None:
    """Set the two thresholds; the policy, or None where ``mallopt`` is missing or refuses."""
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the C library already loaded: no lookup subprocess
    except (AttributeError, OSError, TypeError):
        return None
    returned = (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
    if returned != (1, 1):
        return None
    return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}


HEAP_POLICY = _keep_heap_mapped()


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
        g = out.grad.reshape(-1, theta.value.shape[1])  # a strided gradient is copied once
        if xv is not x:  # one 2-D GEMM, not one per leading index
            x.add_grad((g @ theta.value.T).reshape(xv.shape))
        theta.add_grad(xv.reshape(-1, theta.value.shape[0]).T @ g)

    tape.record(backward)
    return out


def kron_linear(tape: Tape, e: Tensor | np.ndarray, theta: Tensor) -> Tensor:
    """[E repeated; (I_r ⊗ E) Theta], ((1 + r)*a, c), for E (a, f) and Theta (r*f, c).

    (Z ⊗ E) Theta = Z (I_r ⊗ E) Theta: a GEMM over r*a columns, not r*f.
    The a rows of E repeated over Theta's c/f column blocks lead: a Z that
    leads with X then adds X ⊗ E itself to every block, the residual as a
    hop 0 with identity weight.  Every path forms its residual this way.
    An E given as a plain array (the generic path's identity) is data: it
    gets no gradient.
    """
    ev = e if isinstance(e, np.ndarray) else e.value
    if (ev.ndim != 2 or theta.value.ndim != 2 or theta.value.shape[0] % ev.shape[1]
            or theta.value.shape[1] % ev.shape[1]):
        raise ShapeError(f"kron_linear shape mismatch {ev.shape} ⊗ {theta.shape}")
    (a, f), c = ev.shape, theta.value.shape[1]
    blocks = theta.value.reshape(-1, f, c)
    out = Tensor(np.concatenate([np.tile(ev, c // f), (ev @ blocks).reshape(-1, c)]))

    def backward():
        g = out.grad[a:].reshape(-1, a, c)
        if ev is not e:
            e.add_grad(out.grad[:a].reshape(a, c // f, f).sum(axis=1))
            e.add_grad(np.einsum("rac,rfc->af", g, blocks))
        theta.add_grad((ev.T @ g).reshape(theta.value.shape))

    tape.record(backward)
    return out


def _spatial_of(ops: list[BlockDiffusion], k_hops: int):
    """The one spatial matrix every operator in ``ops`` applies."""
    if not ops or k_hops < 1:
        raise ArgumentError("diffusion needs at least one operator and one hop")
    head = ops[0]
    if any(op.spatial is not head.spatial or op.inv_deg.shape != head.inv_deg.shape
           for op in ops):
        raise ArgumentError("diffusion operators must share one spatial matrix and block shape")
    return head.spatial


def diffuse(ops: list[BlockDiffusion], x: np.ndarray, k_hops: int) -> np.ndarray:
    """``spmm_diff``'s Z of plain data, with nothing recorded."""
    spatial, xb = _spatial_of(ops, k_hops), ops[0].blocks(x)
    d, r = x.shape[-1], len(ops)
    z = np.empty(x.shape[:-1] + (k_hops * r * d,))
    wide = z.reshape(xb.shape[:-1] + (k_hops, r * d))  # hop k of every operator, side by side
    hops = z.reshape(xb.shape[:-1] + (k_hops, r, d))
    ax = spatial.matmul_dense(xb)
    # a shifted operator adds into AX in place: the unshifted ones read it first,
    # and each shifted one but the last works on a copy
    order = sorted(range(r), key=lambda i: ops[i].shift)
    for i in order:
        ops[i].finish(ax.copy() if ops[i].shift and i != order[-1] else ax, xb, hops[..., 0, i, :])
    for k in range(1, k_hops):
        spatial.matmul_dense(wide[..., k - 1, :], out=wide[..., k, :])
        for i, op in enumerate(ops):
            op.finish(hops[..., k, i, :], hops[..., k - 1, i, :], hops[..., k, i, :])
    return z


def _transposed_hop(ops: list[BlockDiffusion], h: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """P_i^T G_i for every operator i: one A^T product for all.

    H (..., m, n, r, d) is G already scaled by each operator's inverse
    degrees; the product is written into ``out`` when it is given.
    """
    y = np.matmul(ops[0].spatial.dense.T, h.reshape(h.shape[:-2] + (-1,)),
                  out=None if out is None else out.reshape(h.shape[:-2] + (-1,))).reshape(h.shape)
    for i, op in enumerate(ops):
        if op.shift:
            y[..., 1:, :, i, :] += h[..., :-1, :, i, :]
    return y


def spmm_diff(tape: Tape, ops: list[BlockDiffusion], x: Tensor, k_hops: int) -> Tensor:
    """Every diffusion hop of one block, Z = [P_1 X | ... | P_r X | ... | P_r^K X].

    X is (..., m, n, d) or (..., m*n, d); Z has X's shape with k_hops*r*d
    features, hop k of operator i in columns [(k*r + i)*d, (k*r + i + 1)*d).
    The operators share one spatial matrix A + I (one block graph's pair), so
    each hop is one spatial product for all of them: hop 1 is A X, which
    each operator shifts and scales into its columns; hop k > 1 is A times
    every operator's hop k-1 side by side, written straight into Z, which is
    allocated once.  Backward runs the transposed recursion
    gX += P^T(G_1 + P^T(G_2 + ... P^T G_K)), one A^T product per hop over
    all operators, and adds each operator's share to gX in turn.  Hop K's
    share of Z's gradient is scaled into a copy, which leaves Z's gradient as
    it is; every later hop scales the accumulator in place, and the products
    alternate between those two buffers.  P carries no gradient.
    """
    out = Tensor(diffuse(ops, x.value, k_hops))
    r = len(ops)

    def backward():
        xb = ops[0].blocks(x.value)
        g = out.grad.reshape(xb.shape[:-1] + (k_hops, r, xb.shape[-1]))
        inv = np.stack([op.inv_deg for op in ops], axis=-1)[..., None]
        h = g[..., k_hops - 1, :, :] * inv
        acc = _transposed_hop(ops, h)
        for k in reversed(range(k_hops - 1)):
            acc += g[..., k, :, :]
            acc *= inv
            acc, h = _transposed_hop(ops, acc, out=h), acc
        for i in reversed(range(r)):
            x.add_grad(acc[..., i, :].reshape(x.value.shape), owned=False)

    tape.record(backward)
    return out


def carry_term(tape: Tape, row0: CarryDiffusion, carry: Tensor, k_hops: int,
               theta: Tensor) -> Tensor:
    """A carried snapshot's whole term: sum_k sum_i (P_i^k C) Theta_{k,i} + C per channel.

    C is the (..., n, d) carry and ``row0`` its r operators, a block graph's
    unshifted row 0 (``stgraph.carry_operators``): no shift and no snapshot
    axis, so no hop leaves C's snapshot.  Theta is (k_hops*r*d, s*d), block
    (k, i) in rows [(k*r + i)*d, (k*r + i + 1)*d).  The output is snapshot 0
    of a (..., 1, n, s*d) block, the value of
    ``linear(concat_features([C, spmm_diff(row0.ops, C, k_hops)]), kron_linear(I_d, Theta))``:
    Theta led by an identity block per channel, so C is hop 0, the residual,
    as the raw snapshots' readings are in the fold GEMM.

    Hop k of every operator is one (r, ..., n, d) array, operator i's hop a
    contiguous slab of it, so each row scaling is one contiguous pass, by
    ``row0.inv``: hop 1 is inv * (A + I) C, and hop k > 1 is (A + I) times
    every slab of hop k-1, one spatial product per hop, scaled in place.
    Each slab meets its Theta block in its own GEMM, and the GEMMs
    accumulate into the output, to which C is then added once per channel.
    Backward runs the transposed recursion
    gC = sum_i P_i^T(G_1 + P_i^T(G_2 + ...)) on the slabs, in two buffers,
    after the channel sum of G, hop 0's share, and writes Theta's gradient
    block by block; the output's gradient is left as it is.  P carries no
    gradient.
    """
    spatial = _spatial_of(row0.ops, k_hops)
    cv, tv, r, n, d = carry.value, theta.value, len(row0.ops), spatial.cols, row0.d
    if (cv.shape[-2:] != (n, d) or tv.ndim != 2 or tv.shape[0] != k_hops * r * d
            or tv.shape[1] % d):
        raise ShapeError(f"carry_term cannot diffuse {carry.shape} through {k_hops} hops of "
                         f"{r} operators on (n={n}, d={d}) into {theta.shape}")
    w, lead = tv.shape[1], cv.shape[:-2]
    s = w // d
    scale = row0.inv.reshape((r,) + (1,) * len(lead) + (n, d))
    hops = np.empty((k_hops, r) + cv.shape)
    np.multiply(spatial.matmul_dense(cv), scale, out=hops[0])
    for k in range(1, k_hops):
        spatial.matmul_dense(hops[k - 1], out=hops[k])
        hops[k] *= scale
    slabs, blocks = hops.reshape(k_hops, r, -1, d), tv.reshape(k_hops, r, d, w)
    terms = (slabs[k, i] @ blocks[k, i] for k in range(k_hops) for i in range(r))
    out_value = next(terms)
    for term in terms:
        out_value += term
    channels = out_value.reshape(-1, s, d)
    channels += cv.reshape(-1, 1, d)  # hop 0, the residual, in every channel
    out = Tensor(out_value.reshape(lead + (1, n, w)))

    def backward():
        g = out.grad.reshape(-1, w)  # a strided gradient is copied once
        grad = theta.ensure_grad()
        for k in range(k_hops):
            for i in range(r):
                grad[(k * r + i) * d:(k * r + i + 1) * d] += slabs[k, i].T @ g
        acc, buf = np.empty_like(hops[0]), np.empty_like(hops[0])
        for k in reversed(range(k_hops)):
            for i in range(r):  # G_k of every operator, into its slab
                np.matmul(g, blocks[k, i].T, out=buf[i].reshape(-1, d))
            if k < k_hops - 1:
                buf += acc
            buf *= scale
            np.matmul(spatial.dense.T, buf, out=acc)
        carry.add_grad(g.reshape(-1, s, d).sum(axis=1).reshape(cv.shape))
        for i in reversed(range(r)):
            carry.add_grad(acc[i], owned=False)

    tape.record(backward)
    return out


def layer_norm(tape: Tape, d: int, y: Tensor, scale: Tensor, shift: Tensor, *,
               eps: float = 1e-5, y0: Tensor | None = None,
               kernel: Tensor | None = None) -> Tensor:
    """Layer norm of the residual sum per channel, population variance.

    Y is (..., s*d): channel c normalizes its d features [c*d, (c+1)*d) of
    the sum, then applies scale and shift [c*d:(c+1)*d].  Y already holds
    the residual: every path forms it as hop 0 of a channel GEMM.  A
    (..., 1, n, s*d) ``y0`` joins the sum in snapshot 0 of a (..., m, n, s*d)
    Y: the carried snapshot's term on the per-pass path, a run's raw term on
    the run path.  The op only reads y0.

    The op consumes Y: it forms the sum, centres and scales it in Y's own
    buffer, which then holds the normalized sum.  Y must be an op output
    that nothing else reads, and the buffer that becomes Y's gradient holds
    y0's as a view: y0 may have no other reader either.

    Given the (m', s*d) compression ``kernel`` (m' >= m), the op also
    compresses the snapshot axis, as ``temporal_compress`` of its output
    would, and returns the (..., n, s*d) snapshot
    sum_t xhat_t * (scale * k_t) + shift * sum_t k_t: the scaled and shifted
    block is never written.  Only the kernel's first m rows take part and
    get gradient.

    The sum is centred and scaled as (rows, d) channel rows; the row moments
    are BLAS matrix-vector products.  Backward keeps only that normalized
    sum and the per-row inverse std.  Without a kernel, the scale and shift
    gradients are matrix-vector products too.  With one, backward writes
    g * (scale * k_t) once into the buffer that becomes Y's gradient and
    finishes it there.  One reduction, R[t] = the rows' sum of g * xhat_t,
    gives the kernel's, the scale's and the shift's gradients, and the
    normalized sum is used up.
    """
    shape, width = y.value.shape, y.value.shape[-1]
    m = shape[-3] if len(shape) >= 3 else 0
    if (d < 1 or width % d or scale.value.shape != (width,) or shift.value.shape != (width,)
            or y0 is not None and (not m or y0.value.shape != shape[:-3] + (1,) + shape[-2:])
            or kernel is not None and (not m or kernel.value.ndim != 2
                                       or kernel.value.shape[0] < m
                                       or kernel.value.shape[1] != width)):
        raise ShapeError(f"layer_norm cannot group {y.shape} by {d} with {scale.shape} "
                         f"{shift.shape}" + ("" if y0 is None else f", y0 {y0.shape}")
                         + ("" if kernel is None else f", kernel {kernel.shape}"))
    avg = np.full(d, 1.0 / d)
    xhat = y.value.reshape(-1, d)
    if y0 is not None:
        xhat.reshape(shape)[..., :1, :, :] += y0.value
    xhat -= (xhat @ avg)[:, None]
    buf = np.square(xhat)
    inv = 1.0 / np.sqrt(buf @ avg + eps)
    xhat *= inv[:, None]
    if kernel is None:
        out_value = np.multiply(xhat.reshape(-1, width), scale.value, out=buf.reshape(-1, width))
        out_value += shift.value
        out = Tensor(out_value.reshape(shape))
    else:
        del buf
        k = kernel.value[:m]
        sk = scale.value * k  # the scale folded into the kernel
        out_value = np.einsum("...tnf,tf->...nf", xhat.reshape(shape), sk)
        out_value += shift.value * k.sum(axis=0)
        out = Tensor(out_value)

    def backward():
        if kernel is None:
            g = out.grad.reshape(-1, width)
            ones = np.ones(g.shape[0])
            shift.add_grad(ones @ g)
            tmp = g * xhat.reshape(-1, width)
            scale.add_grad(ones @ tmp)
            dacc = (g * scale.value).reshape(-1, d)    # dxhat, then dacc in place
            tmp = np.multiply(dacc, xhat, out=tmp.reshape(-1, d))
            proj = (tmp @ avg)[:, None]
        else:
            g = out.grad
            rows = np.ones(g.size // width)
            gsum = rows @ g.reshape(-1, width)
            # R[t], the rows' sum of g * xhat_t
            r = np.einsum("btnf,bnf->tf", xhat.reshape((-1,) + shape[-3:]),
                          g.reshape((-1,) + shape[-2:]))
            kernel.ensure_grad()
            kernel.grad[:m] += scale.value * r + shift.value * gsum
            scale.add_grad((k * r).sum(axis=0))
            shift.add_grad(gsum * k.sum(axis=0))
            # dxhat, written once into the buffer that becomes Y's gradient
            dacc = np.multiply(g[..., None, :, :], sk[:, None, :]).reshape(-1, d)
            proj = (np.einsum("rd,rd->r", dacc, xhat) / d)[:, None]
            tmp = xhat  # used up: it takes xhat * proj
        dacc -= (dacc @ avg)[:, None]
        dacc -= np.multiply(xhat, proj, out=tmp)
        dacc *= inv[:, None]
        dy = dacc.reshape(shape)
        if y0 is not None:  # this op is y0's only reader: a view of Y's gradient
            y0.add_grad(dy[..., :1, :, :])
        y.add_grad(dy)

    tape.record(backward)
    return out


def temporal_compress(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """Collapse the snapshot axis: Y[..., i, f] = sum_t X[..., t, i, f] * k[t, f].

    X is (..., m, n, d).  ``kernel`` may have more rows than m (shared kernel
    across iteration tails); only its first m rows participate, and only
    those rows receive gradient.  The model compresses inside ``layer_norm``,
    given the kernel; this op is that form's reference.
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


def take_rows(tape: Tape, x: Tensor, rows: slice, lead: tuple | None = None) -> Tensor:
    """Rows ``rows`` of X's leading axis, laid out over the ``lead`` axes if given.

    The output is a view of X, so no op may consume it in place.  Backward
    adds the gradient into those rows.
    """
    part = x.value[rows]
    if lead is not None:
        if int(np.prod(lead)) != len(part):
            raise ShapeError(f"rows {rows} of {x.shape} do not fill the lead axes {lead}")
        part = part.reshape(lead + part.shape[1:])
    out = Tensor(part)

    def backward():
        x.ensure_grad()[rows] += out.grad.reshape(x.grad[rows].shape)

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
