"""The forecasting network: synchronous convolution blocks, the iterative
compression encoder, and the parallel MLP decoder.

A block is m consecutive snapshots, kept in the (..., m, n, d) layout from
its assembly to its temporal compression.  One convolution block computes,
over its m*n vertices,

    LN( sum_{k=1..K} (P_nh^k X) Theta_{k,1} + (P_h^k X) Theta_{k,2} + X )

where P_nh / P_h are the decoupled and coupled transition matrices and the
Theta matrices act on the feature axis (d x d), so the parameter count is
independent of the vertex count and the whole network commutes with vertex
relabeling.  There is no nonlinearity inside the convolution; the only one
lives in the decoder MLP.

The sum is evaluated in fused form, for all s channels at once.  The
diffusion features Z = [P_nh^1 X | P_h^1 X | ... | P_nh^K X | P_h^K X]
(m, n, 2K*d) do not depend on the channel, so each block computes them
once, and no power of P is formed.  Both graphs share the spatial matrix
A + I, so one spatial product per hop serves both: hop 1 is (A + I) X,
which each graph's structured operator (``stgraph.BlockDiffusion``)
shifts and scales, and hop k > 1 is (A + I) times both graphs' hop k-1 side
by side.  The
model stores every channel's weights side by side on the feature axis,
channel c in columns [c*d, (c+1)*d), in one ``ChannelBank``; each named
channel parameter is a view into it, so no forward stacks weights and no
backward splits their gradient.  The terms an ablation drops (``no_hstg``
the coupled, ``no_two_step`` the decoupled) leave both Z and the bank.
Whatever K and s are, a pass is then the channel GEMM Y = [X | Z] Theta
(the fold GEMM on raw snapshots), one op that normalizes Y per channel and
compresses it over time, and the mix GEMM.  On every path "+ X" is hop 0
of a channel GEMM, X against an identity block per channel, and a carried
snapshot's too (``autodiff.carry_term``), so the layer norm has one form:
it only sums a snapshot-0 term into Y and normalizes.  That op folds the
layer norm's scale and shift into the compression kernel,
sum_t xhat_t (scale k_t) + shift sum_t k_t, so no pass writes a normalized
block.

Y is folded, and so is the residual.  A raw snapshot is the embedding
w ⊗ E of its n readings, one speed per sensor, so its share of Y is
Z(w) (I_terms ⊗ E) Theta: per snapshot, (2K-1)*n^2 for the diffusion, run on
plain data, and 2K*n*s*d for the GEMM.  Its residual w ⊗ E has the same
rank-1 form, as hop 0 with identity weight: the raw Z leads with the
readings themselves, and Theta_fold with E once per channel, so one GEMM
forms every raw snapshot's residual and diffusion terms, and no embedded
snapshot is built.  Snapshot t reads t+1, never t-1, so no hop moves the
carried snapshot out of snapshot 0: only it pays full width, through the
row-0 operators the model builds once.  Its whole term, the carry itself
as hop 0 included, is one ``autodiff.carry_term`` op on every path that
folds, a one-snapshot block that joins the layer norm's sum in snapshot 0
(hop 0 of the raw Z is zero in that snapshot).  Each operator's hop of
the carry is a contiguous slab, scaled by the (r, n, d) inverse degrees
built once with the operators, and each slab meets its Theta block in its
own GEMM, so no hop is written into a strided column block of a Z; the
carry is then added into every channel of the op's own output.  The layer
norm centres and scales the sum in Y's own buffer: Y is the fold GEMM's
output, and nothing else reads it.  The carry's term is only read.

The encoder consumes the T-step history iteratively: the first iteration
compresses snapshots [0, m); each later one compresses the running
compressed snapshot together with the next m-1 raw snapshots.  Only the
generic path, which ``encode`` takes when given an embedded history,
assembles each such block, in a single ``autodiff.slice_time`` copy.  When
the remaining history is shorter than m-1, a smaller block graph is built
for the tail and the shared compression kernel is sliced to its extent.
One parameter set is reused at every iteration.

Eval, predict and validation walk windows one snapshot apart.  Such a batch
is a run: B >= 2 windows, window b+1 being window b one snapshot on, which
one comparison of the raw batch decides.  A run is one series of B+T-1
snapshots, and window b's carried pass [lo, hi) reads its snapshots
[b+lo, b+hi), so the windows' passes share their raw blocks.  ``encode``
then handles each distinct raw block of a carried pass once, per raw length
m', through the (m'+1)-snapshot block graph with the carry slot zeroed: one
diffusion, the fold GEMM, and one layer norm over its snapshots 1..m',
compressed with kernel rows 1..m'.  The split is exact.  Those snapshots
never read the carry (t reads t+1, and the layer norm is per row), and Z is
linear, so snapshot 0's raw share is the block's row 0 with the carry slot
zeroed.  A carried pass then forms its carry's term, sums its windows'
rows of the raw share into it, normalizes that snapshot 0 alone with
kernel row 0 in the term's own buffer, and adds their rows of the
compressed rest.  Any other batch, a shuffled training batch among them,
takes the per-pass loop.  The two paths sum a pass's compressed rows in
different orders, so a window's prediction can differ in its last bits
with the batch it is in.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import ParamArray, Tape, Tensor
from .data import dataclass_from_json
from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .stgraph import StBlockGraph, build_hstg, carry_operators

ABLATIONS = ("full", "no_hstg", "no_two_step", "no_iteration")


@dataclass(frozen=True)
class ModelConfig:
    K: int = 5
    m: int = 2
    s: int = 8
    d: int = 256
    T: int = 12
    H: int = 12
    ablation: str = "full"
    # constants, not fields, kept on the config because benchmarks/reference.py reads them there
    d_out: ClassVar[int] = 1
    ln_eps: ClassVar[float] = 1e-5

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ArgumentError(f"unknown ablation {self.ablation!r}")
        if self.m < 2:
            raise ArgumentError("m must be >= 2")
        if self.T < self.m:
            raise ArgumentError("history length T must be >= m")
        for name in ("K", "s", "d", "H"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1")

    @property
    def effective_m(self) -> int:
        """Snapshots per block; the non-iterative ablation folds all T at once."""
        return self.T if self.ablation == "no_iteration" else self.m

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        """The config in ``text``; a retired key is dropped if it holds its one value."""
        data = json.loads(text)
        if isinstance(data, dict):
            for key, only in RETIRED_KEYS.items():
                value = data.pop(key, only)
                if (type(value), value) != (type(only), only):
                    raise ArgumentError(f"the {key} variant {json.dumps(value)} was removed; "
                                        f"only {json.dumps(only)} is supported")
        return dataclass_from_json(ModelConfig, data, "config")


# keys of removed variants, each with the one value the model builds;
# config.json files written before the variants went still carry them
RETIRED_KEYS = {"self_loops": True, "temporal_direction": "as_written", "d_in": 1,
                "d_out": ModelConfig.d_out, "decoder_hidden": None, "ln_eps": ModelConfig.ln_eps}


@dataclass
class StscChannelParams:
    theta_nh: list[ParamArray]
    theta_h: list[ParamArray]
    ln_scale: ParamArray
    ln_shift: ParamArray
    compress_kernel: ParamArray

    def all(self) -> list[ParamArray]:
        return [*self.theta_nh, *self.theta_h, self.ln_scale, self.ln_shift,
                self.compress_kernel]


@dataclass(frozen=True)
class CompressedSnapshot:
    features: Tensor
    iterations: int


def expected_iterations(t: int, m: int) -> int:
    """Closed-form encoder iteration count: 1 + ceil((T-m)/(m-1))."""
    if m < 2 or t < m:
        raise ArgumentError("need T >= m >= 2")
    return 1 + math.ceil((t - m) / (m - 1))


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class IstdGcnModel:
    """Holds the block graphs, the carry's row-0 operators, and every parameter.

    Read-only during forward; concurrent forwards on separate tapes are
    safe.  Parameter updates require exclusive access.
    """

    def __init__(self, config: ModelConfig, graph: SensorGraph, seed: int = 0):
        self.config = config
        self.graph = graph
        self._blocks: dict[int, StBlockGraph] = {}
        self.carry_ops = carry_operators(self.block_graph(config.effective_m),  # pass 0's block
                                         _kept_families(config.ablation).values(), config.d)
        rng = np.random.default_rng(seed)
        d, s = config.d, config.s
        self.input_embed = ParamArray("input_embed", _glorot(rng, 1, d, (1, d)))
        self.bank = ChannelBank(config)
        self.channels = self.bank.channels
        for ch in self.channels:
            for theta in (*ch.theta_nh, *ch.theta_h):
                theta.value[...] = _glorot(rng, d, d, (d, d))
        self.mix = ParamArray("mix", _glorot(rng, s * d, d, (s * d, d)))
        self.dec_w1 = ParamArray("dec_w1", _glorot(rng, d, d, (d, d)))
        self.dec_b1 = ParamArray("dec_b1", np.zeros(d))
        self.dec_w2 = ParamArray("dec_w2", _glorot(rng, d, config.H, (d, config.H)))
        self.dec_b2 = ParamArray("dec_b2", np.zeros(config.H))

    def params(self) -> list[ParamArray]:
        out = [self.input_embed]
        for ch in self.channels:
            out.extend(ch.all())
        out.extend([self.mix, self.dec_w1, self.dec_b1, self.dec_w2, self.dec_b2])
        return out

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    def block_graph(self, m: int) -> StBlockGraph:
        if m not in self._blocks:
            self._blocks[m] = build_hstg(self.graph, m, num_hops=self.config.K)
        return self._blocks[m]


def _kept_families(ablation: str) -> dict[str, str]:
    """Theta list name -> block operator, for each family of terms Z keeps.

    In summation order within a hop: the decoupled family, then the coupled
    one.  ``no_two_step`` drops the decoupled terms, ``no_hstg`` the coupled
    ones; a dropped family has no hops in Z and no rows in the bank.
    """
    dropped = {"no_two_step": "theta_nh", "no_hstg": "theta_h"}.get(ablation)
    return {name: graph for name, graph in (("theta_nh", "decoupled"), ("theta_h", "coupled"))
            if name != dropped}


class ChannelBank:
    """Every channel's weights side by side, channel c in columns [c*d, (c+1)*d).

    ``theta`` holds one d-row block per term Z keeps, in Z's order, and is the
    channel GEMM's weight.  Each named parameter in ``channels`` is a view of
    one block of the bank, value and gradient alike; dropped terms have none.
    """

    def __init__(self, config: ModelConfig):
        d, width, m_eff = config.d, config.s * config.d, config.effective_m
        rows = [(name, k) for k in range(config.K) for name in _kept_families(config.ablation)]
        self.theta = ParamArray("bank.theta", np.zeros((len(rows) * d, width)))
        self.ln_scale = ParamArray("bank.ln_scale", np.ones(width))
        self.ln_shift = ParamArray("bank.ln_shift", np.zeros(width))
        self.compress_kernel = ParamArray("bank.compress", np.full((m_eff, width), 1.0 / m_eff))
        self.channels: list[StscChannelParams] = []
        for c in range(config.s):
            cols = slice(c * d, (c + 1) * d)
            theta = {"theta_nh": [], "theta_h": []}
            for i, (name, k) in enumerate(rows):  # k ascends, so list index k is hop k+1
                theta[name].append(_view(f"ch{c}.{name}{k + 1}", self.theta,
                                         (slice(i * d, (i + 1) * d), cols)))
            self.channels.append(StscChannelParams(
                **theta,
                ln_scale=_view(f"ch{c}.ln_scale", self.ln_scale, cols),
                ln_shift=_view(f"ch{c}.ln_shift", self.ln_shift, cols),
                compress_kernel=_view(f"ch{c}.compress", self.compress_kernel, (slice(None), cols)),
            ))


def _view(name: str, storage: ParamArray, index) -> ParamArray:
    return ParamArray(name, storage.value[index], grad=storage.grad[index])


def stsc_forward(tape: Tape, params: StscChannelParams, block: StBlockGraph, x: Tensor, *,
                 ln_eps: float = ModelConfig.ln_eps) -> Tensor:
    """One channel's convolution block on (..., m, n, d) or (..., m*n, d) input.

    A ``multi_channel_forward`` pass with s = 1, up to the layer norm and
    before the temporal compression, on separate parameters, which it stacks
    per call; the output has the input's shape.  X feeds the hops of both
    graphs; a family whose theta list is empty is a dropped term, and K is
    the longer list's length.  The residual is hop 0: Z = [X | hops] against
    Theta = [I_d; Theta_nh1; Theta_h1; ...], so the layer norm adds nothing.
    """
    families = {name: g for name, g in _kept_families("full").items() if getattr(params, name)}
    k_hops = max(len(params.theta_nh), len(params.theta_h))
    d = x.value.shape[-1]
    z = ad.concat_features(tape, [x, ad.spmm_diff(
        tape, [getattr(block, graph) for graph in families.values()], x, k_hops)])
    theta = ad.concat_features(tape, [Tensor(np.eye(d))] + [
        getattr(params, name)[k] for k in range(k_hops) for name in families], axis=0)
    return ad.layer_norm(tape, d, ad.linear(tape, z, theta), params.ln_scale,
                         params.ln_shift, eps=ln_eps)


@dataclass(frozen=True)
class RawTables:
    """The raw blocks of m' snapshots that a run's carried passes read, each folded once.

    Row u is the block of series snapshots [start + u, start + u + m') behind
    a zeroed carry slot.  ``p0`` (U, 1, n, s*d) is its term in snapshot 0,
    the carry slot: the raw share of a carried pass's snapshot 0, since Z is
    linear.  ``rest`` (U, n, s*d) is its snapshots 1..m', normalized and
    compressed with kernel rows 1..m', which no carry reaches.
    """

    start: int
    p0: Tensor
    rest: Tensor


def _carry_term(tape: Tape, model: IstdGcnModel, carry: Tensor) -> Tensor:
    """The carry's whole term in snapshot 0 of a carried block, (..., 1, n, s*d): one op.

    ``autodiff.carry_term`` diffuses the carry through the row-0 operators,
    each operator's hop a contiguous slab scaled by the inverse degrees
    ``model.carry_ops`` holds, meets each slab with its Theta block, so no
    hop is written into a strided column block of a Z, and adds the carry
    into every channel: the residual is hop 0, as in the fold GEMM.
    """
    return ad.carry_term(tape, model.carry_ops, carry, model.config.K, model.bank.theta)


def multi_channel_forward(tape: Tape, model: IstdGcnModel, x: Tensor | np.ndarray | RawTables,
                          carry: Tensor | None = None, theta_fold: Tensor | None = None,
                          rows: slice | None = None) -> Tensor:
    """All channels over one (..., m, n, d) block, compressed and mixed to (..., n, d).

    The layer norm is given the bank's compression kernel, so it returns the
    compressed (..., n, s*d) snapshot the mix GEMM reads.  Given a Tensor
    block X, the channel term is [X | Z(X)] against Theta led by an identity
    block per channel, so it holds the residual.
    Given the raw (..., m', n, 1) snapshots as a plain array,
    the block is ``carry`` (if any) then their embeddings, and the pass is
    folded against ``theta_fold`` (module docstring): hop 0 of the raw Z is
    the readings themselves, so the fold GEMM forms the raw snapshots'
    residual too.  The layer norm consumes the GEMM's output, and the
    carry's term, hop 0 included, joins its snapshot 0 as ``y0``.  Given a
    run's ``RawTables``, the raw snapshots' terms are its ``rows``, already
    folded (``encode``): the layer norm consumes the carry's term, with
    those rows of the raw share as its ``y0``, so it normalizes snapshot 0
    alone, with kernel row 0, and the pass adds the rest's compressed rows.
    """
    cfg, bank = model.config, model.bank
    if isinstance(x, RawTables):
        lead = carry.value.shape[:-2]
        # the layer norm consumes the carry's fresh term and only reads the shared rows
        h = ad.layer_norm(tape, cfg.d, _carry_term(tape, model, carry), bank.ln_scale,
                          bank.ln_shift, eps=cfg.ln_eps, y0=ad.take_rows(tape, x.p0, rows, lead),
                          kernel=bank.compress_kernel)
        return ad.linear(tape, ad.add(tape, h, ad.take_rows(tape, x.rest, rows, lead)), model.mix)
    graphs = _kept_families(cfg.ablation).values()
    folded = not isinstance(x, Tensor)
    if folded and carry is not None:
        x = np.concatenate([np.zeros_like(x[..., :1, :, :]), x], axis=-3)
    block = model.block_graph(x.shape[-3])
    ops = [getattr(block, graph) for graph in graphs]
    if not folded:
        z = ad.concat_features(tape, [x, ad.spmm_diff(tape, ops, x, cfg.K)])
        y = ad.linear(tape, z, ad.kron_linear(tape, np.eye(cfg.d), bank.theta))
        h = ad.layer_norm(tape, cfg.d, y, bank.ln_scale, bank.ln_shift, eps=cfg.ln_eps,
                          kernel=bank.compress_kernel)
    else:
        y0 = None if carry is None else _carry_term(tape, model, carry)
        z = np.concatenate([x, ad.diffuse(ops, x, cfg.K)], axis=-1)  # hop 0: the readings
        y = ad.linear(tape, z, theta_fold)
        h = ad.layer_norm(tape, cfg.d, y, bank.ln_scale, bank.ln_shift, eps=cfg.ln_eps, y0=y0,
                          kernel=bank.compress_kernel)
    return ad.linear(tape, h, model.mix)


def _run_tables(tape: Tape, model: IstdGcnModel, history: np.ndarray,
                carried: list[tuple[int, int]], theta_fold: Tensor) -> dict[int, RawTables]:
    """Per raw length m', the ``RawTables`` of a run's ``carried`` passes; none otherwise.

    The flattened (B, T, n, 1) batch is a run when B >= 2 and window b+1 is
    window b one snapshot on.  It is then one series of B+T-1 snapshots, and
    window b's pass [lo, hi) reads series snapshots [b+lo, b+hi), so the
    passes of one length share their blocks: each is diffused, folded and
    normalized once, through the block graph of m'+1 snapshots.
    """
    cfg, bank = model.config, model.bank
    windows = history.reshape((-1,) + history.shape[-3:])
    b = len(windows)
    if not carried or b < 2 or not np.array_equal(windows[1:, :-1], windows[:-1, 1:]):
        return {}
    series = np.concatenate([windows[0], windows[1:, -1]])
    graphs = _kept_families(cfg.ablation).values()
    kernel = ad.take_rows(tape, bank.compress_kernel, slice(1, None))  # rows 1..m'
    tables = {}
    for width in sorted({hi - lo for lo, hi in carried}):
        los = [lo for lo, hi in carried if hi - lo == width]
        start, count = min(los), max(los) - min(los) + b
        blocks = np.zeros((count, width + 1) + series.shape[1:])  # slot 0: the carry's
        for t in range(width):
            blocks[:, t + 1] = series[start + t:start + t + count]
        block = model.block_graph(width + 1)
        z = np.concatenate(
            [blocks, ad.diffuse([getattr(block, g) for g in graphs], blocks, cfg.K)], axis=-1)
        rest = ad.layer_norm(tape, cfg.d, ad.linear(tape, z[:, 1:], theta_fold), bank.ln_scale,
                             bank.ln_shift, eps=cfg.ln_eps, kernel=kernel)
        tables[width] = RawTables(start, ad.linear(tape, z[:, :1], theta_fold), rest)
    return tables


def encode(tape: Tape, model: IstdGcnModel, history: Tensor | np.ndarray) -> CompressedSnapshot:
    """Iteratively fold the T-snapshot history into one (..., n, d) snapshot.

    Given as a (..., T, n, d) Tensor, the history is embedded, and each pass's block is cut
    from it with one ``slice_time`` copy.  Given as the raw (..., T, n, 1)
    window, a plain array, every pass folds E (module docstring), and no
    embedded snapshot or block is built.  When that batch is a run
    (``_run_tables``), each carried pass reads its raw terms from the run's
    tables, so each raw block is diffused, folded and normalized once, not
    once per window that holds it.
    """
    t_total = history.shape[-3]
    m = model.config.effective_m
    if t_total < m:
        raise ArgumentError(f"history length {t_total} shorter than block size {m}")
    passes = [(0, m)]
    while passes[-1][1] < t_total:
        lo = passes[-1][1]
        passes.append((lo, min(lo + m - 1, t_total)))
    folded = not isinstance(history, Tensor)
    theta_fold = ad.kron_linear(tape, model.input_embed, model.bank.theta) if folded else None
    batch = math.prod(history.shape[:-3])
    com, tables = None, {}
    for lo, hi in passes:
        if folded and lo == m:  # after pass 0, which reads none: its temporaries are freed
            tables = _run_tables(tape, model, history, passes[1:], theta_fold)
        if tables:
            table = tables[hi - lo]
            com = multi_channel_forward(tape, model, table, com,
                                        rows=slice(lo - table.start, lo - table.start + batch))
        elif folded:
            com = multi_channel_forward(tape, model, history[..., lo:hi, :, :], com, theta_fold)
        else:
            block = ad.slice_time(tape, history, lo, hi, carry=com)
            com = multi_channel_forward(tape, model, block)
    return CompressedSnapshot(features=com, iterations=len(passes))


def forward(tape: Tape, model: IstdGcnModel, window: np.ndarray) -> Tensor:
    """Full pass: encode the raw (..., T, n, 1) history, folding E, then decode.

    The embedded history is never built (``encode``).  Returns predictions
    shaped (..., H, n, 1).
    """
    window = np.asarray(window, dtype=np.float64)
    cfg = model.config
    if window.ndim < 3 or window.shape[-3] != cfg.T or window.shape[-1] != 1:
        raise ShapeError(f"window shape {window.shape} does not match (T={cfg.T}, n, 1)")
    if window.shape[-2] != model.graph.n:
        raise ShapeError("window vertex count does not match the graph")
    com = encode(tape, model, window)
    return ad.mlp_decode(tape, com.features,
                         model.dec_w1, model.dec_b1, model.dec_w2, model.dec_b2, cfg.H)
