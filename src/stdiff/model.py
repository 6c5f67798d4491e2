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
once, in one ``autodiff.spmm_diff`` op: hop k applies its graph's
structured operator (``stgraph.BlockDiffusion``) to hop k-1 and writes
straight into Z, and no power of P is formed.  Once per forward,
``stack_channels`` lays every channel's weights side by side on the
feature axis, channel c in columns [c*d, (c+1)*d): the thetas as one
(2K*d, s*d) matrix, the layer-norm scales and shifts, and the compression
kernels.  A pass is then six tape records whatever K and s are: the block
assembly, the diffusion into Z, one GEMM Z Theta, one channel-grouped
layer norm of X + Z Theta (which keeps only the normalized sum and the
per-row inverse std), one temporal compression and the mix GEMM.

The encoder consumes the T-step history iteratively: the first iteration
compresses snapshots [0, m); each later one assembles the running compressed
snapshot and the next m-1 raw snapshots into one block (a single
``autodiff.slice_time`` copy) and compresses again.  When the remaining
history is shorter than m-1, a smaller block graph is built for the tail and
the shared compression kernel is sliced to its extent.  One
parameter set is reused at every iteration.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamArray, Tape, Tensor
from .data import dataclass_from_json
from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .stgraph import TEMPORAL_DIRECTIONS, StBlockGraph, build_hstg

ABLATIONS = ("full", "no_hstg", "no_two_step", "no_iteration")


@dataclass(frozen=True)
class ModelConfig:
    K: int = 5
    m: int = 2
    s: int = 8
    d: int = 256
    T: int = 12
    H: int = 12
    d_in: int = 1
    d_out: int = 1
    decoder_hidden: int | None = None
    ablation: str = "full"
    temporal_direction: str = "as_written"
    self_loops: bool = True
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ArgumentError(f"unknown ablation {self.ablation!r}")
        if self.temporal_direction not in TEMPORAL_DIRECTIONS:
            raise ArgumentError(f"unknown temporal_direction {self.temporal_direction!r}")
        if self.m < 2:
            raise ArgumentError("m must be >= 2")
        if self.T < self.m:
            raise ArgumentError("history length T must be >= m")
        for name in ("K", "s", "d", "H", "d_in", "d_out"):
            if getattr(self, name) < 1:
                raise ArgumentError(f"{name} must be >= 1")

    @property
    def effective_m(self) -> int:
        """Snapshots per block; the non-iterative ablation folds all T at once."""
        return self.T if self.ablation == "no_iteration" else self.m

    @property
    def hidden(self) -> int:
        return self.decoder_hidden if self.decoder_hidden is not None else self.d

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        return dataclass_from_json(ModelConfig, text, "config")


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
    """Holds the static block graphs and every trainable array.

    Read-only during forward; concurrent forwards on separate tapes are
    safe.  Parameter updates require exclusive access.
    """

    def __init__(self, config: ModelConfig, graph: SensorGraph, seed: int = 0):
        self.config = config
        self.graph = graph
        self._blocks: dict[int, StBlockGraph] = {}
        rng = np.random.default_rng(seed)
        d, K, s = config.d, config.K, config.s
        m_eff = config.effective_m
        self.input_embed = ParamArray("input_embed", _glorot(rng, config.d_in, d, (config.d_in, d)))
        self.channels: list[StscChannelParams] = []
        for c in range(s):
            self.channels.append(StscChannelParams(
                theta_nh=[ParamArray(f"ch{c}.theta_nh{k}", _glorot(rng, d, d, (d, d)))
                          for k in range(1, K + 1)],
                theta_h=[ParamArray(f"ch{c}.theta_h{k}", _glorot(rng, d, d, (d, d)))
                         for k in range(1, K + 1)],
                ln_scale=ParamArray(f"ch{c}.ln_scale", np.ones(d)),
                ln_shift=ParamArray(f"ch{c}.ln_shift", np.zeros(d)),
                compress_kernel=ParamArray(f"ch{c}.compress", np.full((m_eff, d), 1.0 / m_eff)),
            ))
        self.mix = ParamArray("mix", _glorot(rng, s * d, d, (s * d, d)))
        hidden = config.hidden
        out_w = config.H * config.d_out
        self.dec_w1 = ParamArray("dec_w1", _glorot(rng, d, hidden, (d, hidden)))
        self.dec_b1 = ParamArray("dec_b1", np.zeros(hidden))
        self.dec_w2 = ParamArray("dec_w2", _glorot(rng, hidden, out_w, (hidden, out_w)))
        self.dec_b2 = ParamArray("dec_b2", np.zeros(out_w))

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
            self._blocks[m] = build_hstg(
                self.graph, m,
                num_hops=self.config.K,
                self_loops=self.config.self_loops,
                temporal_direction=self.config.temporal_direction,
            )
        return self._blocks[m]


def _hop_terms(k_hops: int, ablation: str) -> list[tuple[str, int]]:
    """(theta list name, k) of each diffusion term, in summation order.

    ``no_two_step`` drops the decoupled terms, ``no_hstg`` the coupled ones;
    Z and the stacked thetas drop the same terms.
    """
    kept = [name for name, dropped_by in (("theta_nh", "no_two_step"), ("theta_h", "no_hstg"))
            if ablation != dropped_by]
    return [(name, k) for k in range(k_hops) for name in kept]


def diffusion_features(tape: Tape, block: StBlockGraph, x: Tensor, k_hops: int,
                       ablation: str) -> Tensor:
    """The hop products Z of block input x, one ``spmm_diff`` over the kept graphs.

    x is in either layout, (..., m, n, d) or (..., m*n, d); Z has the
    input's shape with terms*d features, in ``_hop_terms`` order.  Hop k of
    a graph is its operator applied to hop k-1.
    """
    shape = x.value.shape
    if shape[-3:-1] != (block.m, block.n) and shape[-2] != block.m * block.n:
        raise ShapeError(f"input {shape} does not match block graph {block.m}x{block.n}")
    graphs = {"theta_nh": block.decoupled, "theta_h": block.coupled}
    return ad.spmm_diff(tape, [graphs[name] for name, _ in _hop_terms(1, ablation)], x, k_hops)


@dataclass(frozen=True)
class ChannelBank:
    """Every channel's weights side by side; channel c owns columns [c*d, (c+1)*d)."""
    theta: Tensor            # (terms*d, s*d), rows in ``_hop_terms`` order
    ln_scale: Tensor         # (s*d,)
    ln_shift: Tensor         # (s*d,)
    compress_kernel: Tensor  # (m_eff, s*d)


def _stack_thetas(tape: Tape, params: StscChannelParams, terms: list) -> Tensor:
    return ad.concat_features(tape, [getattr(params, name)[k] for name, k in terms], axis=0)


def stack_channels(tape: Tape, model: IstdGcnModel) -> ChannelBank:
    """The model's channel weights as one bank, in s + 4 records, once per forward."""
    chs, terms = model.channels, _hop_terms(model.config.K, model.config.ablation)
    theta = ad.concat_features(tape, [_stack_thetas(tape, ch, terms) for ch in chs])
    return ChannelBank(theta, *(ad.concat_features(tape, [getattr(ch, f) for ch in chs])
                                for f in ("ln_scale", "ln_shift", "compress_kernel")))


def stsc_forward(tape: Tape, params: StscChannelParams, block: StBlockGraph, x: Tensor, *,
                 ablation: str = "full", ln_eps: float = 1e-5) -> Tensor:
    """One channel's convolution block on (..., m, n, d) or (..., m*n, d) input.

    A ``multi_channel_forward`` pass with s = 1, up to the layer norm; the
    output has the input's shape.  X feeds the hops of both graphs.
    """
    k_hops = len(params.theta_nh)
    z = diffusion_features(tape, block, x, k_hops, ablation)
    theta = _stack_thetas(tape, params, _hop_terms(k_hops, ablation))
    return ad.layer_norm(tape, x, ad.linear(tape, z, theta), params.ln_scale,
                         params.ln_shift, eps=ln_eps)


def multi_channel_forward(tape: Tape, model: IstdGcnModel, x: Tensor,
                          bank: ChannelBank) -> Tensor:
    """All channels over one (..., m, n, d) block, compressed and mixed to (..., n, d).

    Whatever K and s are, it records the diffusion, one GEMM, one grouped
    layer norm, one temporal compression and the mix.
    """
    cfg = model.config
    z = diffusion_features(tape, model.block_graph(x.value.shape[-3]), x, cfg.K, cfg.ablation)
    h = ad.layer_norm(tape, x, ad.linear(tape, z, bank.theta), bank.ln_scale,
                      bank.ln_shift, eps=cfg.ln_eps)
    return ad.linear(tape, ad.temporal_compress(tape, h, bank.compress_kernel), model.mix)


def encode(tape: Tape, model: IstdGcnModel, embedded: Tensor) -> CompressedSnapshot:
    """Iteratively fold the (..., T, n, d) history into one (..., n, d) snapshot."""
    t_total = embedded.value.shape[-3]
    m = model.config.effective_m
    if t_total < m:
        raise ArgumentError(f"history length {t_total} shorter than block size {m}")
    bank = stack_channels(tape, model)
    com = multi_channel_forward(tape, model, ad.slice_time(tape, embedded, 0, m), bank)
    idx, iterations = m, 1
    while idx < t_total:
        take = min(m - 1, t_total - idx)
        block = ad.slice_time(tape, embedded, idx, idx + take, carry=com)
        com = multi_channel_forward(tape, model, block, bank)
        idx += take
        iterations += 1
    return CompressedSnapshot(features=com, iterations=iterations)


def forward(tape: Tape, model: IstdGcnModel, window: np.ndarray) -> Tensor:
    """Full pass: embed the raw (..., T, n, d_in) history, encode, decode.

    Returns predictions shaped (..., H, n, d_out).
    """
    window = np.asarray(window, dtype=np.float64)
    cfg = model.config
    if window.ndim < 3 or window.shape[-3] != cfg.T or window.shape[-1] != cfg.d_in:
        raise ShapeError(f"window shape {window.shape} does not match (T={cfg.T}, n, d_in={cfg.d_in})")
    if window.shape[-2] != model.graph.n:
        raise ShapeError("window vertex count does not match the graph")
    embedded = ad.linear(tape, Tensor(window), model.input_embed)
    com = encode(tape, model, embedded)
    return ad.mlp_decode(
        tape, com.features,
        model.dec_w1, model.dec_b1, model.dec_w2, model.dec_b2,
        cfg.H, cfg.d_out,
    )
