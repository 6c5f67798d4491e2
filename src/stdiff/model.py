"""The forecasting network: synchronous convolution blocks, the iterative
compression encoder, and the parallel MLP decoder.

One convolution block computes, on the flattened m*n-vertex layout,

    LN( sum_{k=1..K} (P_nh^k X) Theta_{k,1} + (P_h^k X) Theta_{k,2} + X )

where P_nh / P_h are the decoupled and coupled transition matrices and the
Theta matrices act on the feature axis (d x d), so the parameter count is
independent of the vertex count and the whole network commutes with vertex
relabeling.  There is no nonlinearity inside the convolution; the only one
lives in the decoder MLP.

The sum is evaluated in fused form.  The diffusion features

    Z = [P_nh^1 X | P_h^1 X | ... | P_nh^K X | P_h^K X]      (m*n, 2K*d)

depend on the block and its input but not on the channel, so they are
computed once per block and shared by all s channels.  Each hop applies its
graph's structured operator (``stgraph.BlockDiffusion``) to the previous
hop, P^k X = P (P^{k-1} X); no power of P is ever formed.  Each channel
stacks its 2K thetas along rows into one (2K*d, d) matrix and computes
LN(X + Z Theta) with a single GEMM.  An ablation drops the same terms from
Z and from the stacked thetas.

The encoder consumes the T-step history iteratively: the first iteration
compresses snapshots [0, m); each later one stacks the running compressed
snapshot with the next m-1 raw snapshots and compresses again.  When the
remaining history is shorter than m-1, a smaller block graph is built for
the tail and the shared compression kernel is sliced to its extent.  One
parameter set is reused at every iteration.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamArray, Tape, Tensor
from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .stgraph import StBlockGraph, build_hstg

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
        data = json.loads(text)
        unknown = set(data) - set(ModelConfig.__dataclass_fields__)
        if unknown:
            raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
        return ModelConfig(**data)


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


def _hop_terms(block: StBlockGraph, k_hops: int, ablation: str) -> list[tuple]:
    """(graph operator, theta list name, k) of each diffusion term, in summation order.

    ``no_two_step`` drops the decoupled terms; ``no_hstg`` and single-snapshot
    blocks (which have no couplings) drop the coupled ones.
    """
    terms = []
    for k in range(k_hops):
        if ablation != "no_two_step":
            terms.append((block.decoupled, "theta_nh", k))
        if ablation != "no_hstg" and block.m > 1:
            terms.append((block.coupled, "theta_h", k))
    return terms


def diffusion_features(
    tape: Tape, block: StBlockGraph, x_flat: Tensor, k_hops: int, ablation: str,
) -> Tensor | None:
    """The hop products of (..., m*n, d) input, concatenated to (..., m*n, terms*d).

    Hop k of a graph is its operator applied to hop k-1.  Returns None when
    the ablation leaves no diffusion term.
    """
    if x_flat.value.shape[-2] != block.m * block.n:
        raise ShapeError(
            f"input rows {x_flat.shape} do not match block graph {block.m}x{block.n}"
        )
    hops, last = [], {}
    for op, name, _ in _hop_terms(block, k_hops, ablation):
        last[name] = ad.spmm_diff(tape, op, last.get(name, x_flat))
        hops.append(last[name])
    return ad.concat_features(tape, hops) if hops else None


def stsc_forward(
    tape: Tape,
    params: StscChannelParams,
    block: StBlockGraph,
    x_flat: Tensor,
    *,
    ablation: str = "full",
    ln_eps: float = 1e-5,
    features: Tensor | None = None,
) -> Tensor:
    """One convolution block on the flattened (..., m*n, d) layout.

    The same tensor feeds both diffusion terms (decoupled and coupled graphs
    share their vertex set).  The residual path always contributes.
    ``features`` are this input's ``diffusion_features``; they are computed
    here when not given.
    """
    k_hops = len(params.theta_nh)
    if features is None:
        features = diffusion_features(tape, block, x_flat, k_hops, ablation)
    acc = x_flat
    if features is not None:
        thetas = [getattr(params, name)[k] for _, name, k in _hop_terms(block, k_hops, ablation)]
        theta = ad.concat_features(tape, thetas, axis=0)
        acc = ad.add(tape, x_flat, ad.linear(tape, features, theta))
    return ad.layer_norm(tape, acc, params.ln_scale, params.ln_shift, eps=ln_eps)


def multi_channel_forward(tape: Tape, model: IstdGcnModel, x_stacked: Tensor) -> Tensor:
    """All channels over one (..., m, n, d) block, compressed and mixed to (..., n, d).

    The diffusion features are computed once here and shared by every channel.
    """
    cfg = model.config
    m = x_stacked.value.shape[-3]
    n = x_stacked.value.shape[-2]
    block = model.block_graph(m)
    x_flat = ad.merge_time(tape, x_stacked)
    features = diffusion_features(tape, block, x_flat, cfg.K, cfg.ablation)
    parts = []
    for ch in model.channels:
        h = stsc_forward(tape, ch, block, x_flat, ablation=cfg.ablation, ln_eps=cfg.ln_eps,
                         features=features)
        h = ad.split_time(tape, h, m, n)
        parts.append(ad.temporal_compress(tape, h, ch.compress_kernel))
    return ad.linear(tape, ad.concat_features(tape, parts), model.mix)


def encode(tape: Tape, model: IstdGcnModel, embedded: Tensor) -> CompressedSnapshot:
    """Iteratively fold the (..., T, n, d) history into one (..., n, d) snapshot."""
    t_total = embedded.value.shape[-3]
    m = model.config.effective_m
    if t_total < m:
        raise ArgumentError(f"history length {t_total} shorter than block size {m}")
    com = multi_channel_forward(tape, model, ad.slice_time(tape, embedded, 0, m))
    idx, iterations = m, 1
    while idx < t_total:
        take = min(m - 1, t_total - idx)
        raw = ad.slice_time(tape, embedded, idx, idx + take)
        stacked = ad.concat_time(tape, [ad.stack_snapshots(tape, [com]), raw])
        com = multi_channel_forward(tape, model, stacked)
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
