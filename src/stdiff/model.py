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
once: hop k applies its graph's structured operator
(``stgraph.BlockDiffusion``) to hop k-1, and no power of P is formed.  The
model stores every channel's weights side by side on the feature axis,
channel c in columns [c*d, (c+1)*d), in one ``ChannelBank``; each named
channel parameter is a view into it, so no forward stacks weights and no
backward splits their gradient.  The terms an ablation drops (``no_hstg``
the coupled, ``no_two_step`` the decoupled) leave both Z and the bank.
Whatever K and s are, a pass is then one channel term Y = Z Theta, one
channel-grouped layer norm of X + Y, one temporal compression and the mix GEMM.

Y is folded.  A raw snapshot is the embedding w ⊗ E of its n readings, one
speed per sensor, so its share of Y is Z(w) (I_terms ⊗ E) Theta: per
snapshot, 2K*n^2 for the diffusion, run on plain data, and 2K*n*s*d for the
GEMM.  Snapshot t reads t+1, never t-1, so no hop moves the carried
snapshot out of snapshot 0: only it pays full width, through the row-0
operators, and its term joins the layer norm's sum there.

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
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from .autodiff import ParamArray, Tape, Tensor
from .data import dataclass_from_json
from .errors import ArgumentError, ShapeError
from .graph import SensorGraph
from .stgraph import BlockDiffusion, StBlockGraph, build_hstg

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
    """Holds the static block graphs and every trainable array.

    Read-only during forward; concurrent forwards on separate tapes are
    safe.  Parameter updates require exclusive access.
    """

    def __init__(self, config: ModelConfig, graph: SensorGraph, seed: int = 0):
        self.config = config
        self.graph = graph
        self._blocks: dict[int, StBlockGraph] = {}
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

    A ``multi_channel_forward`` pass with s = 1, up to the layer norm, on
    separate parameters, which it stacks per call; the output has the
    input's shape.  X feeds the hops of both graphs; a family whose theta
    list is empty is a dropped term, and K is the longer list's length.
    """
    families = {name: g for name, g in _kept_families("full").items() if getattr(params, name)}
    k_hops = max(len(params.theta_nh), len(params.theta_h))
    z = ad.spmm_diff(tape, [getattr(block, graph) for graph in families.values()], x, k_hops)
    theta = ad.concat_features(
        tape, [getattr(params, name)[k] for k in range(k_hops) for name in families], axis=0)
    return ad.layer_norm(tape, x, ad.linear(tape, z, theta), params.ln_scale,
                         params.ln_shift, eps=ln_eps)


def multi_channel_forward(tape: Tape, model: IstdGcnModel, x: Tensor,
                          raw: np.ndarray | None = None, carry: Tensor | None = None,
                          theta_fold: Tensor | None = None) -> Tensor:
    """All channels over one (..., m, n, d) block, compressed and mixed to (..., n, d).

    Without ``raw`` the channel term is Z(X) Theta; with it, x must be
    ``carry`` (if any) then raw @ E, and the term is folded against
    ``theta_fold``, (I_terms ⊗ E) Theta (module docstring).
    """
    cfg, bank = model.config, model.bank
    block = model.block_graph(x.value.shape[-3])
    ops = [getattr(block, graph) for graph in _kept_families(cfg.ablation).values()]
    y0 = None
    if raw is None:
        y = ad.linear(tape, ad.spmm_diff(tape, ops, x, cfg.K), bank.theta)
    else:
        if carry is not None:
            raw = np.concatenate([np.zeros_like(raw[..., :1, :, :]), raw], axis=-3)
            row0 = [BlockDiffusion(op.spatial, op.inv_deg[:1], 0) for op in ops]
            y0 = ad.linear(tape, ad.spmm_diff(tape, row0, carry, cfg.K), bank.theta)
        y = ad.linear(tape, ad.diffuse(ops, raw, cfg.K), theta_fold)
    h = ad.layer_norm(tape, x, y, bank.ln_scale, bank.ln_shift, eps=cfg.ln_eps, y0=y0)
    return ad.linear(tape, ad.temporal_compress(tape, h, bank.compress_kernel), model.mix)


def encode(tape: Tape, model: IstdGcnModel, embedded: Tensor,
           window: np.ndarray | None = None) -> CompressedSnapshot:
    """Iteratively fold the (..., T, n, d) history into one (..., n, d) snapshot.

    Given the raw (..., T, n, 1) ``window`` that ``embedded`` embeds, passes fold E.
    """
    t_total = embedded.value.shape[-3]
    m = model.config.effective_m
    if t_total < m:
        raise ArgumentError(f"history length {t_total} shorter than block size {m}")
    theta_fold = (None if window is None
                  else ad.kron_linear(tape, model.input_embed, model.bank.theta))
    com, idx, iterations = None, 0, 0
    while idx < t_total:
        end = idx + (m if com is None else min(m - 1, t_total - idx))
        block = ad.slice_time(tape, embedded, idx, end, carry=com)
        raw = None if window is None else window[..., idx:end, :, :]
        com = multi_channel_forward(tape, model, block, raw, com, theta_fold)
        idx, iterations = end, iterations + 1
    return CompressedSnapshot(features=com, iterations=iterations)


def forward(tape: Tape, model: IstdGcnModel, window: np.ndarray) -> Tensor:
    """Full pass: embed the raw (..., T, n, 1) history, encode, decode.

    Returns predictions shaped (..., H, n, 1).
    """
    window = np.asarray(window, dtype=np.float64)
    cfg = model.config
    if window.ndim < 3 or window.shape[-3] != cfg.T or window.shape[-1] != 1:
        raise ShapeError(f"window shape {window.shape} does not match (T={cfg.T}, n, 1)")
    if window.shape[-2] != model.graph.n:
        raise ShapeError("window vertex count does not match the graph")
    embedded = ad.linear(tape, window, model.input_embed)
    com = encode(tape, model, embedded, window)
    return ad.mlp_decode(tape, com.features,
                         model.dec_w1, model.dec_b1, model.dec_w2, model.dec_b2, cfg.H)
