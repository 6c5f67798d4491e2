"""Dense reference forward pass, written from the paper's equations.

It shares no arithmetic with the program: the block graphs come from
``stdiff.stgraph.build_hstg_adjacency`` / ``build_nhstg_adjacency`` (the
spec) as dense arrays, hop powers are dense matrix powers, and parameters
are looked up by their checkpoint names.  One convolution block on the
flattened (m*n, d) layout is

    LN( X + sum_k (P_nh^k X) Theta_nh_k + (P_h^k X) Theta_h_k )

per channel; each channel is then collapsed over time with its compression
kernel, the channels are concatenated and mixed, and the encoder folds the
history m snapshots at a time, carrying the compressed snapshot forward.
"""
from __future__ import annotations

import numpy as np

from stdiff import stgraph

# Largest |prediction - reference| allowed, relative to max(1, max |reference|).
# The two paths sum the same terms in a different order in double precision.
RTOL = 1e-9


def _transition(w: np.ndarray) -> np.ndarray:
    deg = w.sum(axis=1, keepdims=True)
    return np.where(deg > 0, w / np.where(deg > 0, deg, 1.0), 0.0)


def _block_operators(graph, m: int, hops: int) -> tuple[list, list]:
    p_nh = _transition(stgraph.build_nhstg_adjacency(graph, m).to_dense())
    p_h = _transition(stgraph.build_hstg_adjacency(graph, m).to_dense()) if m >= 2 else None
    pow_nh = [np.linalg.matrix_power(p_nh, k) for k in range(1, hops + 1)]
    pow_h = [np.linalg.matrix_power(p_h, k) for k in range(1, hops + 1)] if p_h is not None else []
    return pow_nh, pow_h


def reference_forward(params: dict, graph, cfg, window: np.ndarray) -> np.ndarray:
    """Normalized (T, n, d_in) window -> normalized (H, n, d_out) prediction."""
    n, d, s = graph.n, cfg.d, cfg.s
    ops = {}

    def block(xs: np.ndarray) -> np.ndarray:
        mb = xs.shape[0]
        if mb not in ops:
            ops[mb] = _block_operators(graph, mb, cfg.K)
        pow_nh, pow_h = ops[mb]
        x = xs.reshape(mb * n, d)
        parts = []
        for c in range(s):
            acc = x.copy()
            for k in range(cfg.K):
                acc = acc + (pow_nh[k] @ x) @ params[f"ch{c}.theta_nh{k + 1}"]
                if pow_h:
                    acc = acc + (pow_h[k] @ x) @ params[f"ch{c}.theta_h{k + 1}"]
            mu = acc.mean(axis=1, keepdims=True)
            var = ((acc - mu) ** 2).mean(axis=1, keepdims=True)
            h = (acc - mu) / np.sqrt(var + cfg.ln_eps) * params[f"ch{c}.ln_scale"] \
                + params[f"ch{c}.ln_shift"]
            kernel = params[f"ch{c}.compress"][:mb]
            parts.append((h.reshape(mb, n, d) * kernel[:, None, :]).sum(axis=0))
        return np.concatenate(parts, axis=1) @ params["mix"]

    x = window @ params["input_embed"]
    m = cfg.m
    com = block(x[:m])
    t = m
    while t < cfg.T:
        take = min(m - 1, cfg.T - t)
        com = block(np.concatenate([com[None], x[t:t + take]]))
        t += take
    hidden = np.maximum(com @ params["dec_w1"] + params["dec_b1"], 0.0)
    out = hidden @ params["dec_w2"] + params["dec_b2"]
    return out.reshape(n, cfg.H, cfg.d_out).transpose(1, 0, 2)


def max_rel_error(pred: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(pred - ref)) / max(1.0, float(np.max(np.abs(ref)))))
