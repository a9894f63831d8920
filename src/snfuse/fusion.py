"""Fuse the pooled-news sequence with the price-embedding sequence.

Three fused views (bidirectional cross-attention plus a per-day graph
convolution followed by a causal convolution) are blended with the two
dense-layer outputs through a softmax over learnable logits. Ablation
flags drop individual views; the softmax renormalizes over whatever stays
active.

The attention, graph and convolution functions take `windows`: their
rows are that many equal windows stacked one after another, and every
window is fused on its own. The training step passes one window; stacked
inference passes many, without a tape.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import (
    Tensor,
    add,
    attention,
    block_matmul,
    concat_cols,
    concat_rows,
    linear,
    matmul,
    mul,
    relu,
    shift_rows,
    slice_cols,
    slice_rows,
    softmax_rows,
)

# Canonical blend-term order; ablation selects a subset.
BLEND_TERMS = ("news", "price", "p2n", "n2p", "gcn")
DIRECTIONS = ("p2n", "n2p")
CONV_TAPS = 5


def cross_attention(
    q_seq: Tensor,
    k_seq: Tensor,
    v_seq: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    windows: int = 1,
) -> Tensor:
    """softmax(QK'/sqrt(d)) V after separate projection matrices per input.

    Projections are bias-free: a key bias shifts every logit in a row by
    the same amount, which softmax ignores, so such a parameter could never
    receive a gradient.
    """
    if k_seq.shape[0] != v_seq.shape[0]:
        raise DimensionError(
            f"key and value sequences must share length, got {k_seq.shape[0]} and {v_seq.shape[0]}"
        )
    q = matmul(q_seq, wq)
    k = matmul(k_seq, wk)
    v = matmul(v_seq, wv)
    return attention(q, k, v, 1, split=False, windows=windows)


def fuse_directions(
    news_seq: Tensor, price_seq: Tensor, params, directions: list[str], windows: int = 1
) -> dict[str, Tensor]:
    """Price-queries-news (p2n) and news-queries-price (n2p), each with its own projections.

    Only the named directions are built, so only their weights are read.
    """
    if news_seq.shape[0] != price_seq.shape[0]:
        raise DimensionError(
            f"news and price sequences must share length, got {news_seq.shape[0]} and {price_seq.shape[0]}"
        )
    query_and_keys = {"p2n": (price_seq, news_seq), "n2p": (news_seq, price_seq)}
    out = {}
    for name in directions:
        q_seq, kv_seq = query_and_keys[name]
        proj = [params[f"fusion.{name}.w{letter}"] for letter in "qkv"]
        out[name] = cross_attention(q_seq, kv_seq, kv_seq, *proj, windows)
    return out


def day_pair_adjacency(t_window: int, cross_edges: bool = True) -> np.ndarray:
    """Symmetric-normalized adjacency over 2T nodes (news_1..T, price_1..T).

    One undirected edge links each day's news node to its price node; every
    node has a self-loop. D^{-1/2}(A+I)D^{-1/2} with D the degree of A+I.
    """
    n = 2 * t_window
    a = np.eye(n)
    if cross_edges:
        for t in range(t_window):
            a[t, t_window + t] = 1.0
            a[t_window + t, t] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def causal_conv(h: Tensor, taps: list[Tensor], windows: int = 1) -> Tensor:
    """Left-padded temporal convolution: out[t] = sum_k h[t-k] @ taps[k]."""
    out = matmul(h, taps[0])
    for k in range(1, len(taps)):
        out = add(out, matmul(shift_rows(h, k, windows), taps[k]))
    return out


def gcn_fuse(news_seq: Tensor, price_seq: Tensor, params, adjacency: np.ndarray, windows: int = 1) -> Tensor:
    """One graph-conv layer over stacked [news; price] nodes, ReLU, then the
    causal convolution over the price-node rows.

    Stacked windows compute only the price-node rows, the ones the conv reads.
    """
    w, b = params["fusion.gcn.w"], params["fusion.gcn.b"]
    t_len = news_seq.shape[0] // windows
    # Two forms. On a tape, the price rows alone change the step's bits: news_train seed 40's
    # best_val_mse moved 59%, far past perfbench's 1e-5 gate. All 2T rows slow inference ~12%.
    if windows > 1:
        mixed = add(block_matmul(adjacency[t_len:, :t_len], news_seq, windows),
                    block_matmul(adjacency[t_len:, t_len:], price_seq, windows))
        price_rows = relu(linear(mixed, w, b))
    else:
        stacked = concat_rows([news_seq, price_seq])
        hidden = relu(linear(matmul(Tensor(adjacency), stacked), w, b))
        price_rows = slice_rows(hidden, t_len, 2 * t_len)
    taps = [params[f"fusion.conv.tap{k}"] for k in range(CONV_TAPS)]
    return causal_conv(price_rows, taps, windows)


def blend(terms: dict[str, Tensor], logits: Tensor, active: list[str]) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum over the active terms only.

    logits is the full (1, 5) vector in BLEND_TERMS order; inactive entries
    are excluded from both the softmax and the sum.
    """
    if not active:
        raise ValueError("no active blend terms; nothing to predict from")
    if tuple(active) == BLEND_TERMS:
        picked = logits
    else:
        picked = concat_cols([slice_cols(logits, i, i + 1) for i in map(BLEND_TERMS.index, active)])
    weights = softmax_rows(picked)  # (1, k)
    out = None
    for col, name in enumerate(active):
        piece = mul(slice_cols(weights, col, col + 1), terms[name])
        out = piece if out is None else add(out, piece)
    return out, weights.data.reshape(-1).copy()
