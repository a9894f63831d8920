"""Fuse the pooled-news sequence with the price-embedding sequence.

Three fused views (bidirectional cross-attention plus a per-day graph
convolution followed by a causal convolution) are blended with the two
dense-layer outputs through a softmax over learnable logits. Ablation
flags drop individual views; the softmax renormalizes over whatever stays
active.

Every sequence is a (W, T, d) stack of W windows, and each window is
fused on its own, by the same arithmetic on a tape and off one. Off a tape
the model splits that arithmetic in two, and shares the first part
between the windows that hold the same row: `shared_rows` runs the
layers that read one row at a time on (P, T, d) pseudo-windows of
distinct rows, and `gather_terms` gathers each window's rows from them
for the parts where a window's rows meet (the attention cores, the conv's
shifted taps) and the blend. With OpenBLAS 0.3.31 a row gets the same bits
in any product of the same number of rows, 2 or more, so the windows get
the bits of the unsplit arithmetic (a 1-row product takes another path,
which T = 1 takes both ways); `tests/test_model.py` pins this.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DimensionError
from .tensor import (
    Tensor,
    add,
    attention,
    block_matmul,
    concat,
    cut,
    linear,
    matmul,
    mul,
    relu,
    repeat_windows,
    shift_rows,
    softmax_rows,
)

# Canonical blend-term order; ablation selects a subset.
BLEND_TERMS = ("news", "price", "p2n", "n2p", "gcn")
DIRECTIONS = ("p2n", "n2p")
CONV_TAPS = 5


def cross_attention(q_seq: Tensor, k_seq: Tensor, v_seq: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """softmax(QK'/sqrt(d)) V after separate projection matrices per input.

    Projections are bias-free: a key bias shifts every logit in a row by
    the same amount, which softmax ignores, so such a parameter could never
    receive a gradient.
    """
    if k_seq.shape[:-1] != v_seq.shape[:-1] or q_seq.shape[:-2] != k_seq.shape[:-2]:
        raise DimensionError(
            "queries, keys and values must hold as many windows, and keys and values share length; "
            f"got {q_seq.shape}, {k_seq.shape} and {v_seq.shape}"
        )
    q = matmul(q_seq, wq)
    k = matmul(k_seq, wk)
    v = matmul(v_seq, wv)
    return attention(q, k, v, 1, split=False)


def _same_stack(news_seq: Tensor, price_seq: Tensor) -> None:
    if news_seq.shape[:-1] != price_seq.shape[:-1]:
        raise DimensionError(
            f"news and price stacks must share window count and length, got {news_seq.shape} and {price_seq.shape}"
        )


def _query_and_keys(name: str, news_seq: Tensor, price_seq: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """The (query, key, value) sequences of direction name: prices query news in p2n, news queries prices in n2p."""
    return (price_seq, news_seq, news_seq) if name == "p2n" else (news_seq, price_seq, price_seq)


def fuse_directions(news_seq: Tensor, price_seq: Tensor, params, directions: list[str]) -> dict[str, Tensor]:
    """Price-queries-news (p2n) and news-queries-price (n2p), each with its own projections.

    Only the named directions are built, so only their weights are read.
    """
    _same_stack(news_seq, price_seq)
    return {name: cross_attention(*_query_and_keys(name, news_seq, price_seq),
                                  *(params[f"fusion.{name}.w{letter}"] for letter in "qkv"))
            for name in directions}


def day_pair_adjacency(t_window: int) -> np.ndarray:
    """Symmetric-normalized adjacency over 2T nodes (news_1..T, price_1..T).

    One undirected edge links each day's news node to its price node; every
    node has a self-loop. D^{-1/2}(A+I)D^{-1/2} with D the degree of A+I.
    """
    n = 2 * t_window
    a = np.eye(n)
    for t in range(t_window):
        a[t, t_window + t] = 1.0
        a[t_window + t, t] = 1.0
    deg = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def causal_conv(h: Tensor, taps: list[Tensor]) -> Tensor:
    """Left-padded temporal convolution: out[t] = sum_k h[t-k] @ taps[k]."""
    out = matmul(h, taps[0])
    for k in range(1, len(taps)):
        out = add(out, matmul(shift_rows(h, k), taps[k]))
    return out


def shifted_sum(products: Iterable[Tensor]) -> Tensor:
    """causal_conv from each tap's product with the unshifted rows: out[t] = sum_k products[k][t-k].

    Off a tape it equals causal_conv bit for bit: a product's rows do not
    depend on the other rows, and a zero row's product is +0. The products
    are read in order, so they may come from an iterator.
    """
    out = None
    for k, product in enumerate(products):
        out = product if out is None else add(out, shift_rows(product, k))
    return out


def _gcn_rows(news_seq: Tensor, price_seq: Tensor, params, adjacency: np.ndarray) -> Tensor:
    t_len = news_seq.shape[-2]
    mixed = block_matmul(adjacency[t_len:], concat([news_seq, price_seq], -2))
    return relu(linear(mixed, params["fusion.gcn.w"], params["fusion.gcn.b"]))


def _taps(params) -> list[Tensor]:
    return [params[f"fusion.conv.tap{k}"] for k in range(CONV_TAPS)]


def gcn_fuse(news_seq: Tensor, price_seq: Tensor, params, adjacency: np.ndarray) -> Tensor:
    """One graph-conv layer over stacked [news; price] nodes, ReLU, then the
    causal convolution over the price-node rows.

    Only the price-node rows, the ones the conv reads, are computed: the
    last T rows of the (2T x 2T) adjacency times all 2T nodes, so every
    product still sums over all 2T nodes and each row gets the bits of the
    full layer's row. Day t's row reads only day t's news and price rows.
    """
    _same_stack(news_seq, price_seq)
    return causal_conv(_gcn_rows(news_seq, price_seq, params, adjacency), _taps(params))


def shared_rows(news_seq: Tensor | None, price_seq: Tensor, params, directions: list[str],
                adjacency: np.ndarray | None) -> dict[str, list[Tensor]]:
    """The row-by-row part of the fusion of (P, T, d) pseudo-windows of distinct rows, off a tape.

    Per blend term, the rows gather_terms reads: price and news as they are
    (no news: price only), each named direction's query, key and value
    projections, and with an adjacency the GCN's price-node rows through
    each conv tap.
    """
    if news_seq is None:
        return {"price": [price_seq]}
    _same_stack(news_seq, price_seq)
    rows = {"price": [price_seq], "news": [news_seq]}
    for name in directions:
        seqs = _query_and_keys(name, news_seq, price_seq)
        rows[name] = [matmul(x, params[f"fusion.{name}.w{letter}"]) for x, letter in zip(seqs, "qkv")]
    if adjacency is not None:
        hidden = _gcn_rows(news_seq, price_seq, params, adjacency)
        rows["gcn"] = [matmul(hidden, tap) for tap in _taps(params)]
    return rows


def gather_terms(rows: dict[str, list[Tensor]], at) -> dict[str, Tensor]:
    """The (W, T, d) blend terms of the windows whose rows at gathers from shared_rows' stacks."""
    return {name: attention(*map(at, parts), 1, split=False) if name in DIRECTIONS
            else shifted_sum(map(at, parts))  # one part, or the conv's tap products
            for name, parts in rows.items()}


def blend(terms: dict[str, Tensor], logits: Tensor, active: list[str]) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum over the active (W, T, d) terms only.

    logits is the full (1, 5) vector in BLEND_TERMS order; inactive entries
    are excluded from both the softmax and the sum. On a tape each window
    weighs its terms with its own copy of the logits, so their gradient
    comes per window; off one, every window shares one copy.
    """
    if not active:
        raise ValueError("no active blend terms; nothing to predict from")
    rows = repeat_windows(logits, terms[active[0]].shape[0])
    if tuple(active) == BLEND_TERMS:
        picked = rows
    else:
        picked = concat([cut(rows, i, i + 1, -1) for i in map(BLEND_TERMS.index, active)], -1)
    weights = softmax_rows(picked)  # (W, 1, k)
    out = None
    for col, name in enumerate(active):
        piece = mul(cut(weights, col, col + 1, -1), terms[name])
        out = piece if out is None else add(out, piece)
    return out, weights.data[0, 0].copy()
