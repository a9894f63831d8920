"""Fuse the pooled-news sequence with the price-embedding sequence.

Three fused views (bidirectional cross-attention plus a per-day graph
convolution followed by a causal convolution) are blended with the two
dense-layer outputs through a softmax over learnable logits. Ablation
flags drop individual views; the softmax renormalizes over whatever stays
active.

Fusion runs in two parts. The row-by-row part (`fuse_directions`'
projections, `gcn_fuse`'s GCN rows times each conv tap) runs on a
(P, T, d) stack of rows; `gather_terms` gathers each window's rows from it
for the parts where a window's rows meet (the attention cores, the conv's
shifted sum). On a tape the stack is the windows and the gather the
identity; off one the stack holds each distinct row once. With OpenBLAS
0.3.31 a row gets the same bits in any product of the same number of rows,
2 or more, so both give the same bits (a 1-row product takes another path,
which T = 1 takes both ways); `tests/test_model.py` pins this.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DimensionError
from .tensor import (
    Tensor,
    _accumulate,
    _fold,
    _node,
    _softmax_backward,
    _softmax_forward,
    _unbroadcast,
    attention,
    block_matmul,
    concat,
    grad_enabled,
    linear,
    matmul,
    relu,
)

# Canonical blend-term order; ablation selects a subset.
BLEND_TERMS = ("news", "price", "p2n", "n2p", "gcn")
DIRECTIONS = ("p2n", "n2p")
CONV_TAPS = 5


def _same_stack(news_seq: Tensor, price_seq: Tensor) -> None:
    if news_seq.shape[:-1] != price_seq.shape[:-1]:
        raise DimensionError(
            f"news and price stacks must share window count and length, got {news_seq.shape} and {price_seq.shape}"
        )


def fuse_directions(news_seq: Tensor, price_seq: Tensor, params, directions: list[str]) -> dict[str, list[Tensor]]:
    """Per named direction, the row-by-row part of its cross-attention: the query, key and value
    projections, prices querying news in p2n and news querying prices in n2p.

    The projections are bias-free: a key bias shifts every logit in a row
    by the same amount, which softmax ignores, so it would get no gradient.
    """
    _same_stack(news_seq, price_seq)
    out = {}
    for name in directions:
        query, keys = (price_seq, news_seq) if name == "p2n" else (news_seq, price_seq)
        out[name] = [matmul(x, params[f"fusion.{name}.w{letter}"]) for x, letter in zip((query, keys, keys), "qkv")]
    return out


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


def shifted_sum(products: Iterable[Tensor]) -> Tensor:
    """The causal convolution from each tap's product with the unshifted rows: out[t] = sum_k products[k][t-k].

    One node matching the chain that adds, to the sum so far, product k
    moved k rows later with k zero rows on top; one product is returned as
    it is. The products are read in order, so they may come from an
    iterator, and off a tape each is dropped once it is added.
    """
    products = iter(products)
    first = next(products)
    out, length, taped, k = first.data, first.shape[-2], [first], 0
    for k, product in enumerate(products, 1):
        out = out + _moved(product.data, min(k, length))
        if grad_enabled():
            taped.append(product)
    if k == 0:
        return first

    def bw(g):
        for k, product in enumerate(taped):
            if product.requires_grad:
                _accumulate(product, _moved(g, -min(k, length)) if k else g)

    return _node(out, taped, bw)


def _moved(x: np.ndarray, k: int) -> np.ndarray:
    """Each window's rows moved k places later (k < 0: -k earlier), zeros where no row moves in."""
    out, n = np.zeros(x.shape), x.shape[-2]
    out[..., max(k, 0) : n + min(k, 0), :] = x[..., max(-k, 0) : n - max(k, 0), :]
    return out


def gcn_fuse(news_seq: Tensor, price_seq: Tensor, params, adjacency: np.ndarray) -> list[Tensor]:
    """The row-by-row part of one graph-conv layer over stacked [news; price] nodes, ReLU, then
    the causal convolution over the price-node rows: those rows times each conv tap.

    Only the price-node rows, the ones the conv reads, are computed: the
    last T rows of the (2T x 2T) adjacency times all 2T nodes, so every
    product still sums over all 2T nodes and each row gets the bits of the
    full layer's row. Day t's row reads only day t's news and price rows.
    """
    _same_stack(news_seq, price_seq)
    t_len = news_seq.shape[-2]
    mixed = block_matmul(adjacency[t_len:], concat([news_seq, price_seq], -2))
    hidden = relu(linear(mixed, params["fusion.gcn.w"], params["fusion.gcn.b"]))
    return [matmul(hidden, params[f"fusion.conv.tap{k}"]) for k in range(CONV_TAPS)]


def gather_terms(rows: dict[str, list[Tensor]], at) -> dict[str, Tensor]:
    """The (W, T, d) blend terms of the windows whose rows at gathers from the (P, T, d) row-by-row
    parts of each term: price and news as they are, each direction's projections, the GCN's tap products."""
    return {name: attention(*map(at, parts), 1, split=False) if name in DIRECTIONS
            else shifted_sum(map(at, parts))  # one part, or the conv's tap products
            for name, parts in rows.items()}


def blend(terms: dict[str, Tensor], logits: Tensor, active: list[str]) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum over the active (W, T, d) terms only.

    logits is the full (1, 5) vector in BLEND_TERMS order; inactive entries
    are excluded from both the softmax and the sum. One node matching the
    chain repeat_windows -> cut/concat -> softmax_rows -> cut -> mul -> add,
    so the logits' gradient comes per window and is folded.
    """
    if not active:
        raise ValueError("no active blend terms; nothing to predict from")
    picked = [BLEND_TERMS.index(name) for name in active]
    parts = [terms[name] for name in active]
    weights = _softmax_forward(logits.data[..., picked].reshape(1, 1, -1), "softmax_rows")  # (1, 1, k)
    out = None
    for col, part in enumerate(parts):
        piece = weights[..., col : col + 1] * part.data
        out = piece if out is None else out + piece

    def bw(g):
        for col, part in enumerate(parts):
            if part.requires_grad:
                _accumulate(part, g * weights[..., col : col + 1])
        if logits.requires_grad:  # one copy of the logits per window, folded
            g_weights = np.concatenate([_unbroadcast(g * part.data, (len(g), 1, 1)) for part in parts], axis=-1)
            rows = np.zeros((len(g), 1, len(BLEND_TERMS)))
            rows[..., picked] = _softmax_backward(g_weights, weights)
            _accumulate(logits, _fold(rows))

    return _node(out, (logits, *parts), bw), weights[0, 0].copy()
