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

    The products are read in order, so they may come from an iterator.
    """
    out = None
    for k, product in enumerate(products):
        out = product if out is None else add(out, shift_rows(product, k))
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
