"""Collapse one day's news matrix into a single vector.

All variants run one kernel: the attentive pooling of Lin et
al. (arXiv 1703.03130) with one attention hop, a softmax over per-row
logits and a weighted sum of the rows. Each row x is scored linearly,
query . x, not with Lin et al.'s w2' tanh(W1 x). The query is the
trainable vector w, or for cap the name embedding through a trainable
d x d map. ap ignores the name. The others use it as follows:

- cap puts the name into the query, so the name sets each article's logit;
- sap prepends the name as an extra row (a day without articles pools to
  it exactly), which competes only with the articles as a whole;
- pasap adds the name and sinusoidal position codes to every row, so the
  name shifts every logit by one constant, which the softmax cancels. The
  codes are built once per call, as long as the call's longest day.

So only cap changes the relative weights of the articles by name.

ap/cap/sap treat the day's articles as an unordered set, so their rows are
put into a canonical (lexicographic) order before any arithmetic; that
makes the documented permutation invariance hold bit for bit, not just up
to rounding. pasap is position-sensitive and keeps file order. An
`OrderMemo` passed as `orders` sorts each day matrix once, however often
it is pooled.

A call pools many (day, stock) pairs at once (`pool_slots`): pairs with the
same number of rows are stacked as one (G, rows, d) array, and each product
of the chain is one np.matmul over that stack, so every pair gets the bits
it would get pooled on its own. The stacks are one per row count, not one
padded to the longest day: padding would move the bits. The result is one
taped node whose rows fill the day slots of W windows, and its backward runs
each slot's gradient row through the stacked chain and adds the slots'
contributions into w window by window, day by day, as one node per slot
would. The call keeps its stacks for that backward only when the node is
recorded; off a tape it holds one stack at a time. `pool_day` is that call
on one pair and one slot.

Every variant refuses a day with more than max_news articles (the model
passes max_news_per_day).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DataFormatError
from .tensor import Tensor, _node, _softmax_backward, _softmax_forward, as_tensor, recorded

VARIANTS = ("none", "ap", "cap", "sap", "pasap")

# variant -> id of its single trainable tensor
PARAM = {
    "ap": "pooling.ap.w",
    "cap": "pooling.cap.w_c",
    "sap": "pooling.sap.w_s",
    "pasap": "pooling.pasap.w_p",
}


@dataclass
class PoolResult:
    pooled: Tensor  # (1, d)
    weights: np.ndarray | None  # attention over input rows, original order (sap: name row first); None for no rows


def canonical_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first column primary)."""
    return np.lexsort(rows.T[::-1])


class OrderMemo:
    """canonical_order of each day matrix, computed once and keyed by identity.

    The memo holds every matrix it has sorted, so no id can be reused by a
    different array while it lives. Matrices must not be mutated after use.
    """

    def __init__(self):
        self._seen: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        hit = self._seen.get(id(rows))
        if hit is None:
            hit = self._seen[id(rows)] = (rows, canonical_order(rows))
        return hit[1]


def sinusoidal_table(max_len: int, dim: int) -> np.ndarray:
    """Classic fixed sin/cos position codes, one row per position."""
    table = np.zeros((max_len, dim))
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    even = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / dim)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles[:, : dim // 2])
    return table


def pool_slots(
    variant: str,
    pairs: Sequence[tuple[np.ndarray, np.ndarray | None]],
    index,
    w: Tensor,
    max_news: int | None = None,
    orders: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[Tensor, list[np.ndarray]]:
    """(news, name_emb) pairs pooled once each with w, slot s holding pair index[s], as one node.

    Returns the index.shape + (d,) slot rows, with w their only parent, and
    each row-count stack's (G, 1, rows) attention in stacked order (sap: name
    row first), in the order the counts first occur, pairs in pair order; a
    pair without rows is in none. orders sorts a day matrix, canonical_order
    by default. max_news=None means no limit. The row stacks the backward
    reads are kept only when the node is recorded (on a tape, with a w that
    requires a gradient); otherwise each is dropped once its pairs are pooled.
    """
    if variant not in PARAM:
        raise ValueError(f"unknown pooling variant '{variant}'")
    orders = canonical_order if orders is None else orders
    w = as_tensor(w)
    d = w.data.shape[0]
    lead = 1 if variant == "sap" else 0
    groups: dict[int, list[int]] = {}  # rows per pair -> the pairs with that many, in stack order
    for p, (news, _) in enumerate(pairs):
        n = news.shape[0]
        if max_news is not None and n > max_news:
            raise DataFormatError(f"a day holds {n} articles, more than max_news_per_day = {max_news}")
        if lead + n:  # a day without articles pools to zeros (sap: to its name row)
            groups.setdefault(lead + n, []).append(p)

    # pasap's codes: a row depends only on its position and d, so the call's longest day sets the length
    table = sinusoidal_table(max(groups, default=0), d) if variant == "pasap" else None
    pooled = np.zeros((len(pairs), d))
    keep = recorded(w)  # the backward's stacks
    stacks, softmax = [], []
    for count, members in groups.items():
        rows = np.empty((len(members), count, d))
        for j, p in enumerate(members):
            news, name = pairs[p]
            if variant == "pasap":
                rows[j] = news + name.reshape(1, d) + table[:count]
            else:
                rows[j, lead:] = news[orders(news)]
                if lead:
                    rows[j, 0] = name.reshape(d)
        names = np.stack([np.reshape(pairs[p][1], (1, d)) for p in members]) if variant == "cap" else None
        query = w.data.reshape(1, d) if names is None else np.matmul(names, w.data)
        y = _softmax_forward(np.matmul(query, rows.swapaxes(1, 2)), "pool_slots")
        pooled[members] = np.matmul(y, rows).reshape(-1, d)
        softmax.append(y)
        if keep:
            stacks.append((members, rows, names, y))
    flat = np.asarray(index, dtype=np.intp).reshape(-1)

    def bw(g):
        g = g.reshape(-1, d)
        group, at = np.full(len(pairs), -1), np.empty(len(pairs), dtype=np.intp)
        for k, (members, *_) in enumerate(stacks):
            group[members], at[members] = k, np.arange(len(members))
        slot_group = group[flat]
        pieces = np.empty((len(flat), *w.data.shape))  # each slot's contribution to w
        for k, (_, rows, names, y) in enumerate(stacks):
            slots = np.flatnonzero(slot_group == k)
            j = at[flat[slots]]
            r = rows[j]
            g_logits = _softmax_backward(np.matmul(g[slots].reshape(-1, 1, d), r.swapaxes(1, 2)), y[j])
            g_query = np.matmul(g_logits, r)
            pieces[slots] = (g_query.reshape(len(slots), d) if names is None
                             else np.matmul(names[j].swapaxes(1, 2), g_query))
        pieces = pieces[slot_group >= 0]  # added slot by slot, as one pool node per slot would: a running sum
        if len(pieces):
            w.grad = np.add.accumulate(pieces if w.grad is None else np.concatenate([w.grad[None], pieces]), 0)[-1]

    return _node(pooled[flat].reshape(*np.shape(index), d), (w,) if stacks else (), bw), softmax


def pool_day(variant: str, news: np.ndarray, name_emb: np.ndarray | None, w: Tensor,
             max_news: int | None = None) -> PoolResult:
    """Pool (n, d) news rows with the variant's trainable tensor w: pool_slots on one pair and one slot.

    ap ignores name_emb. max_news=None means no limit.
    """
    order = slice(None) if variant == "pasap" else canonical_order(news)
    pooled, softmax = pool_slots(variant, [(news, name_emb)], np.zeros(1, dtype=np.intp), w, max_news, lambda _: order)
    if not softmax:  # no rows
        return PoolResult(pooled=pooled, weights=None)
    lead = 1 if variant == "sap" else 0
    attn = softmax[0].reshape(-1)  # the one stack's one pair
    weights = attn.copy()
    weights[lead:][order] = attn[lead:]
    return PoolResult(pooled=pooled, weights=weights)
