"""Collapse one day's news matrix into a single vector.

All variants run one kernel, `pool_day`: the attentive pooling of Lin et
al. (arXiv 1703.03130) with one attention hop, a softmax over per-row
logits and a weighted sum of the rows. Each row x is scored linearly,
query . x, not with Lin et al.'s w2' tanh(W1 x). The query is the
trainable vector w, or for cap the name embedding through a trainable
d x d map. ap ignores the name. The others use it as follows:

- cap puts the name into the query, so the name sets each article's logit;
- sap prepends the name as an extra row (a day without articles pools to
  it exactly), which competes only with the articles as a whole;
- pasap adds the name and sinusoidal position codes to every row, so the
  name shifts every logit by one constant, which the softmax cancels.

So only cap changes the relative weights of the articles by name.

ap/cap/sap treat the day's articles as an unordered set, so their rows are
put into a canonical (lexicographic) order before any arithmetic; that
makes the documented permutation invariance hold bit for bit, not just up
to rounding. pasap is position-sensitive and keeps file order. An
`OrderMemo` passed as `orders` sorts each day matrix once, however often
it is pooled.

On a tape, `pool_day` records one node (`tensor.attentive_pool`), and a
training step replays its backward once per day slot that uses the day
(`tensor.slot_rows`); without one, it serves stacked inference unchanged.

Every variant refuses a day with more than max_news_per_day articles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .tensor import Tensor, attentive_pool

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


def pool_day(
    variant: str,
    news: np.ndarray,
    name_emb: np.ndarray | None,
    w: Tensor,
    table: np.ndarray | None = None,
    max_news: int | None = None,
    orders: OrderMemo | None = None,
) -> PoolResult:
    """Pool (n, d) news rows with the variant's trainable tensor w; ap ignores name_emb.

    max_news defaults to the table length when a table is given, else no limit.
    """
    if variant not in PARAM:
        raise ValueError(f"unknown pooling variant '{variant}'")
    if variant == "pasap" and table is None:
        raise ValueError("pasap pooling needs a positional table")
    if max_news is None and table is not None:
        max_news = table.shape[0]
    n, d = news.shape
    if max_news is not None and n > max_news:
        raise DataFormatError(
            f"a day holds {n} articles, more than max_news_per_day = {max_news} "
            "(the length of pasap's positional table)"
        )
    if n == 0 and variant != "sap":
        return PoolResult(pooled=Tensor(np.zeros((1, d))), weights=None)

    if variant == "pasap":
        order = slice(None)
        rows = news + name_emb.reshape(1, d) + table[:n]
    else:
        order = (canonical_order if orders is None else orders)(news)
        rows = news[order]
    lead = 1 if variant == "sap" else 0
    if lead:
        rows = np.concatenate([name_emb.reshape(1, d), rows], axis=0)

    pooled, attn = attentive_pool(w, rows, name_emb if variant == "cap" else None)  # attn: (1, lead + n)

    sorted_weights = attn.reshape(-1)
    weights = np.empty(lead + n)
    weights[:lead] = sorted_weights[:lead]
    weights[lead:][order] = sorted_weights[lead:]
    return PoolResult(pooled=pooled, weights=weights)
