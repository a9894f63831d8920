"""Collapse one day's news matrix into a single vector.

All variants run one kernel, `pool_day`: the self-attentive pooling of
Lin et al. (arXiv 1703.03130), a softmax over query . row logits and a
weighted sum of the rows. Three knobs tell them apart. The query is the
trainable vector w, or for cap the name embedding through a trainable
d x d map. sap prepends the name embedding as an extra row (so a day
without articles pools to it exactly). pasap adds the name embedding and
sinusoidal position codes to every row. ap uses the name in neither way.

ap/cap/sap treat the day's articles as an unordered set, so their rows are
put into a canonical (lexicographic) order before any arithmetic; that
makes the documented permutation invariance hold bit for bit, not just up
to rounding. pasap is position-sensitive and keeps file order. An
`OrderMemo` passed as `orders` sorts each day matrix once, however often
it is pooled.

On a tape, `pool_day` records one node (`tensor.attentive_pool`).

`pool_days` pools many days at once for inference: the same rows, in the
same order, concatenated, with one segmented softmax (the scatter-softmax
of Fey & Lenssen, arXiv 1903.02428) in place of a softmax per day.

Every variant refuses a day with more than max_news_per_day articles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .tensor import (
    Tensor,
    attentive_pool,
    gather_rows,
    matmul,
    mul,
    reshape,
    row_dot,
    segment_softmax,
    segment_sum,
)

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
    weights: np.ndarray | None  # attention over input rows, original order (sap: name row first)
    degenerate: bool = False


def canonical_order(rows: np.ndarray) -> np.ndarray:
    """Indices sorting rows lexicographically (first column primary)."""
    if rows.shape[0] <= 1:
        return np.arange(rows.shape[0])
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


def _check_news_count(n: int, max_news: int) -> None:
    """Refuse a day with more articles than max_news_per_day allows."""
    if n > max_news:
        raise DataFormatError(
            f"a day holds {n} articles, more than max_news_per_day = {max_news} "
            "(the length of pasap's positional table)"
        )


def _article_limit(variant: str, table: np.ndarray | None, max_news: int | None) -> int | None:
    """Validate the variant's arguments; the limit is max_news, else the table length, else none."""
    if variant not in PARAM:
        raise ValueError(f"unknown pooling variant '{variant}'")
    if variant == "pasap" and table is None:
        raise ValueError("pasap pooling needs a positional table")
    return table.shape[0] if max_news is None and table is not None else max_news


def _attended_rows(variant: str, news: np.ndarray, name_emb: np.ndarray | None, table, order) -> np.ndarray:
    """The rows a day's attention runs over: the articles in `order` (pasap: file
    order plus name and positions), led by the name row for sap."""
    d = news.shape[1]
    if variant == "pasap":
        rows = news + name_emb.reshape(1, d) + table[: news.shape[0]]
    else:
        rows = news[order]
    if variant == "sap":
        rows = np.concatenate([name_emb.reshape(1, d), rows], axis=0)
    return rows


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
    max_news = _article_limit(variant, table, max_news)
    n, d = news.shape
    if max_news is not None:
        _check_news_count(n, max_news)
    if n == 0 and variant != "sap":
        return PoolResult(pooled=Tensor(np.zeros((1, d))), weights=None, degenerate=True)

    sort = canonical_order if orders is None else orders
    order = slice(None) if variant == "pasap" else sort(news)
    rows = _attended_rows(variant, news, name_emb, table, order)
    lead = 1 if variant == "sap" else 0

    pooled, attn = attentive_pool(w, rows, name_emb if variant == "cap" else None)  # attn: (1, lead + n)

    sorted_weights = attn.reshape(-1)
    weights = np.empty(lead + n)
    weights[:lead] = sorted_weights[:lead]
    weights[lead:][order] = sorted_weights[lead:]
    return PoolResult(pooled=pooled, weights=weights)


def pool_days(
    variant: str,
    days: list[np.ndarray],
    names: list[np.ndarray],
    w: Tensor,
    table: np.ndarray | None = None,
    max_news: int | None = None,
    orders: OrderMemo | None = None,
) -> Tensor:
    """(len(days), d) rows: row i pools days[i] for the stock named names[i], as pool_day does.

    Forward only. Each day is sorted once however many stocks share it.
    """
    # Kept beside pool_day: pool_day over each distinct day slows stacked inference by 5-9%.
    max_news = _article_limit(variant, table, max_news)
    d = days[0].shape[1]
    if orders is None:
        orders = OrderMemo()
    parts: list[np.ndarray] = []
    for day, name in zip(days, names):
        if max_news is not None:
            _check_news_count(day.shape[0], max_news)
        order = slice(None) if variant == "pasap" else orders(day)
        parts.append(_attended_rows(variant, day, name, table, order))
    sizes = np.array([rows.shape[0] for rows in parts], dtype=np.intp)

    pooled = np.zeros((len(days), d))
    live = np.flatnonzero(sizes)  # ap/cap/pasap pool a day without articles to zeros
    if live.size:
        rows = Tensor(np.concatenate(parts))
        starts = np.concatenate([[0], np.cumsum(sizes[live])[:-1]])
        if variant == "cap":
            queries = matmul(Tensor(np.stack([names[i].reshape(d) for i in live])), w)
            queries = gather_rows(queries, np.repeat(np.arange(live.size), sizes[live]))
        else:
            queries = reshape(w, (1, d))
        attn = segment_softmax(row_dot(rows, queries), starts)
        pooled[live] = segment_sum(mul(attn, rows), starts).data
    return Tensor(pooled)
