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
to rounding. pasap is position-sensitive and keeps file order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, matmul, reshape, softmax_rows

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
) -> PoolResult:
    """Pool (n, d) news rows with the variant's trainable tensor w; ap ignores name_emb."""
    if variant not in PARAM:
        raise ValueError(f"unknown pooling variant '{variant}'")
    if variant == "pasap" and table is None:
        raise ValueError("pasap pooling needs a positional table")
    n, d = news.shape
    if n == 0 and variant != "sap":
        return PoolResult(pooled=Tensor(np.zeros((1, d))), weights=None, degenerate=True)

    if variant == "pasap":
        if n > table.shape[0]:
            raise ValueError(f"{n} articles exceed the positional table length {table.shape[0]}")
        order = slice(None)
        rows = news + name_emb.reshape(1, d) + table[:n]
    else:
        order = canonical_order(news)
        rows = news[order]
    lead = 1 if variant == "sap" else 0
    if lead:
        rows = np.concatenate([name_emb.reshape(1, d), rows], axis=0)

    query = matmul(Tensor(name_emb.reshape(1, d)), w) if variant == "cap" else reshape(w, (1, d))
    attn = softmax_rows(matmul(query, Tensor(rows.T)))  # (1, lead + n)
    pooled = matmul(attn, Tensor(rows))

    sorted_weights = attn.data.reshape(-1)
    weights = np.empty(lead + n)
    weights[:lead] = sorted_weights[:lead]
    weights[lead:][order] = sorted_weights[lead:]
    return PoolResult(pooled=pooled, weights=weights)
