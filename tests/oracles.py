"""Independent scalar-loop oracles, two taped ops and an Adam loop that only the tests use.

The oracles are pure Python over nested lists (math.exp, explicit loops),
deliberately sharing no code with the package so the two routes can
disagree. Used to freeze expected values for the equation tests.

`scale` and `sum_all` are tape ops in the package's form: the primitive
chains that the fused ops must match bit for bit multiply by a constant,
and the gradient tests reduce an output to a scalar loss.

`adam_per_tensor` is Adam's update as a loop over the trainable tensors,
each moment its own array; the flat update must match it bit for bit.

`news_per_file` is the news path `prepare_dataset` took file by file; its
one-block path must match it bit for bit.

`load_prices_per_row` is `load_prices` as one loop over the rows, each
checked in turn; the column-at-a-time loader must return what it returns,
or refuse with the same message.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import date
from pathlib import Path

import numpy as np

from snfuse.data import Scaler, load_news_day
from snfuse.errors import DataFormatError, read_utf8
from snfuse.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from snfuse.tensor import Tensor, _accumulate, _node, as_tensor


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _node(a.data * c, (a,), bw)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(g)))

    return _node(np.asarray(a.data.sum()), (a,), bw)


def adam_per_tensor(params, grads, m, v, step: int, lr: float) -> None:
    """Adam's update number step (from 1) of every tensor grads names, in id order: the moments in m and
    v and the parameters are each replaced by a new array."""
    bc1 = 1.0 - ADAM_BETA1 ** step
    bc2 = 1.0 - ADAM_BETA2 ** step
    for pid in sorted(grads):
        g = grads[pid]
        m[pid] = ADAM_BETA1 * m[pid] + (1.0 - ADAM_BETA1) * g
        v[pid] = ADAM_BETA2 * v[pid] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m[pid] / bc1
        v_hat = v[pid] / bc2
        p = params[pid]
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def news_per_file(root: Path, dates: list[str], dim: int, train_hi: int):
    """(per-day scaled news, news scaler, missing days, [(news/<day>.emb, sha256)]) of data directory root,
    read file by file: load_news_day on each day's file that exists (a missing one a (0, dim) day), the
    scaler numpy's mean and std of the training days' articles joined, then Scaler.transform day by day."""
    raw, missing, hashes = [], 0, []
    for day in dates:
        path = root / "news" / f"{day}.emb"
        if path.exists():
            rows, digest = load_news_day(path)
            raw.append(rows)
            hashes.append((f"news/{day}.emb", digest))
        else:
            missing += 1
            raw.append(np.zeros((0, dim)))
    train = [m for m in raw[:train_hi] if m.shape[0] > 0]
    if train:
        joined = np.concatenate(train, axis=0)
        scaler = Scaler(joined.mean(axis=0), joined.std(axis=0))
    else:
        scaler = Scaler(np.zeros(dim), np.ones(dim))
    return [scaler.transform(m) if m.shape[0] else m for m in raw], scaler, missing, hashes


def load_prices_per_row(path: str | Path) -> tuple[list[str], np.ndarray, str]:
    """The file's YYYY-MM-DD dates and closes, and the sha256 of its bytes, checked row by row."""
    path = Path(path)
    text, digest = read_utf8(path, newline="")
    dates: list[str] = []
    closes: list[float] = []
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["date", "close"]:
        raise DataFormatError(f"{path}: expected header 'date,close', got {header}")
    prev: date | None = None
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            day = date.fromisoformat(row[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad date '{row[0]}': {exc}") from exc
        if day.isoformat() != row[0]:
            raise DataFormatError(f"{path}:{lineno}: bad date '{row[0]}': not in YYYY-MM-DD form")
        if prev is not None:
            if day == prev:
                raise DataFormatError(f"{path}:{lineno}: duplicate date {row[0]}")
            if day < prev:
                raise DataFormatError(f"{path}:{lineno}: dates not increasing at {row[0]}")
        prev = day
        try:
            close = float(row[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad close '{row[1]}'") from exc
        if not math.isfinite(close) or close <= 0.0:
            raise DataFormatError(f"{path}:{lineno}: close must be finite and positive, got {row[1]}")
        dates.append(row[0])
        closes.append(close)
    return dates, np.asarray(closes, dtype=np.float64), digest


def softmax_vec(logits):
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    total = sum(exps)
    return [e / total for e in exps]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_vec(m, v):
    return [dot(row, v) for row in m]


def weighted_rows(weights, rows):
    d = len(rows[0])
    out = [0.0] * d
    for w, row in zip(weights, rows):
        for j in range(d):
            out[j] += w * row[j]
    return out


def pool_ap_oracle(news, w):
    logits = [dot(w, row) for row in news]
    return weighted_rows(softmax_vec(logits), news)


def pool_cap_oracle(news, name_emb, w_c):
    # query = e W_c, logits = query . row
    d = len(name_emb)
    query = [sum(name_emb[i] * w_c[i][j] for i in range(d)) for j in range(d)]
    logits = [dot(query, row) for row in news]
    return weighted_rows(softmax_vec(logits), news)


def pool_sap_oracle(news, name_emb, w_s):
    rows = [list(name_emb)] + [list(r) for r in news]
    logits = [dot(w_s, row) for row in rows]
    return weighted_rows(softmax_vec(logits), rows)


def sinusoid_oracle(pos, j, d):
    if j % 2 == 0:
        return math.sin(pos / (10000.0 ** (j / d)))
    return math.cos(pos / (10000.0 ** ((j - 1) / d)))


def pool_pasap_oracle(news, name_emb, w_p):
    d = len(name_emb)
    rows = []
    for pos, row in enumerate(news):
        rows.append([row[j] + name_emb[j] + sinusoid_oracle(pos, j, d) for j in range(d)])
    logits = [dot(w_p, row) for row in rows]
    return weighted_rows(softmax_vec(logits), rows)


def linear_oracle(x_rows, w, b):
    n_out = len(w[0])
    out = []
    for row in x_rows:
        out.append([dot(row, [w[i][j] for i in range(len(row))]) + b[j] for j in range(n_out)])
    return out


def scaled_attention_oracle(q_rows, k_rows, v_rows, denom):
    out = []
    for q in q_rows:
        logits = [dot(q, k) / denom for k in k_rows]
        out.append(weighted_rows(softmax_vec(logits), v_rows))
    return out


def cross_attention_oracle(q_in, kv_in, wq, wk, wv):
    """Full op: bias-free per-input projections then softmax(QK'/sqrt(d))V."""
    zeros = [0.0] * len(wq[0])
    q = linear_oracle(q_in, wq, zeros)
    k = linear_oracle(kv_in, wk, zeros)
    v = linear_oracle(kv_in, wv, zeros)
    d = len(q[0])
    return scaled_attention_oracle(q, k, v, math.sqrt(d))
