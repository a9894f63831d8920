"""The benchmark's workloads and the seeded generator of their on-disk inputs.

Every workload writes a data directory in the layout `snfuse.data`
documents (names.tsv, <stock>/prices.csv, news/<day>.emb). Prices are
stationary: each close is a fixed level moved by the previous day's news
signal plus noise, so the normalised targets have the same spread for
every seed and the quality figures stay comparable across seeds. Day t
carries one signal article (a marker direction plus the signed signal
direction); the other articles are unit-normal noise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

START_DATE = date(2021, 7, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "train": train() then evaluate(); "eval": evaluate() from a checkpoint
    n_stocks: int
    n_days: int
    dim: int
    articles: tuple[int, int]     # articles per day, drawn uniformly from [lo, hi]
    epochs: int = 1               # train workloads only; patience equals it
    cfg: dict = field(default_factory=dict)  # RunConfig overrides


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="signal_train",
            kind="train",
            n_stocks=2,
            n_days=200,
            dim=8,
            articles=(3, 3),
            epochs=2,
            cfg={"t_window": 8, "patch_len": 4, "patch_stride": 4, "pooling": "sap"},
        ),
        Workload(
            name="news_train",
            kind="train",
            n_stocks=2,
            n_days=300,
            dim=64,
            articles=(10, 30),
            epochs=1,
            cfg={"pooling": "sap"},
        ),
        Workload(
            name="news_eval",
            kind="eval",
            n_stocks=8,
            n_days=500,
            dim=64,
            articles=(10, 30),
            cfg={"pooling": "pasap", "snp": True},
        ),
    )
}


def run_config(w: Workload):
    """The RunConfig a workload trains or evaluates with; the model seed is fixed at 0."""
    from snfuse.config import RunConfig

    cfg = RunConfig(seed=0, batch_size=4, max_epochs=max(w.epochs, 1), patience=max(w.epochs, 1))
    for key, value in w.cfg.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def trading_dates(n: int) -> list[str]:
    out, day = [], START_DATE
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += timedelta(days=1)
    return out


def balanced_signals(rng: np.random.Generator, n_days: int) -> np.ndarray:
    """Signals in {-1, +1}; signals[t] moves close[t]. Each split gets as many
    ups as downs, so the normalised targets have mean 0 and variance 1 in
    every split whatever the seed."""
    from snfuse.data import split_indices

    signals = np.empty(n_days + 1)
    for _, lo, hi in split_indices(n_days).as_list():
        half = np.tile([-1.0, 1.0], (hi - lo + 1) // 2)[: hi - lo]
        signals[lo:hi] = rng.permutation(half)
    signals[n_days] = rng.choice([-1.0, 1.0])
    return signals


def generate(w: Workload, seed: int, root: Path) -> Path:
    """Write the workload's data directory for `seed` under `root` and return it.

    The stocks (names, price levels, how they react to news) and the news
    directions are fixed per workload; the seed draws the history: the
    daily signals, article counts, noise articles and price noise.
    """
    from snfuse.data import write_news_day

    tag = zlib.crc32(w.name.encode("utf-8"))
    fixed = np.random.default_rng(tag)
    rng = np.random.default_rng([seed, tag])
    d = w.dim
    marker = fixed.normal(size=d)
    marker /= np.linalg.norm(marker)
    sig_dir = fixed.normal(size=d)
    sig_dir -= marker * (marker @ sig_dir)
    sig_dir /= np.linalg.norm(sig_dir)
    stocks = [
        (f"s{k:02d}", fixed.choice([-1.0, 1.0]) * fixed.uniform(0.5, 1.0), fixed.uniform(20.0, 300.0),
         marker + fixed.normal(0.0, 0.5, size=d))
        for k in range(w.n_stocks)
    ]

    dates = trading_dates(w.n_days)
    signals = balanced_signals(rng, w.n_days)
    root.mkdir(parents=True, exist_ok=True)
    news_dir = root / "news"
    news_dir.mkdir(exist_ok=True)
    lo, hi = w.articles
    for t, day in enumerate(dates):
        n = int(rng.integers(lo, hi + 1))
        rows = rng.normal(size=(n, d))
        rows[0] = marker + signals[t + 1] * sig_dir + rng.normal(0.0, 0.05, size=d)
        write_news_day(news_dir / f"{day}.emb", rows[rng.permutation(n)])

    names = []
    for k, (sid, gain, level, emb) in enumerate(stocks):
        closes = level * np.exp(0.02 * (gain * signals[:-1] + 0.3 * rng.normal(size=w.n_days)))
        (root / sid).mkdir(exist_ok=True)
        lines = ["date,close"] + [f"{day},{close!r}" for day, close in zip(dates, closes.tolist())]
        (root / sid / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        names.append(f"{sid}\tStock {k}\t" + ",".join(repr(v) for v in emb.tolist()))
    (root / "names.tsv").write_text("\n".join(names) + "\n", encoding="utf-8")
    return root
