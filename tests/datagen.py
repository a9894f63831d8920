"""Synthetic fixture writers and in-memory dataset builders for the tests."""

from __future__ import annotations

import struct
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from snfuse.data import assemble_dataset, write_news_day
from snfuse.training import CHECKPOINT_MAGIC


def trading_dates(n: int, start: date = date(2021, 7, 1)) -> list[str]:
    """n consecutive weekdays as ISO strings."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += timedelta(days=1)
    return out


def write_prices(path: Path, dates: list[str], closes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["date,close"] + [f"{d},{float(c)}" for d, c in zip(dates, closes)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_names(path: Path, contexts: list[tuple[str, str, np.ndarray]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for sid, display, emb in contexts:
        emb_text = ",".join(repr(float(v)) for v in np.asarray(emb).reshape(-1))
        lines.append(f"{sid}\t{display}\t{emb_text}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def checkpoint_bytes(tensors, cfg_digest: bytes = b"cfg-digest", manifest_digest: bytes = b"manifest-digest") -> bytes:
    """A checkpoint file holding (name, array) tensors under the given raw header strings."""
    out = bytearray(CHECKPOINT_MAGIC)
    for raw in (cfg_digest, manifest_digest):
        out += struct.pack("<I", len(raw)) + raw
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        out += struct.pack("<I", len(raw)) + raw
        out += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    return bytes(out)


def write_dataset_dir(
    root: Path,
    dates: list[str],
    closes_by_stock: dict[str, np.ndarray],
    embeddings_by_stock: dict[str, np.ndarray],
    news_by_day: list[np.ndarray] | None,
) -> None:
    """Materialize the on-disk layout: names.tsv, <stock>/prices.csv, news/*.emb."""
    root.mkdir(parents=True, exist_ok=True)
    write_names(
        root / "names.tsv",
        [(sid, sid.capitalize(), embeddings_by_stock[sid]) for sid in sorted(closes_by_stock)],
    )
    for sid, closes in closes_by_stock.items():
        write_prices(root / sid / "prices.csv", dates, closes)
    if news_by_day is not None:
        news_dir = root / "news"
        news_dir.mkdir(exist_ok=True)
        for day, matrix in zip(dates, news_by_day):
            write_news_day(news_dir / f"{day}.emb", matrix)


def random_news(rng: np.random.Generator, n_days: int, dim: int, max_articles: int = 3) -> list[np.ndarray]:
    return [rng.normal(size=(int(rng.integers(0, max_articles + 1)), dim)) for _ in range(n_days)]


def random_walk_closes(rng: np.random.Generator, n_days: int, base: float = 100.0) -> np.ndarray:
    steps = rng.normal(0.0, 0.01, size=n_days - 1)
    return base * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def toy_dataset_dir(root: Path, n_days: int = 100, dim: int = 6, stocks=("alpha", "beta"), seed: int = 7,
                    with_news: bool = True) -> Path:
    """Small random two-stock dataset on disk; pairs with T=8-ish configs."""
    rng = np.random.default_rng(seed)
    dates = trading_dates(n_days)
    closes = {sid: random_walk_closes(rng, n_days, base=50.0 + 40.0 * i) for i, sid in enumerate(stocks)}
    embs = {sid: rng.normal(size=dim) for sid in stocks}
    news = random_news(rng, n_days, dim) if with_news else None
    write_dataset_dir(root, dates, closes, embs, news)
    return root


def inmemory_dataset(
    closes_by_stock: dict[str, np.ndarray],
    news_by_day: list[np.ndarray],
    embeddings_by_stock: dict[str, np.ndarray],
    t_window: int,
    horizon: int,
):
    """PreparedDataset straight from arrays (no files); the news is copied, never scaled in place."""
    closes = {sid: np.asarray(c, dtype=np.float64) for sid, c in closes_by_stock.items()}
    names = {sid: np.asarray(emb, dtype=np.float64) for sid, emb in embeddings_by_stock.items()}
    news = np.concatenate(news_by_day, axis=0, dtype=np.float64)
    return assemble_dataset(trading_dates(len(news_by_day)), closes, news, [m.shape[0] for m in news_by_day], names,
                            t_window, horizon)


def signal_dataset(
    n_days: int = 200,
    dim: int = 8,
    t_window: int = 8,
    horizon: int = 1,
    data_seed: int = 2024,
    step: float = 0.03,
    noise_articles: int = 2,
):
    """Two stocks whose next-day move is driven by one shared news signal.

    Day t carries one signal article (a marker direction plus the signed
    signal direction) and a few noise-cluster articles in an orthogonal
    subspace. Prices follow close[t+1] = close[t] * (1 + step * s[t]), so
    the signal is readable from day-t news but invisible to price history.
    """
    rng = np.random.default_rng(data_seed)
    marker = np.zeros(dim)
    marker[0] = 1.0
    sig_dir = np.zeros(dim)
    sig_dir[1] = 1.0
    name_a = marker + np.eye(dim)[2]
    name_b = marker + np.eye(dim)[3]

    signals = rng.choice([-1.0, 1.0], size=n_days)
    news = []
    for t in range(n_days):
        rows = [marker + signals[t] * sig_dir + rng.normal(0.0, 0.01, size=dim)]
        for _ in range(noise_articles):
            noise = np.zeros(dim)
            noise[4:] = rng.normal(0.0, 1.0, size=dim - 4)
            rows.append(noise)
        news.append(np.stack(rows))

    def walk(base: float) -> np.ndarray:
        closes = [base]
        for t in range(n_days - 1):
            closes.append(closes[-1] * (1.0 + step * signals[t]))
        return np.asarray(closes)

    closes = {"alpha": walk(100.0), "beta": walk(250.0)}
    embs = {"alpha": name_a, "beta": name_b}
    return inmemory_dataset(closes, news, embs, t_window, horizon)
