"""Data ingestion, alignment, scaling, windowing, and the dataset manifest.

On-disk layout under a data directory:

    names.tsv                stock_id <TAB> display name <TAB> comma-separated floats
    news/<YYYY-MM-DD>.emb    binary: magic NEWSEMB1, u32 n, u32 d, n*d float32 LE row-major
    <stock_id>/prices.csv    header `date,close`, ISO dates, one row per trading day

All stocks must share one trading calendar (identical date column). A
trading day without a news file counts as a zero-news day.
"""

from __future__ import annotations

import csv
import hashlib
import io
import struct
from dataclasses import dataclass, field
from datetime import date as _date
from pathlib import Path

import numpy as np

from .errors import DataFormatError, read_utf8

NEWS_MAGIC = b"NEWSEMB1"
MANIFEST_HEADER = "SNFMANIFEST 1"


@dataclass
class PriceSeries:
    stock_id: str
    dates: list[str]
    closes: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class DailyNewsBatch:
    day: str
    embeddings: np.ndarray  # (n, d), n may be 0
    sha256: str  # hex digest of the file's bytes, for the manifest

    @property
    def count(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class StockContext:
    stock_id: str
    display_name: str
    name_embedding: np.ndarray  # (d,)


@dataclass
class Scaler:
    """Standard scaling fit on the training span only.

    mean/std may be scalars (prices) or per-dimension vectors (news).
    Dimensions with zero variance are flagged constant and pass through
    centered only.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # bool, same shape as std
    modality: str  # "price" | "news"

    def transform(self, values: np.ndarray) -> np.ndarray:
        denom = np.where(self.constant, 1.0, self.std)
        return (values - self.mean) / denom

    def inverse(self, values: np.ndarray) -> np.ndarray:
        denom = np.where(self.constant, 1.0, self.std)
        return values * denom + self.mean


def fit_scaler(values: np.ndarray, modality: str) -> Scaler:
    """Arithmetic mean and population standard deviation (divide by N).

    1-D input gives scalar statistics; 2-D input gives per-column ones.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"cannot fit {modality} scaler on an empty span")
    if arr.ndim == 1:
        mean = np.asarray(arr.mean())
        std = np.asarray(arr.std())
    elif arr.ndim == 2:
        mean = arr.mean(axis=0)
        std = arr.std(axis=0)
    else:
        raise ValueError(f"scaler input must be 1-D or 2-D, got shape {arr.shape}")
    constant = std == 0.0
    return Scaler(mean=mean, std=std, constant=constant, modality=modality)


def identity_scaler(dim: int, modality: str) -> Scaler:
    """Pass-through scaler for datasets with no training-span articles at all."""
    return Scaler(
        mean=np.zeros(dim), std=np.ones(dim), constant=np.zeros(dim, dtype=bool), modality=modality
    )


def load_prices(path: str | Path, stock_id: str | None = None) -> PriceSeries:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    sid = stock_id if stock_id is not None else path.parent.name
    dates: list[str] = []
    closes: list[float] = []
    try:
        rows = list(csv.reader(io.StringIO(read_utf8(path, newline=""), newline="")))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataFormatError(f"{path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["date", "close"]:
        raise DataFormatError(f"{path}: expected header 'date,close', got {header}")
    prev: _date | None = None
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            day = _date.fromisoformat(row[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad date '{row[0]}': {exc}") from exc
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
        if not np.isfinite(close) or close <= 0.0:
            raise DataFormatError(f"{path}:{lineno}: close must be finite and positive, got {row[1]}")
        dates.append(row[0])
        closes.append(close)
    return PriceSeries(stock_id=sid, dates=dates, closes=np.asarray(closes, dtype=np.float64))


def load_news_day(path: str | Path) -> DailyNewsBatch:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    raw = path.read_bytes()
    if len(raw) < 16:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:8] != NEWS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:8]!r}, expected {NEWS_MAGIC!r}")
    n, d = struct.unpack("<II", raw[8:16])
    expected = 16 + 4 * n * d
    if len(raw) != expected:
        raise DataFormatError(f"{path}: payload is {len(raw)} bytes, expected {expected} for n={n} d={d}")
    values = np.frombuffer(raw, dtype="<f4", count=n * d, offset=16).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path}: payload contains non-finite floats")
    return DailyNewsBatch(day=path.stem, embeddings=values.reshape(n, d), sha256=hashlib.sha256(raw).hexdigest())


def write_news_day(path: str | Path, embeddings: np.ndarray) -> None:
    arr = np.ascontiguousarray(embeddings, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    Path(path).write_bytes(NEWS_MAGIC + struct.pack("<II", n, d) + arr.tobytes())


def load_contexts(path: str | Path) -> dict[str, StockContext]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    contexts: dict[str, StockContext] = {}
    dim: int | None = None
    for lineno, line in enumerate(read_utf8(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        sid, display, emb_text = parts
        if sid in contexts:
            raise DataFormatError(f"{path}:{lineno}: duplicate stock id '{sid}'")
        try:
            emb = np.asarray([float(v) for v in emb_text.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad embedding literal") from exc
        if not np.all(np.isfinite(emb)):
            raise DataFormatError(f"{path}:{lineno}: embedding contains non-finite values")
        if dim is None:
            dim = emb.size
        elif emb.size != dim:
            raise DataFormatError(f"{path}:{lineno}: embedding dim {emb.size} != {dim}")
        contexts[sid] = StockContext(stock_id=sid, display_name=display, name_embedding=emb)
    if not contexts:
        raise DataFormatError(f"{path}: no stock contexts found")
    return contexts


@dataclass
class Splits:
    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def as_list(self) -> list[tuple[str, int, int]]:
        return [("train", *self.train), ("val", *self.val), ("test", *self.test)]

    def sizes(self) -> tuple[int, int, int]:
        return (
            self.train[1] - self.train[0],
            self.val[1] - self.val[0],
            self.test[1] - self.test[0],
        )


def split_indices(total_days: int) -> Splits:
    """Chronological 70/10/20 split; train earliest.

    Integer arithmetic keeps floor(0.7*N) and floor(0.2*N) exact.
    """
    if total_days < 5:
        raise ValueError(f"need at least 5 trading days to split, got {total_days}")
    n_train = (7 * total_days) // 10
    n_test = (2 * total_days) // 10
    n_val = total_days - n_train - n_test
    return Splits(
        train=(0, n_train),
        val=(n_train, n_train + n_val),
        test=(n_train + n_val, total_days),
    )


@dataclass
class WindowSample:
    stock_id: str
    start: int  # first window day index
    t_window: int
    horizon: int
    split: str

    @property
    def window_days(self) -> range:
        return range(self.start, self.start + self.t_window)

    @property
    def target_days(self) -> range:
        return range(self.start + self.t_window, self.start + self.t_window + self.horizon)


def build_windows(
    stock_id: str, total_days: int, t_window: int, horizon: int, splits: Splits
) -> tuple[dict[str, list[WindowSample]], int]:
    """Index windows whose T input days and H target days sit inside one split.

    Returns per-split samples plus the count of otherwise-valid windows
    skipped for crossing a split boundary.
    """
    if total_days < t_window + horizon + 3:
        raise ValueError(
            f"series of {total_days} days too short for T={t_window}, H={horizon} (need >= {t_window + horizon + 3})"
        )
    span = t_window + horizon
    samples: dict[str, list[WindowSample]] = {"train": [], "val": [], "test": []}
    for name, lo, hi in splits.as_list():
        for start in range(lo, hi - span + 1):
            samples[name].append(
                WindowSample(stock_id=stock_id, start=start, t_window=t_window, horizon=horizon, split=name)
            )
    kept = sum(len(v) for v in samples.values())
    possible = max(0, total_days - span + 1)
    return samples, possible - kept


@dataclass
class StockRecord:
    context: StockContext
    closes_raw: np.ndarray
    closes_norm: np.ndarray
    price_scaler: Scaler


@dataclass
class PreparedDataset:
    t_window: int
    horizon: int
    dim: int
    dates: list[str]
    stocks: dict[str, StockRecord]
    news: list[np.ndarray]  # per-day normalized (n, d) matrices
    news_scaler: Scaler
    splits: Splits
    samples: dict[str, list[WindowSample]]
    skipped_windows: int
    missing_news_days: int
    file_hashes: list[tuple[str, str]] = field(default_factory=list)

    def sample_arrays(self, sample: WindowSample):
        """Resolve one sample to (prices(T,), news list, name_emb(d,), target(H,))."""
        rec = self.stocks[sample.stock_id]
        w = sample.window_days
        t = sample.target_days
        prices = rec.closes_norm[w.start : w.stop]
        news = [self.news[i] for i in w]
        target = rec.closes_norm[t.start : t.stop]
        return prices, news, rec.context.name_embedding, target


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assemble_dataset(
    series: dict[str, PriceSeries],
    news_raw: list[np.ndarray],
    contexts: dict[str, StockContext],
    t_window: int,
    horizon: int,
    splits: Splits | None = None,
    missing_news_days: int = 0,
    file_hashes: list[tuple[str, str]] | None = None,
) -> PreparedDataset:
    """Scale, window, and split already-loaded series and news matrices.

    splits defaults to the chronological 70/10/20 rule; passing explicit
    ranges supports synthetic fixtures with hand-picked span lengths.
    """
    dim = next(iter(contexts.values())).name_embedding.size
    dates = series[sorted(contexts)[0]].dates
    for sid in sorted(contexts):
        if series[sid].dates != dates:
            raise DataFormatError(f"{sid}: trading calendar differs from other stocks")
    total_days = len(dates)
    if total_days < t_window + horizon + 3:
        raise DataFormatError(
            f"{total_days} trading days too short for T={t_window}, H={horizon} (need >= {t_window + horizon + 3})"
        )
    if len(news_raw) != total_days:
        raise ValueError(f"need one news matrix per trading day, got {len(news_raw)} for {total_days}")
    if splits is None:
        splits = split_indices(total_days)

    train_hi = splits.train[1]
    train_articles = [m for m in news_raw[:train_hi] if m.shape[0] > 0]
    if train_articles:
        news_scaler = fit_scaler(np.concatenate(train_articles, axis=0), "news")
    else:
        news_scaler = identity_scaler(dim, "news")
    news_norm = [news_scaler.transform(m) if m.shape[0] else m for m in news_raw]

    stocks: dict[str, StockRecord] = {}
    for sid in sorted(contexts):
        closes = series[sid].closes
        scaler = fit_scaler(closes[:train_hi], "price")
        stocks[sid] = StockRecord(
            context=contexts[sid],
            closes_raw=closes,
            closes_norm=scaler.transform(closes),
            price_scaler=scaler,
        )

    samples: dict[str, list[WindowSample]] = {"train": [], "val": [], "test": []}
    skipped = 0
    for sid in sorted(contexts):
        per_stock, skip = build_windows(sid, total_days, t_window, horizon, splits)
        for split_name in samples:
            samples[split_name].extend(per_stock[split_name])
        skipped += skip

    hashes = sorted(file_hashes, key=lambda pair: pair[0]) if file_hashes else []
    return PreparedDataset(
        t_window=t_window,
        horizon=horizon,
        dim=dim,
        dates=list(dates),
        stocks=stocks,
        news=news_norm,
        news_scaler=news_scaler,
        splits=splits,
        samples=samples,
        skipped_windows=skipped,
        missing_news_days=missing_news_days,
        file_hashes=hashes,
    )


def prepare_dataset(data_dir: str | Path, t_window: int, horizon: int, expect_dim: int = 0) -> PreparedDataset:
    """Load, validate, align, scale, window, and split everything under data_dir."""
    root = Path(data_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"data directory not found: {root}")
    names_path = root / "names.tsv"
    contexts = load_contexts(names_path)
    dim = next(iter(contexts.values())).name_embedding.size
    if expect_dim and dim != expect_dim:
        raise DataFormatError(f"names.tsv embedding dim {dim} does not match configured d={expect_dim}")

    hashes: list[tuple[str, str]] = [("names.tsv", _sha256_file(names_path))]

    series: dict[str, PriceSeries] = {}
    for sid in sorted(contexts):
        price_path = root / sid / "prices.csv"
        series[sid] = load_prices(price_path, stock_id=sid)
        hashes.append((f"{sid}/prices.csv", _sha256_file(price_path)))

    dates = series[sorted(contexts)[0]].dates
    news_raw: list[np.ndarray] = []
    missing = 0
    for day in dates:
        path = root / "news" / f"{day}.emb"
        if path.exists():
            batch = load_news_day(path)
            if batch.embeddings.shape[1] != dim:
                raise DataFormatError(f"{path}: embedding dim {batch.embeddings.shape[1]} != {dim}")
            news_raw.append(batch.embeddings)
            hashes.append((f"news/{day}.emb", batch.sha256))
        else:
            missing += 1
            news_raw.append(np.zeros((0, dim)))

    return assemble_dataset(
        series,
        news_raw,
        contexts,
        t_window,
        horizon,
        splits=None,
        missing_news_days=missing,
        file_hashes=hashes,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in np.asarray(v).reshape(-1))


def manifest_text(ds: PreparedDataset) -> str:
    """Deterministic text manifest; no timestamps, stable ordering."""
    lines = [MANIFEST_HEADER]
    lines.append(f"T {ds.t_window}")
    lines.append(f"H {ds.horizon}")
    lines.append(f"d {ds.dim}")
    lines.append(f"days {len(ds.dates)}")
    for name, lo, hi in ds.splits.as_list():
        lines.append(f"split_{name} {lo} {hi}")
    lines.append("stocks " + ",".join(sorted(ds.stocks)))
    for sid in sorted(ds.stocks):
        sc = ds.stocks[sid].price_scaler
        lines.append(
            f"price_scaler {sid} {_fmt(sc.mean)} {_fmt(sc.std)} {int(bool(sc.constant))}"
        )
    lines.append("news_scaler_mean " + _fmt_vec(ds.news_scaler.mean))
    lines.append("news_scaler_std " + _fmt_vec(ds.news_scaler.std))
    lines.append("news_scaler_constant " + " ".join(str(int(c)) for c in np.asarray(ds.news_scaler.constant).reshape(-1)))
    lines.append(f"missing_news_days {ds.missing_news_days}")
    lines.append(f"skipped_windows {ds.skipped_windows}")
    lines.append(
        "samples "
        + " ".join(f"{name} {len(ds.samples[name])}" for name in ("train", "val", "test"))
    )
    for rel, digest in ds.file_hashes:
        lines.append(f"file {digest} {rel}")
    return "\n".join(lines) + "\n"


def write_manifest(ds: PreparedDataset, path: str | Path) -> None:
    Path(path).write_text(manifest_text(ds), encoding="utf-8", newline="\n")


def verify_manifest(ds: PreparedDataset, path: str | Path) -> None:
    """Require the stored manifest to match the freshly rebuilt dataset byte for byte."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    stored = read_utf8(path)
    current = manifest_text(ds)
    if stored != current:
        raise DataFormatError(
            f"{path}: manifest does not match the data directory contents (re-run prepare)"
        )


def manifest_hash(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
