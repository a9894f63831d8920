"""Data ingestion, alignment, scaling, windowing, and the dataset manifest.

On-disk layout under a data directory:

    names.tsv                stock_id <TAB> display name <TAB> comma-separated floats within float32's range
    news/<YYYY-MM-DD>.emb    binary: magic NEWSEMB1, u32 n, u32 d, n*d float32 LE row-major
    <stock_id>/prices.csv    header `date,close`, ISO dates, one row per trading day

A stock id names its directory, its output files and a field of the
comma-separated results, so it must be one plain directory name: not empty,
`.` or `..`, and without `/`, `\\`, `,`, `"` or NUL. Nor may it be `average`,
which labels the summary row of eval.csv and multiseed.csv. All stocks must share one
trading calendar (identical date column). A trading day without a news file
counts as a zero-news day.

`prepare_dataset` handles the news as one block. It opens each day's file
once, by path and with no stat first (a file that is absent counts as a
zero-news day), checks its header, magic, size, width and article count, and
appends the float32 payload to one buffer. Finiteness is checked once, over
the whole buffer, and a non-finite float is refused naming the first file
that holds one; before a file's other fault is raised, the buffer read so far
is checked the same way, so faults keep the order of a file-by-file read.
The buffer becomes one float64 `(articles, d)` array in one conversion; the
news scaler is fit on the training days' leading rows of it, the array is
scaled in place, and each day gets its own view of its rows.
"""

from __future__ import annotations

import bisect
import csv
import errno
import hashlib
import io
import math
import operator
import os
import re
import struct
from dataclasses import dataclass, field
from datetime import date as _date
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import DataFormatError, read_utf8

NEWS_MAGIC = b"NEWSEMB1"
MANIFEST_HEADER = "SNFMANIFEST 1"
_ID_FORBIDDEN = frozenset('/\\,"\0')
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)  # what Path.exists reads as no file
_ISO_DAYS = re.compile(r"(?:[0-9]{4}-[0-9]{2}-[0-9]{2}\n)*")  # YYYY-MM-DD dates, each ended by \n
SCALER_BLOCK = 512  # rows whose deviations fit_scaler holds at once


@dataclass
class Scaler:
    """Standard scaling fit on the training span only.

    mean/std may be scalars (prices) or per-dimension vectors (news).
    Dimensions with zero variance pass through centered only.
    """

    mean: np.ndarray
    std: np.ndarray

    def transform(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(values - mean) / std, a zero std read as 1; written into out when given (out may be values)."""
        return np.divide(np.subtract(values, self.mean, out=out), np.where(self.std == 0.0, 1.0, self.std), out=out)


def fit_scaler(values: np.ndarray, modality: str) -> Scaler:
    """Arithmetic mean and population standard deviation (divide by N), the bits of
    `arr.mean(axis=0)` and `arr.std(axis=0)`.

    1-D input gives scalar statistics; 2-D input gives per-column ones. A C-ordered 2-D input with
    two columns or more and over SCALER_BLOCK rows sums its squared deviations SCALER_BLOCK rows at
    a time, under a row of the sums so far, so the full deviation array is never built; numpy sums
    such an array's axis 0 in row order, so the bits are `std`'s. The rest go to `std`: a single
    column and 1-D input, which numpy sums pairwise; one block or less, where blocks save nothing;
    and other memory orders, on which the blocked sum's bits were never checked.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"cannot fit {modality} scaler on an empty span")
    if arr.ndim > 2:
        raise ValueError(f"scaler input must be 1-D or 2-D, got shape {arr.shape}")
    mean = arr.mean(axis=0)
    n, d = arr.shape if arr.ndim == 2 else (arr.size, 1)
    if n <= SCALER_BLOCK or d == 1 or not arr.flags.c_contiguous:
        return Scaler(mean=mean, std=arr.std(axis=0))
    sums = np.zeros((SCALER_BLOCK + 1, d))  # row 0: the squared deviations summed so far
    for lo in range(0, n, SCALER_BLOCK):
        block = sums[: 1 + min(SCALER_BLOCK, n - lo)]
        np.square(np.subtract(arr[lo : lo + SCALER_BLOCK], mean, out=block[1:]), out=block[1:])
        sums[0] = block.sum(axis=0)
    return Scaler(mean=mean, std=np.sqrt(sums[0] / n))


def load_prices(path: str | Path) -> tuple[list[str], np.ndarray, str]:
    """The file's YYYY-MM-DD dates and closes, and the sha256 of its bytes."""
    path = Path(path)
    text, digest = read_utf8(path, newline="")
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataFormatError(f"{path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["date", "close"]:
        raise DataFormatError(f"{path}: expected header 'date,close', got {header}")
    dates, closes = _price_columns(rows[1:]) or _price_rows(path, rows[1:])
    return dates, closes, digest


def _price_columns(rows: list[list[str]]) -> tuple[list[str], np.ndarray] | None:
    """The dates and closes of the body rows when each column passes its checks at once, else None
    (and None for no rows): two fields a row, YYYY-MM-DD dates of real days, strictly increasing,
    finite positive closes."""
    try:
        dates = [day for day, _ in rows]
        closes = np.fromiter(map(float, [close for _, close in rows]), np.float64, len(rows))
        for _ in map(_date.fromisoformat, dates):  # refuses 2021-02-30 and 0000-01-01, which the pattern fits
            pass
    except ValueError:  # a row without two fields, a close float() refuses, or a date that is no day
        return None
    column = "\n".join(dates) + "\n"
    if len(column) != 11 * len(dates) or not _ISO_DAYS.fullmatch(column):  # the length rules out a \n in a date
        return None
    if not all(map(operator.lt, dates, dates[1:])):  # YYYY-MM-DD strings sort as their days do
        return None
    if not (np.isfinite(closes).all() and (closes > 0.0).all()):
        return None
    return dates, closes


def _price_rows(path: Path, rows: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """The dates and closes of the body rows, checked row by row: the first bad row's first fault is
    refused, naming its line."""
    dates: list[str] = []
    closes: list[float] = []
    prev: _date | None = None
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
        try:
            day = _date.fromisoformat(row[0])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad date '{row[0]}': {exc}") from exc
        if day.isoformat() != row[0]:  # fromisoformat also takes 20210701 and 2021-W26-4
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
    return dates, np.asarray(closes, dtype=np.float64)


def _news_rows(path: str | Path, raw: bytes) -> np.ndarray:
    """The (n, d) float32 rows of a NEWSEMB1 file's bytes, read from path; checked in this order:
    a whole header, the magic, the size n and d give. Their finiteness is the caller's to check."""
    if len(raw) < 16:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:8] != NEWS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:8]!r}, expected {NEWS_MAGIC!r}")
    n, d = struct.unpack_from("<II", raw, 8)
    expected = 16 + 4 * n * d
    if len(raw) != expected:
        raise DataFormatError(f"{path}: payload is {len(raw)} bytes, expected {expected} for n={n} d={d}")
    return np.frombuffer(raw, dtype="<f4", count=n * d, offset=16).reshape(n, d)


def _refuse_non_finite(payload: bytearray | np.ndarray, ends: list[int], paths: list[str | Path]) -> None:
    """Refuse the float32 payload of the files paths[i] joined, file i's ending at byte ends[i], if it
    holds a non-finite float, naming the first file that does."""
    values = np.frombuffer(payload, dtype="<f4")
    # min and max pass a NaN on and meet any infinity, with no temporary the payload's size
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        first = bisect.bisect_right(ends, 4 * int(np.argmin(np.isfinite(values))))
        raise DataFormatError(f"{paths[first]}: payload contains non-finite floats")


def load_news_day(path: str | Path) -> tuple[np.ndarray, str]:
    """The day's (n, d) article embeddings (n may be 0), and the sha256 of the file's bytes."""
    path = Path(path)
    raw = path.read_bytes()
    rows = _news_rows(path, raw)
    _refuse_non_finite(rows, [rows.nbytes], [path])
    return rows.astype(np.float64), hashlib.sha256(raw).hexdigest()


def write_news_day(path: str | Path, embeddings: np.ndarray) -> None:
    arr = np.ascontiguousarray(embeddings, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    Path(path).write_bytes(NEWS_MAGIC + struct.pack("<II", n, d) + arr.tobytes())


def load_contexts(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    """{stock id: (d,) name embedding}, and the sha256 of the file's bytes."""
    path = Path(path)
    text, digest = read_utf8(path)
    names: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        sid, _, emb_text = parts  # the display name is not read
        if sid in ("", ".", "..") or not _ID_FORBIDDEN.isdisjoint(sid):
            raise DataFormatError(f"{path}:{lineno}: stock id '{sid}' is not one plain directory name")
        if sid == "average":
            raise DataFormatError(f"{path}:{lineno}: stock id 'average' labels the summary row of eval.csv and multiseed.csv")
        if sid in names:
            raise DataFormatError(f"{path}:{lineno}: duplicate stock id '{sid}'")
        try:
            emb = np.asarray([float(v) for v in emb_text.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad embedding literal") from exc
        if not np.all(np.isfinite(emb)):
            raise DataFormatError(f"{path}:{lineno}: embedding contains non-finite values")
        if np.abs(emb).max() > np.finfo(np.float32).max:  # the range of every news value, which NEWSEMB1 stores
            raise DataFormatError(f"{path}:{lineno}: embedding value beyond float32's largest finite value")
        if dim is None:
            dim = emb.size
        elif emb.size != dim:
            raise DataFormatError(f"{path}:{lineno}: embedding dim {emb.size} != {dim}")
        names[sid] = emb
    if not names:
        raise DataFormatError(f"{path}: no stock contexts found")
    return names, digest


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

    @property
    def window_days(self) -> range:
        return range(self.start, self.start + self.t_window)

    @property
    def target_days(self) -> range:
        return range(self.start + self.t_window, self.start + self.t_window + self.horizon)


@dataclass
class StockRecord:
    name_embedding: np.ndarray  # (d,)
    closes_norm: np.ndarray
    price_scaler: Scaler


@dataclass
class PreparedDataset:
    t_window: int
    horizon: int
    dim: int
    dates: list[str]
    stocks: dict[str, StockRecord]
    news: list[np.ndarray]  # per-day normalized (n, d) views of one array
    news_scaler: Scaler
    splits: Splits
    samples: dict[str, list[WindowSample]]
    skipped_windows: int
    missing_news_days: int
    file_hashes: list[tuple[str, str]] = field(default_factory=list)

    def sample_arrays(self, sample: WindowSample):
        """Resolve one sample to (prices(T,), news list, name_emb(d,), target(H,)).

        The news matrices and the name embedding are the dataset's own arrays,
        not copies: the model recognises a (day, stock) by their identity.
        """
        rec = self.stocks[sample.stock_id]
        w = sample.window_days
        t = sample.target_days
        prices = rec.closes_norm[w.start : w.stop]
        news = self.news[w.start : w.stop]
        target = rec.closes_norm[t.start : t.stop]
        return prices, news, rec.name_embedding, target


def assemble_dataset(
    dates: list[str],
    closes: dict[str, np.ndarray],
    news: np.ndarray,
    counts: list[int],
    names: dict[str, np.ndarray],
    t_window: int,
    horizon: int,
    missing_news_days: int = 0,
    file_hashes: list[tuple[str, str]] | None = None,
    data_dir: Path = Path(),
) -> PreparedDataset:
    """Scale, window, and split each stock's closes on the shared calendar `dates`
    and the news, by the chronological 70/10/20 rule. news is every day's
    articles as one float64 (articles, d) array, day after day, counts[i] of
    them on day i; it is scaled in place, and each day's rows become a view
    of it. A split without a window is refused, and so are closes that
    overflow float64 when scaled, naming the stock's prices.csv under data_dir."""
    dim = next(iter(names.values())).size
    total_days = len(dates)
    if total_days < t_window + horizon + 3:
        raise DataFormatError(
            f"{total_days} trading days too short for T={t_window}, H={horizon} (need >= {t_window + horizon + 3})"
        )
    ends = list(accumulate(counts))
    if len(ends) != total_days or ends[-1] != news.shape[0]:
        raise ValueError(f"need one article count per trading day summing to {news.shape[0]} articles, "
                         f"got {len(ends)} counts for {total_days} days")
    splits = split_indices(total_days)

    train_hi = splits.train[1]
    train_rows = ends[train_hi - 1]  # the training days' articles lead the array
    if train_rows:
        news_scaler = fit_scaler(news[:train_rows], "news")
    else:  # no training-span article at all: pass the news through
        news_scaler = Scaler(mean=np.zeros(dim), std=np.ones(dim))
    news_scaler.transform(news, out=news)
    news_days = [news[end - n : end] for n, end in zip(counts, ends)]  # each day its own array object

    stocks: dict[str, StockRecord] = {}
    for sid in sorted(names):
        with np.errstate(over="ignore", invalid="ignore"):
            scaler = fit_scaler(closes[sid][:train_hi], "price")
            closes_norm = scaler.transform(closes[sid])
        if not (np.isfinite(scaler.mean) and np.isfinite(scaler.std) and np.all(np.isfinite(closes_norm))):
            raise DataFormatError(f"{data_dir / sid / 'prices.csv'}: closes overflow float64 when scaled "
                                  f"(training-span mean {scaler.mean:g}, std {scaler.std:g})")
        stocks[sid] = StockRecord(name_embedding=names[sid], closes_norm=closes_norm, price_scaler=scaler)

    # a window's T input days and H target days sit inside one split; the others are skipped
    span = t_window + horizon
    samples = {
        name: [WindowSample(sid, start, t_window, horizon)
               for sid in sorted(names) for start in range(lo, hi - span + 1)]
        for name, lo, hi in splits.as_list()
    }
    skipped = len(names) * (total_days - span + 1) - sum(len(split) for split in samples.values())
    empty = [name for name, split in samples.items() if not split]
    if empty:
        raise DataFormatError(
            f"{total_days} trading days leave no window of T={t_window}, H={horizon} in the "
            f"{' and '.join(empty)} split{'s' if len(empty) > 1 else ''}; the dataset needs more trading days"
        )

    hashes = sorted(file_hashes, key=lambda pair: pair[0]) if file_hashes else []
    return PreparedDataset(
        t_window=t_window,
        horizon=horizon,
        dim=dim,
        dates=list(dates),
        stocks=stocks,
        news=news_days,
        news_scaler=news_scaler,
        splits=splits,
        samples=samples,
        skipped_windows=skipped,
        missing_news_days=missing_news_days,
        file_hashes=hashes,
    )


def prepare_dataset(data_dir: str | Path, t_window: int, horizon: int, expect_dim: int = 0,
                    max_news: int = 0) -> PreparedDataset:
    """Load, validate, align, scale, window, and split everything under data_dir; an expect_dim or
    max_news other than 0 refuses another embedding width or a news day of more articles."""
    root = Path(data_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"data directory not found: {root}")
    names_path = root / "names.tsv"
    names, digest = load_contexts(names_path)
    dim = next(iter(names.values())).size
    if expect_dim and dim != expect_dim:
        raise DataFormatError(f"{names_path}: embedding dim {dim} does not match configured d={expect_dim}")

    # every file is read once; the manifest hashes the bytes its loader parsed
    hashes: list[tuple[str, str]] = [("names.tsv", digest)]

    calendars: dict[str, list[str]] = {}
    closes: dict[str, np.ndarray] = {}
    for sid in sorted(names):
        calendars[sid], closes[sid], digest = load_prices(root / sid / "prices.csv")
        hashes.append((f"{sid}/prices.csv", digest))

    dates = calendars[min(names)]
    news_dir = root / "news"
    payload = bytearray()  # every file's float32 rows, in calendar order
    ends: list[int] = []  # the payload's length after each file read
    read: list[str] = []  # those files' paths
    counts: list[int] = []
    missing = 0
    try:
        for day in dates:
            path = f"{news_dir}{os.sep}{day}.emb"
            try:
                with open(path, "rb", buffering=0) as f:
                    raw = f.read()
            except OSError as exc:
                if exc.errno not in _ABSENT:
                    raise
                missing += 1
                counts.append(0)
                continue
            rows = _news_rows(path, raw)
            payload += memoryview(raw)[16:]  # before the dim and max_news checks: its non-finite rows come first
            ends.append(len(payload))
            read.append(path)
            if rows.shape[1] != dim:
                raise DataFormatError(f"{path}: embedding dim {rows.shape[1]} != {dim}")
            if max_news and rows.shape[0] > max_news:
                raise DataFormatError(f"{path}: {rows.shape[0]} articles, more than max_news_per_day = {max_news}")
            counts.append(rows.shape[0])
            hashes.append((f"news/{day}.emb", hashlib.sha256(raw).hexdigest()))
    except (DataFormatError, OSError):
        _refuse_non_finite(payload, ends, read)  # an earlier file's non-finite float is named first
        raise
    _refuse_non_finite(payload, ends, read)
    news = np.frombuffer(payload, dtype="<f4").reshape(-1, dim).astype(np.float64)
    del payload  # the float32 copy goes before the scaler's temporaries come

    for sid in sorted(names):
        if calendars[sid] != dates:
            raise DataFormatError(f"{sid}: trading calendar differs from other stocks")
    return assemble_dataset(dates, closes, news, counts, names, t_window, horizon, missing, hashes, root)


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
        lines.append(f"price_scaler {sid} {_fmt(sc.mean)} {_fmt(sc.std)} {int(sc.std == 0.0)}")
    lines.append("news_scaler_mean " + _fmt_vec(ds.news_scaler.mean))
    lines.append("news_scaler_std " + _fmt_vec(ds.news_scaler.std))
    lines.append("news_scaler_constant " + " ".join(str(int(c)) for c in ds.news_scaler.std == 0.0))
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


def verify_manifest(ds: PreparedDataset, path: str | Path) -> str:
    """Require the stored manifest to match the freshly rebuilt dataset byte for byte;
    returns the sha256 of the stored file, from the same single read."""
    path = Path(path)
    stored, digest = read_utf8(path)
    if stored != manifest_text(ds):
        raise DataFormatError(
            f"{path}: manifest does not match the data directory contents (re-run prepare)"
        )
    return digest
