import builtins
import dataclasses
import hashlib
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import (
    inmemory_dataset,
    random_news,
    toy_dataset_dir,
    trading_dates,
    write_dataset_dir,
    write_names,
    write_prices,
)
from oracles import news_per_file
from snfuse.data import (
    NEWS_MAGIC,
    SCALER_BLOCK,
    fit_scaler,
    load_contexts,
    load_news_day,
    load_prices,
    manifest_text,
    prepare_dataset,
    split_indices,
    verify_manifest,
    write_manifest,
    write_news_day,
)
from snfuse.errors import DataFormatError


# -- prices ------------------------------------------------------------


def test_load_prices_two_rows(tmp_path):
    path = tmp_path / "s" / "prices.csv"
    write_prices(path, ["2021-07-01", "2021-07-02"], [100.0, 101.0])
    dates, closes, digest = load_prices(path)
    assert dates == ["2021-07-01", "2021-07-02"]
    np.testing.assert_array_equal(closes, [100.0, 101.0])
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_prices_duplicate_date_names_it(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2021-07-01,100\n2021-07-01,101\n")
    with pytest.raises(DataFormatError, match="2021-07-01"):
        load_prices(path)


def test_load_prices_unsorted_names_line(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2021-07-02,100\n2021-07-01,101\n")
    with pytest.raises(DataFormatError, match=":3"):
        load_prices(path)


def test_load_prices_nonpositive_close(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2021-07-01,-5\n")
    with pytest.raises(ValueError, match="positive"):
        load_prices(path)


@pytest.mark.parametrize("day", ["20210702", "2021-W26-5"])
def test_load_prices_refuses_a_date_not_in_yyyy_mm_dd_form(tmp_path, day):
    # date.fromisoformat reads both as 2021-07-02, and no news file would be found under them
    path = tmp_path / "prices.csv"
    path.write_text(f"date,close\n2021-07-01,100\n{day},101\n")
    with pytest.raises(DataFormatError) as err:
        load_prices(path)
    assert str(err.value) == f"{path}:3: bad date '{day}': not in YYYY-MM-DD form"


def test_load_prices_1018_day_file(tmp_path):
    dates = trading_dates(1018)
    path = tmp_path / "prices.csv"
    write_prices(path, dates, 100.0 + np.arange(1018) * 0.1)
    got, closes, _ = load_prices(path)
    assert got == dates and closes.shape == (1018,)


# -- news binary format ------------------------------------------------


def test_news_zero_article_day(tmp_path):
    path = tmp_path / "2021-07-01.emb"
    write_news_day(path, np.zeros((0, 8)))
    rows, _ = load_news_day(path)
    assert rows.shape == (0, 8)


def test_news_round_trip_values(tmp_path):
    path = tmp_path / "2021-07-01.emb"
    write_news_day(path, np.array([[1.0, 0.0], [0.0, 1.0]]))
    rows, digest = load_news_day(path)
    np.testing.assert_array_equal(rows, [[1.0, 0.0], [0.0, 1.0]])
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_news_typical_day_219_articles(tmp_path):
    path = tmp_path / "2021-07-01.emb"
    write_news_day(path, np.random.default_rng(0).normal(size=(219, 16)))
    assert load_news_day(path)[0].shape[0] == 219


def test_news_bad_magic(tmp_path):
    path = tmp_path / "x.emb"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="magic"):
        load_news_day(path)


def test_news_truncated_payload(tmp_path):
    path = tmp_path / "x.emb"
    write_news_day(path, np.ones((2, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(DataFormatError, match="expected"):
        load_news_day(path)


def test_news_nonfinite_rejected(tmp_path):
    path = tmp_path / "x.emb"
    arr = np.array([[np.inf, 0.0]], dtype=np.float32)
    path.write_bytes(b"NEWSEMB1" + struct.pack("<II", 1, 2) + arr.tobytes())
    with pytest.raises(DataFormatError, match="non-finite"):
        load_news_day(path)


# -- contexts ----------------------------------------------------------


def test_load_contexts(tmp_path):
    path = tmp_path / "names.tsv"
    write_names(path, [("tsmc", "TSMC", np.array([0.5, -0.5])), ("delta", "Delta", np.array([1.0, 2.0]))])
    names, digest = load_contexts(path)
    assert sorted(names) == ["delta", "tsmc"]
    np.testing.assert_array_equal(names["tsmc"], [0.5, -0.5])
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_contexts_dim_mismatch(tmp_path):
    path = tmp_path / "names.tsv"
    path.write_text("a\tA\t1.0,2.0\nb\tB\t1.0\n")
    with pytest.raises(DataFormatError, match="dim"):
        load_contexts(path)


@pytest.mark.parametrize("value,refused", [("1e300", True), ("-1e39", True), ("3.4e38", False), ("-3.4e38", False)])
def test_load_contexts_keeps_name_embeddings_within_float32s_range(tmp_path, value, refused):
    # the range of every news value: beyond it a name row's layer norm overflows to a silent zero
    path = tmp_path / "names.tsv"
    path.write_text(f"a\tA\t1.0,2.0\nb\tB\t{value},{value}\n")
    if refused:
        with pytest.raises(DataFormatError, match=r"names.tsv:2: embedding value beyond float32's largest finite"):
            load_contexts(path)
    else:
        np.testing.assert_array_equal(load_contexts(path)[0]["b"], [float(value)] * 2)


# -- scaler ------------------------------------------------------------


def test_fit_scaler_hand_values():
    scaler = fit_scaler(np.array([1.0, 2.0, 3.0]), "price")
    assert scaler.mean == 2.0
    np.testing.assert_allclose(scaler.std, np.sqrt(2.0 / 3.0), rtol=1e-15)
    np.testing.assert_allclose(scaler.transform(np.array(3.0)), 1.224745, atol=5e-7)


def test_fit_scaler_constant_passthrough():
    scaler = fit_scaler(np.array([4.0, 4.0, 4.0]), "price")
    assert scaler.std == 0.0
    np.testing.assert_array_equal(scaler.transform(np.array([4.0, 5.0])), [0.0, 1.0])  # centred, not divided
    news = fit_scaler(np.array([[1.0, 3.0], [3.0, 3.0]]), "news")  # the second dimension is constant
    np.testing.assert_array_equal(news.transform(np.array([[2.0, 3.0], [4.0, 5.0]])), [[0.0, 0.0], [2.0, 2.0]])


_SCALER_ROWS = [1, SCALER_BLOCK, SCALER_BLOCK + 1, 7 * SCALER_BLOCK + 211]  # the last: several blocks, one partial


@pytest.mark.parametrize("d,rows,order", [(d, rows, "C") for d in (1, 2, 8, 64) for rows in _SCALER_ROWS]
                         + [(8, _SCALER_ROWS[-1], "F")])
def test_fit_scaler_has_the_bits_of_numpys_mean_and_std(d, rows, order):
    rng = np.random.default_rng([d, rows])
    arr = np.asarray(rng.normal(3.0, 2.0, size=(rows, d)) * rng.uniform(0.1, 1e3, size=d), order=order)
    scaler = fit_scaler(arr, "news")
    assert scaler.mean.tobytes() == arr.mean(axis=0).tobytes()
    assert scaler.std.tobytes() == arr.std(axis=0).tobytes()


def test_fit_scaler_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit_scaler(np.array([]), "price")


def test_a_close_that_overflows_once_scaled_is_refused_without_a_warning():
    # finite statistics: a training span one ulp from constant, then a close of 1e308 on the last day
    n_days = 60
    closes = np.ones(n_days)
    closes[1] = np.nextafter(1.0, 2.0)
    closes[-1] = 1e308
    with np.errstate(all="raise"), pytest.raises(DataFormatError, match=r"^a/prices.csv: closes overflow float64"):
        inmemory_dataset({"a": closes}, [np.zeros((0, 4))] * n_days, {"a": np.ones(4)}, t_window=8, horizon=1)


# -- splits ------------------------------------------------------------


def test_split_1018_days_paper_sizes():
    splits = split_indices(1018)
    assert splits.sizes() == (712, 103, 203)


def test_split_10_days_floor_rule():
    # floor oracle: train=floor(7), test=floor(2), val = remainder
    splits = split_indices(10)
    assert splits.sizes() == (7, 1, 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 5000))
def test_split_ranges_disjoint_cover_and_ordered(n):
    splits = split_indices(n)
    tr, va, te = splits.train, splits.val, splits.test
    assert tr[0] == 0 and tr[1] == va[0] and va[1] == te[0] and te[1] == n
    n_tr, n_va, n_te = splits.sizes()
    assert n_tr == (7 * n) // 10
    assert n_te == (2 * n) // 10
    assert n_tr + n_va + n_te == n
    assert min(n_tr, n_va, n_te) >= 1


def test_split_too_short():
    with pytest.raises(ValueError):
        split_indices(4)


# -- windows -----------------------------------------------------------


def _window_oracle(n_days: int, t_window: int, horizon: int, stocks: list[str]):
    """Enumerate every window of every stock; keep those whose T + H days all fall in one split
    of the 70/10/20 floor rule. Returns {split: [(stock, start)]} and the count skipped."""
    n_train, n_test = (7 * n_days) // 10, (2 * n_days) // 10

    def split_of(day):
        return "train" if day < n_train else "test" if day >= n_days - n_test else "val"

    kept = {"train": [], "val": [], "test": []}
    skipped = 0
    for stock in sorted(stocks):
        for start in range(n_days - t_window - horizon + 1):
            owners = {split_of(day) for day in range(start, start + t_window + horizon)}
            if len(owners) == 1:
                kept[owners.pop()].append((stock, start))
            else:
                skipped += 1
    return kept, skipped


def _windowed(n_days: int, t_window: int, horizon: int, stocks=("s",)):
    closes = {sid: np.linspace(1.0, 2.0, n_days) for sid in stocks}
    return inmemory_dataset(closes, [np.zeros((0, 2))] * n_days, {sid: np.ones(2) for sid in stocks}, t_window, horizon)


def test_windows_per_split_match_an_enumeration_oracle():
    # N=210 splits 147/21/42; T=20, H=1 leave 127, 1 and 22 windows, and 190 - 150 = 40 cross a boundary
    ds = _windowed(210, 20, 1)
    kept, skipped = _window_oracle(210, 20, 1, ["s"])
    assert [len(ds.samples[name]) for name in ("train", "val", "test")] == [127, 1, 22]
    assert (ds.skipped_windows, skipped) == (40, 40)
    for name, expected in kept.items():
        assert [(w.stock_id, w.start) for w in ds.samples[name]] == expected
    assert [w.target_days.start for w in ds.samples["val"]] == [167]  # the val span's last day


def test_windows_h5_has_4_fewer_windows_per_split():
    # N=300 splits 210/30/60: four more target days drop four windows from each split
    h1, h5 = _windowed(300, 20, 1), _windowed(300, 20, 5)
    kept, _ = _window_oracle(300, 20, 5, ["s"])
    for name in ("train", "val", "test"):
        assert len(h1.samples[name]) - len(h5.samples[name]) == 4
        assert len(h5.samples[name]) == len(kept[name])


def test_windows_targets_follow_the_window():
    ds = _windowed(100, 8, 1, stocks=("b", "a"))
    for split_samples in ds.samples.values():
        for s in split_samples:
            assert s.target_days.start == s.window_days.stop
            assert s.window_days.stop - s.window_days.start == 8


def test_windows_count_boundary_skips_stock_by_stock():
    # N=100 splits 70/10/20; T=8, H=1 leave 62 + 2 + 12 of each stock's 92 windows
    ds = _windowed(100, 8, 1, stocks=("b", "a"))
    kept, skipped = _window_oracle(100, 8, 1, ["a", "b"])
    total = sum(len(v) for v in ds.samples.values())
    assert total + ds.skipped_windows == 2 * (100 - 9 + 1)
    assert ds.skipped_windows == skipped == 2 * 16
    for name, expected in kept.items():  # stock by stock, then by start day
        assert [(w.stock_id, w.start) for w in ds.samples[name]] == expected


def test_assemble_dataset_refuses_a_too_short_series():
    with pytest.raises(DataFormatError, match="too short"):
        inmemory_dataset({"s": np.linspace(1.0, 2.0, 11)}, [np.zeros((0, 2))] * 11, {"s": np.ones(2)}, 8, 1)


# -- end-to-end dataset ------------------------------------------------


def test_prepare_dataset_round_trip_manifest(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=3)
    ds = prepare_dataset(root, t_window=8, horizon=1)
    manifest = tmp_path / "dataset.manifest"
    write_manifest(ds, manifest)
    ds2 = prepare_dataset(root, t_window=8, horizon=1)
    verify_manifest(ds2, manifest)
    assert manifest_text(ds) == manifest_text(ds2)
    for sid in ds.stocks:
        assert np.array_equal(ds.stocks[sid].closes_norm, ds2.stocks[sid].closes_norm)
    for a, b in zip(ds.news, ds2.news):
        assert np.array_equal(a, b)


def test_prepare_reads_each_news_file_once_and_hashes_those_bytes(tmp_path, monkeypatch):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=3)
    reads = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs: reads.append(Path(file).name)
                        or real_open(file, *args, **kwargs))
    text = manifest_text(prepare_dataset(root, t_window=8, horizon=1))
    monkeypatch.undo()
    news = sorted((root / "news").iterdir())
    assert news and sorted(name for name in reads if name.endswith(".emb")) == [path.name for path in news]
    for path in news:
        assert f"file {hashlib.sha256(path.read_bytes()).hexdigest()} news/{path.name}\n" in text


def test_manifest_detects_changed_data(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=3)
    ds = prepare_dataset(root, t_window=8, horizon=1)
    manifest = tmp_path / "dataset.manifest"
    write_manifest(ds, manifest)
    prices = root / "alpha" / "prices.csv"
    text = prices.read_text().splitlines()
    text[1] = text[1].rsplit(",", 1)[0] + ",999.0"
    prices.write_text("\n".join(text) + "\n")
    ds2 = prepare_dataset(root, t_window=8, horizon=1)
    with pytest.raises(DataFormatError, match="manifest"):
        verify_manifest(ds2, manifest)


def test_scaler_statistics_train_only(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=9)
    ds = prepare_dataset(root, t_window=8, horizon=1)
    train_hi = ds.splits.train[1]
    raw = {sid: load_prices(root / sid / "prices.csv")[1] for sid in ds.stocks}
    for sid, rec in ds.stocks.items():
        fresh = fit_scaler(raw[sid][:train_hi], "price")
        assert float(fresh.mean) == float(rec.price_scaler.mean)
        assert float(fresh.std) == float(rec.price_scaler.std)
    # corrupting only test-span closes must not change any scaler statistic
    dates = trading_dates(90)
    closes = {sid: raw[sid].copy() for sid in ds.stocks}
    for sid in closes:
        closes[sid][train_hi + 5 :] *= 3.0
    embs = {sid: ds.stocks[sid].name_embedding for sid in ds.stocks}
    news = [m.copy() for m in ds.news]
    ds3 = inmemory_dataset(closes, news, embs, 8, 1)
    for sid in ds.stocks:
        assert float(ds3.stocks[sid].price_scaler.mean) == float(ds.stocks[sid].price_scaler.mean)
        assert float(ds3.stocks[sid].price_scaler.std) == float(ds.stocks[sid].price_scaler.std)


def test_window_dates_immediately_precede_target(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=5)
    ds = prepare_dataset(root, t_window=8, horizon=1)
    for split in ds.samples.values():
        for s in split:
            window_dates = [ds.dates[i] for i in s.window_days]
            assert window_dates == ds.dates[s.target_days.start - 8 : s.target_days.start]
            news = ds.sample_arrays(s)[1]  # the model recognises a day by its array's identity
            assert len(news) == 8 and all(day is ds.news[i] for day, i in zip(news, s.window_days))


def test_missing_news_files_count_as_zero_days(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=3, with_news=False)
    ds = prepare_dataset(root, t_window=8, horizon=1)
    assert ds.missing_news_days == 90
    assert all(m.shape == (0, 4) for m in ds.news)


def test_a_news_path_that_is_not_a_file_is_a_missing_day_only_where_nothing_is_there(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=3, with_news=False)
    (root / "news").write_bytes(b"")  # every day's path runs through a file
    assert prepare_dataset(root, t_window=8, horizon=1).missing_news_days == 90
    (root / "news").unlink()
    loop = root / "news" / f"{trading_dates(90)[7]}.emb"
    loop.parent.mkdir()
    loop.symlink_to(loop)  # a link to itself, which Path.exists reads as no file too
    assert prepare_dataset(root, t_window=8, horizon=1).missing_news_days == 90
    (root / "news" / f"{trading_dates(90)[5]}.emb").mkdir()
    with pytest.raises(IsADirectoryError):
        prepare_dataset(root, t_window=8, horizon=1)


@pytest.mark.parametrize("case", ["mixed", "no-training-article"])
def test_prepare_dataset_news_is_the_per_file_path_bit_for_bit(tmp_path, case):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=11)  # 0-3 articles a day
    dates, news = trading_dates(90), root / "news"
    if case == "mixed":  # missing days in the training and test spans, empty days, and a crowded day
        for i in (0, 5, 40, 80, 89):
            (news / f"{dates[i]}.emb").unlink()
        for i in (1, 2, 70):
            write_news_day(news / f"{dates[i]}.emb", np.zeros((0, 4)))
        write_news_day(news / f"{dates[30]}.emb", 1e3 * np.random.default_rng(0).normal(size=(40, 4)))
    else:  # the scaler passes the news through
        for i in range(63):  # every training day missing or empty
            if i % 2:
                (news / f"{dates[i]}.emb").unlink()
            else:
                write_news_day(news / f"{dates[i]}.emb", np.zeros((0, 4)))
    ds = prepare_dataset(root, t_window=8, horizon=1)  # max_news 0, as with pooling none
    expected, scaler, missing, hashes = news_per_file(root, dates, 4, ds.splits.train[1])
    assert len(ds.news) == len(expected) == 90 and ds.missing_news_days == missing > 0
    for got, want in zip(ds.news, expected):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert len({id(day) for day in ds.news}) == 90  # the model recognises a day by its array's identity
    assert ds.news_scaler.mean.tobytes() == scaler.mean.tobytes()
    assert ds.news_scaler.std.tobytes() == scaler.std.tobytes()
    if case != "mixed":
        assert (scaler.mean.tolist(), scaler.std.tolist()) == ([0.0] * 4, [1.0] * 4)
    others = [pair for pair in ds.file_hashes if not pair[0].startswith("news/")]
    per_file = dataclasses.replace(ds, news=expected, news_scaler=scaler, missing_news_days=missing,
                                   file_hashes=sorted(others + hashes))
    assert manifest_text(ds) == manifest_text(per_file)


def _non_finite_day(path):
    path.write_bytes(NEWS_MAGIC + struct.pack("<II", 1, 4) + np.array([0.0, np.nan, 0.0, 0.0], "<f4").tobytes())


LATER_FAULTS = {
    "bad-magic": (lambda path: path.write_bytes(b"NOTMAGIC" + bytes(8)), "bad magic b'NOTMAGIC'"),
    "wrong-dim": (lambda path: write_news_day(path, np.ones((2, 7))), "embedding dim 7 != 4"),
    "over-max-news": (lambda path: write_news_day(path, np.ones((9, 4))), "9 articles, more than max_news_per_day = 5"),
}


@pytest.mark.parametrize("fault,message", LATER_FAULTS.values(), ids=LATER_FAULTS.keys())
def test_an_earlier_files_non_finite_payload_is_named_before_a_later_files_fault(tmp_path, fault, message):
    root = toy_dataset_dir(tmp_path / "data", n_days=40, dim=4, seed=3)
    dates = trading_dates(40)
    later, earlier = root / "news" / f"{dates[30]}.emb", root / "news" / f"{dates[2]}.emb"
    fault(later)
    with pytest.raises(DataFormatError) as err:
        prepare_dataset(root, t_window=8, horizon=1, max_news=5)
    assert str(err.value).startswith(f"{later}: {message}")
    _non_finite_day(earlier)
    with pytest.raises(DataFormatError) as err:
        prepare_dataset(root, t_window=8, horizon=1, max_news=5)
    assert str(err.value) == f"{earlier}: payload contains non-finite floats"


def test_the_first_news_file_holding_a_non_finite_float_is_named(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=40, dim=4, seed=3)
    dates = trading_dates(40)
    news = root / "news"
    (news / f"{dates[9]}.emb").unlink()
    write_news_day(news / f"{dates[10]}.emb", np.zeros((0, 4)))
    for i, value in ((30, -np.inf), (12, np.nan), (11, np.inf)):  # each file earlier than the ones before
        rows = np.ones((3, 4), "<f4")
        rows.flat[-1 if i == 12 else 0] = value  # the first float after an empty day's, or a file's last
        (news / f"{dates[i]}.emb").write_bytes(NEWS_MAGIC + struct.pack("<II", 3, 4) + rows.tobytes())
        with pytest.raises(DataFormatError) as err:
            prepare_dataset(root, t_window=8, horizon=1)
        assert str(err.value) == f"{news / dates[i]}.emb: payload contains non-finite floats"
    for i in (12, 30):  # day 11's +inf alone, as day 30's -inf was at first
        (news / f"{dates[i]}.emb").unlink()
    with pytest.raises(DataFormatError) as err:
        prepare_dataset(root, t_window=8, horizon=1)
    assert str(err.value) == f"{news / dates[11]}.emb: payload contains non-finite floats"


def test_a_files_faults_are_named_header_magic_size_non_finite_dim_then_max_news(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=40, dim=4, seed=3)
    path = root / "news" / f"{trading_dates(40)[10]}.emb"
    nan, ones = np.full((9, 7), np.nan, "<f4").tobytes(), np.ones((9, 7), "<f4").tobytes()
    header = NEWS_MAGIC + struct.pack("<II", 9, 7)
    cases = [  # each file has every fault of the cases below it
        (NEWS_MAGIC[:5], "truncated header (5 bytes)"),
        (b"NOTMAGIC" + header[8:] + nan[:-4], "bad magic"),
        (header + nan[:-4], "payload is 264 bytes, expected 268 for n=9 d=7"),
        (header + nan, "payload contains non-finite floats"),
        (header + ones, "embedding dim 7 != 4"),
        (NEWS_MAGIC + struct.pack("<II", 9, 4) + ones[: 9 * 4 * 4], "9 articles, more than max_news_per_day = 5"),
    ]
    for raw, message in cases:
        path.write_bytes(raw)
        with pytest.raises(DataFormatError) as err:
            prepare_dataset(root, t_window=8, horizon=1, max_news=5)
        assert str(err.value).startswith(f"{path}: {message}")


def test_a_calendar_mismatch_is_named_after_every_news_error(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=40, dim=4, seed=3)
    dates = trading_dates(40)
    beta = root / "beta" / "prices.csv"
    write_prices(beta, dates[:-1] + ["2021-12-31"], load_prices(beta)[1])
    with pytest.raises(DataFormatError, match="^beta: trading calendar differs"):
        prepare_dataset(root, t_window=8, horizon=1)
    last = root / "news" / f"{dates[-1]}.emb"  # the last day of alpha's calendar, the one read
    last.write_bytes(b"NOTMAGIC" + bytes(8))
    with pytest.raises(DataFormatError) as err:
        prepare_dataset(root, t_window=8, horizon=1)
    assert str(err.value).startswith(f"{last}: bad magic")


def test_mismatched_calendars_rejected(tmp_path):
    dates = trading_dates(30)
    rng = np.random.default_rng(0)
    root = tmp_path / "data"
    write_dataset_dir(
        root,
        dates,
        {"a": rng.uniform(50, 60, 30), "b": rng.uniform(50, 60, 30)},
        {"a": rng.normal(size=3), "b": rng.normal(size=3)},
        None,
    )
    other_dates = trading_dates(30, start=__import__("datetime").date(2022, 1, 3))
    write_prices(root / "b" / "prices.csv", other_dates, rng.uniform(50, 60, 30))
    with pytest.raises(DataFormatError, match="calendar"):
        prepare_dataset(root, t_window=8, horizon=1)


def test_news_dim_mismatch_rejected(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=40, dim=4, seed=3, with_news=False)
    bad_day = trading_dates(40)[0]
    (root / "news").mkdir(exist_ok=True)
    write_news_day(root / "news" / f"{bad_day}.emb", np.ones((2, 7)))
    with pytest.raises(DataFormatError, match="dim"):
        prepare_dataset(root, t_window=8, horizon=1)


def test_news_scaler_fit_on_training_articles_only(tmp_path):
    rng = np.random.default_rng(4)
    n_days = 90
    news = random_news(rng, n_days, 4)
    dates = trading_dates(n_days)
    closes = {"a": rng.uniform(90, 110, n_days)}
    embs = {"a": rng.normal(size=4)}
    ds = inmemory_dataset(closes, news, embs, 8, 1)
    train_hi = ds.splits.train[1]
    train_articles = np.concatenate([m for m in news[:train_hi] if m.shape[0]], axis=0)
    fresh = fit_scaler(train_articles, "news")
    np.testing.assert_array_equal(fresh.mean, ds.news_scaler.mean)
    np.testing.assert_array_equal(fresh.std, ds.news_scaler.std)


def test_prepare_dataset_reads_each_input_file_once(tmp_path, monkeypatch):
    data = toy_dataset_dir(tmp_path / "data", n_days=90)
    reads = Counter()
    real_open, real_read_bytes = builtins.open, Path.read_bytes

    def counting_open(file, *args, **kwargs):
        reads[Path(file).relative_to(data).as_posix()] += 1
        return real_open(file, *args, **kwargs)

    def counting_read_bytes(path):
        reads[path.relative_to(data).as_posix()] += 1
        return real_read_bytes(path)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    ds = prepare_dataset(data, 8, 1)
    monkeypatch.undo()
    news = {f"news/{name.name}" for name in (data / "news").iterdir()}
    assert set(reads) == {"names.tsv", "alpha/prices.csv", "beta/prices.csv"} | news
    assert set(reads.values()) == {1}
    # the manifest hashes exactly the bytes on disk
    text = manifest_text(ds)
    for rel in reads:
        assert hashlib.sha256((data / rel).read_bytes()).hexdigest() in text
