import builtins
import hashlib
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
from snfuse.data import (
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
    import struct

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
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path.name) or real(path))
    text = manifest_text(prepare_dataset(root, t_window=8, horizon=1))
    news = sorted((root / "news").iterdir())
    assert news and sorted(name for name in reads if name.endswith(".emb")) == [path.name for path in news]
    for path in news:
        assert f"file {hashlib.sha256(real(path)).hexdigest()} news/{path.name}\n" in text


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


def test_missing_news_files_count_as_zero_days(tmp_path):
    root = toy_dataset_dir(tmp_path / "data", n_days=90, dim=4, seed=3, with_news=False)
    ds = prepare_dataset(root, t_window=8, horizon=1)
    assert ds.missing_news_days == 90
    assert all(m.shape == (0, 4) for m in ds.news)


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
