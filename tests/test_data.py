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
    Splits,
    build_windows,
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


# -- scaler ------------------------------------------------------------


def test_fit_scaler_hand_values():
    scaler = fit_scaler(np.array([1.0, 2.0, 3.0]), "price")
    assert scaler.mean == 2.0
    np.testing.assert_allclose(scaler.std, np.sqrt(2.0 / 3.0), rtol=1e-15)
    np.testing.assert_allclose(scaler.transform(np.array(3.0)), 1.224745, atol=5e-7)


def test_fit_scaler_constant_passthrough():
    scaler = fit_scaler(np.array([4.0, 4.0, 4.0]), "price")
    assert scaler.constant
    np.testing.assert_array_equal(scaler.transform(np.array([4.0, 5.0])), [0.0, 1.0])


def test_fit_scaler_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit_scaler(np.array([]), "price")


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


def test_build_windows_single_split_count():
    # enumeration oracle: valid end positions for N=25, T=20, H=1 are days 20..24
    splits = Splits(train=(0, 25), val=(25, 25), test=(25, 25))
    samples, skipped = build_windows("s", 25, 20, 1, splits)
    assert len(samples["train"]) == 5
    assert skipped == 0
    targets = [s.target_days.start for s in samples["train"]]
    assert targets == [20, 21, 22, 23, 24]


def test_build_windows_h5_reduces_count_by_4():
    splits = Splits(train=(0, 30), val=(30, 30), test=(30, 30))
    h1, _ = build_windows("s", 30, 20, 1, splits)
    h5, _ = build_windows("s", 30, 20, 5, splits)
    assert len(h1["train"]) - len(h5["train"]) == 4


def test_build_windows_targets_after_window():
    splits = split_indices(60)
    samples, _ = build_windows("s", 60, 8, 1, splits)
    for split_samples in samples.values():
        for s in split_samples:
            assert s.target_days.start == s.window_days.stop
            assert s.window_days.stop - s.window_days.start == 8


def test_build_windows_counts_boundary_skips():
    splits = split_indices(60)  # (42, 6, 12)
    samples, skipped = build_windows("s", 60, 8, 1, splits)
    total_possible = 60 - 9 + 1
    kept = sum(len(v) for v in samples.values())
    assert kept + skipped == total_possible
    assert skipped > 0


def test_build_windows_too_short_series():
    # build_windows trusts its caller; assembling the dataset refuses the short series first
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
