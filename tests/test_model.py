import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import snfuse.fusion
import snfuse.model
import snfuse.pooling
from datagen import toy_dataset_dir
from snfuse.config import RunConfig
from snfuse.data import prepare_dataset
from snfuse.errors import DataFormatError
from snfuse.model import PREDICT_ROWS, ForecastModel, mse_loss
from snfuse.optim import backward
from snfuse.tensor import Tensor, grad_enabled
from snfuse.training import ABLATION_ROWS, evaluate


def _tiny_cfg(**overrides) -> RunConfig:
    base = dict(
        t_window=6, patch_len=3, patch_stride=3, d_model=8, n_layers=1, n_heads=2,
        ffn_dim=8, vocab_size=8, num_prototypes=4, max_news_per_day=16, dim=4,
    )
    base.update(overrides)
    return RunConfig(**base)


def _tiny_batch(t_window: int, dim: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(2):
        news = [rng.normal(size=(0 if day == 1 else int(rng.integers(1, 4)), dim)) for day in range(t_window)]
        batch.append((rng.normal(size=t_window), news, rng.normal(size=dim), rng.normal(size=1)))
    return batch


@pytest.mark.parametrize("pooling", ["ap", "cap", "sap", "pasap"])
@pytest.mark.parametrize("label,flags", ABLATION_ROWS, ids=[label for label, _ in ABLATION_ROWS])
def test_every_ablation_row_trains_every_registered_parameter(pooling, label, flags):
    no_p2n, no_n2p, no_gcn = flags
    cfg = _tiny_cfg(pooling=pooling, no_p2n=no_p2n, no_n2p=no_n2p, no_gcn=no_gcn)
    model = ForecastModel(cfg, cfg.dim)
    expected = {"news", "price"} | {t for t, off in zip(("p2n", "n2p", "gcn"), flags) if not off}
    assert set(model.active_terms) == expected
    # backward raises on any registered trainable parameter the loss does not reach
    grads = backward(model.batch_loss(_tiny_batch(cfg.t_window, cfg.dim)), model.params)
    assert set(grads) == set(model.params.trainable_ids())
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_mse_loss_hand_value_and_shape_guard():
    loss = mse_loss(Tensor([[1.0, 2.0], [3.0, 5.0]]), np.array([[1.0, 0.0], [3.0, 2.0]]))
    assert loss.item() == pytest.approx((0.0 + 4.0 + 0.0 + 9.0) / 4.0)
    with pytest.raises(ValueError, match="shape"):
        mse_loss(Tensor([[1.0, 2.0]]), np.array([1.0, 2.0]))


def _windows(cfg, n_stocks: int, per_stock: int, seed: int = 0):
    """Overlapping windows of a few stocks over one shared news history, resolved
    the way a dataset resolves them (one array per day, one per name)."""
    rng = np.random.default_rng(seed)
    n_days = per_stock + cfg.t_window + cfg.horizon
    days = [rng.normal(size=(0 if i % 5 == 2 else int(rng.integers(1, 6)), cfg.dim)) for i in range(n_days)]
    names = [rng.normal(size=cfg.dim) for _ in range(n_stocks)]
    closes = rng.normal(size=(n_stocks, n_days))
    t = cfg.t_window
    return [(closes[s, i : i + t], days[i : i + t], names[s], closes[s, i + t : i + t + cfg.horizon])
            for s in range(n_stocks) for i in range(per_stock)]


@pytest.mark.parametrize("snp", [False, True], ids=["snp-off", "snp-on"])
@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
@pytest.mark.parametrize("label,flags", ABLATION_ROWS, ids=[label for label, _ in ABLATION_ROWS])
def test_predict_many_matches_predict_sample(pooling, label, flags, snp):
    no_p2n, no_n2p, no_gcn = flags
    # T=7 with patches of 3 every 2 days: overlapping patches and a leftover day
    cfg = _tiny_cfg(t_window=7, patch_len=3, patch_stride=2, horizon=2, pooling=pooling, snp=snp,
                    no_p2n=no_p2n, no_n2p=no_n2p, no_gcn=no_gcn)
    model = ForecastModel(cfg, cfg.dim)
    samples = _windows(cfg, n_stocks=2, per_stock=19)
    assert any(day.shape[0] == 0 for day in samples[0][1])
    _assert_predict_many_matches_predict_sample(model, samples)


def _assert_predict_many_matches_predict_sample(model, samples):
    ref = np.concatenate([model.predict_sample(p, n, e).data for p, n, e, *_ in samples])
    many = model.predict_many(samples)
    assert many.shape == (len(samples), model.cfg.horizon)
    np.testing.assert_array_equal(many, ref)


@pytest.mark.parametrize("snp", [False, True], ids=["snp-off", "snp-on"])
@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
def test_predict_many_matches_predict_sample_across_fusion_chunks_and_backbone_batches(pooling, snp, monkeypatch):
    # one-day patches: n_p = 6 rows of d_model = 8 floats, so the backbone takes the 53 windows that fit
    # a fusion chunk's floats (45 with the prompt), and fusion 106
    cfg = _tiny_cfg(patch_len=1, patch_stride=1, pooling=pooling, snp=snp)
    model = ForecastModel(cfg, cfg.dim)
    samples = _windows(cfg, n_stocks=2, per_stock=120)
    fusion_chunk = PREDICT_ROWS // cfg.t_window
    backbone_batch = PREDICT_ROWS * cfg.dim // (cfg.d_model * (model.n_patches + snp))
    assert len(samples) > 2 * max(fusion_chunk, backbone_batch)
    assert len(samples) % fusion_chunk and len(samples) % backbone_batch
    batches = []
    predict = ForecastModel._predict
    monkeypatch.setattr(ForecastModel, "_predict",
                        lambda self, patches, *rest: batches.append(patches.shape[0]) or predict(self, patches, *rest))
    _assert_predict_many_matches_predict_sample(model, samples)
    assert batches[-3:] == [backbone_batch, backbone_batch, len(samples) % backbone_batch]


def test_training_and_inference_run_one_fusion_forward(monkeypatch):
    # every entry point runs one pipeline, _rows -> _fuse_rows -> fusion's row-by-row parts, and only
    # _rows decides whether slots share rows: on a tape every day slot is its own row
    calls, rows = [], []
    for name in ("fuse_directions", "gcn_fuse"):
        real = getattr(snfuse.fusion, name)
        monkeypatch.setattr(snfuse.fusion, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    real_rows, real_fuse_rows = ForecastModel._rows, ForecastModel._fuse_rows

    def spy_rows(self, samples):
        calls.append("_rows")
        rows.append(real_rows(self, samples))
        return rows[-1]

    monkeypatch.setattr(ForecastModel, "_rows", spy_rows)
    monkeypatch.setattr(ForecastModel, "_fuse_rows",
                        lambda self, *args: calls.append("_fuse_rows") or real_fuse_rows(self, *args))
    model = ForecastModel(_tiny_cfg(), 4)
    assert model.directions == ["p2n", "n2p"] and "gcn" in model.active_terms
    # overlapping windows of two stocks: one stock's windows share their (stock, day, close) rows
    samples = _windows(model.cfg, n_stocks=2, per_stock=3)
    slots = (len(samples), model.cfg.t_window)
    window = samples[0][:3]
    entries = [lambda: model.batch_loss(samples), lambda: model.predict_sample(*window),
               lambda: model.fuse_sample(*window), lambda: model.predict_many(samples)]
    for entry in entries:
        calls.clear()
        entry()
        assert calls == ["_rows", "_fuse_rows", "fuse_directions", "gcn_fuse"]
    (taped, closes, news), *_, (shared, distinct, pooled) = rows
    np.testing.assert_array_equal(taped, np.arange(np.prod(slots)).reshape(slots))
    assert closes.shape == slots and news.shape == (*slots, model.dim)
    assert shared.shape == slots and len(distinct) == len(pooled.data) == shared.max() + 1 < shared.size


@pytest.mark.parametrize("pooling", ["none", "sap"])
def test_a_training_batch_wider_than_a_fusion_chunk_stays_one_tape(pooling, monkeypatch):
    # only predict_many fuses a chunk of windows at a time: with one window a chunk, a training step
    # of 5 windows still runs as one tape, and predict_many still equals predict_sample row by row
    cfg = _tiny_cfg(pooling=pooling, snp=True)
    model = ForecastModel(cfg, cfg.dim)
    samples = _windows(cfg, n_stocks=1, per_stock=5)
    loss = model.batch_loss(samples)
    ref_loss, ref = loss.data.copy(), backward(loss, model.params)
    monkeypatch.setattr(snfuse.model, "PREDICT_ROWS", cfg.t_window)
    loss = model.batch_loss(samples)
    grads = backward(loss, model.params)  # raises if a chunk left the tape: its parameters get no gradient
    assert np.array_equal(loss.data, ref_loss)
    assert set(grads) == set(ref) and [pid for pid in sorted(ref) if not np.array_equal(grads[pid], ref[pid])] == []
    fused = []
    real = ForecastModel._fuse_rows
    monkeypatch.setattr(ForecastModel, "_fuse_rows",
                        lambda self, index, *rest: fused.append(len(index)) or real(self, index, *rest))
    _assert_predict_many_matches_predict_sample(model, samples)
    assert fused == [1] * 2 * len(samples)  # each predict_sample's window, then each of predict_many's chunks


def _peak_bytes(fn) -> int:
    fn()  # warm: the first call sorts each day's articles
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_many_peaks_no_higher_than_a_training_step():
    # signal_train's widths (d = 8 against d_model = 32, T = 8, two patches): a backbone batch sized in
    # rows alone took 320 windows, and predict_many's peak rose above a training step's of 4 windows
    cfg = RunConfig(t_window=8, patch_len=4, patch_stride=4, pooling="sap", dim=8, batch_size=4)
    model = ForecastModel(cfg, cfg.dim)
    samples = _windows(cfg, n_stocks=2, per_stock=150)
    step = _peak_bytes(lambda: backward(model.batch_loss(samples[: cfg.batch_size]), model.params))
    assert _peak_bytes(lambda: model.predict_many(samples)) <= step


@pytest.mark.parametrize("snp", [False, True], ids=["snp-off", "snp-on"])
@pytest.mark.parametrize("pooling", ["none", "sap"])
@pytest.mark.parametrize("t_window", [1, 6])
def test_predict_many_matches_predict_sample_with_one_patch_per_window(t_window, pooling, snp):
    # one patch is one query row per window in the reprogramming attention; against the one
    # prototype set, each window's row is a product of its own, as in predict_sample
    cfg = _tiny_cfg(t_window=t_window, patch_len=t_window, patch_stride=t_window, pooling=pooling, snp=snp)
    model = ForecastModel(cfg, cfg.dim)
    assert model.n_patches == 1
    samples = _windows(cfg, n_stocks=2, per_stock=19)
    _assert_predict_many_matches_predict_sample(model, samples)
    _assert_predict_many_matches_predict_sample(model, samples[:1])


@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
def test_a_day_array_under_two_closes_is_two_rows(pooling):
    # rows are keyed on their (day, stock) and the bits of their close: one array held by two days
    # of a window under different closes, and two windows of one stock and days under different closes
    model = ForecastModel(_tiny_cfg(pooling=pooling), 4)
    (prices, news, emb, target), = _windows(model.cfg, n_stocks=1, per_stock=1)
    repeated = list(news)
    repeated[4] = repeated[3]
    assert prices[3] != prices[4]
    moved = prices.copy()
    moved[2] = np.nextafter(moved[2], np.inf)
    zeroed = prices.copy()
    zeroed[1] = 0.0
    signed = zeroed.copy()
    signed[1] = -0.0
    samples = [(p, repeated, emb, target) for p in (prices, moved, zeroed, signed)]
    _assert_predict_many_matches_predict_sample(model, samples)


@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
def test_a_window_of_one_row_repeated_is_one_padded_row(pooling):
    # T days of one array under one close: one distinct row, padded out to a pseudo-window of T rows
    model = ForecastModel(_tiny_cfg(pooling=pooling), 4)
    rng = np.random.default_rng(4)
    day, emb = rng.normal(size=(3, 4)), rng.normal(size=4)
    t = model.cfg.t_window
    _assert_predict_many_matches_predict_sample(model, [(np.full(t, 0.25), [day] * t, emb, None)])


def test_predict_many_of_no_samples_and_on_a_tape():
    model = ForecastModel(_tiny_cfg(), 4)
    assert model.predict_many([]).shape == (0, 1)
    samples = _windows(model.cfg, n_stocks=1, per_stock=3)
    # predict_many opens its own no_grad scope and leaves the caller's recording on
    assert grad_enabled()
    ref = [model.predict_sample(p, n, e).item() for p, n, e, _ in samples]
    np.testing.assert_array_equal(model.predict_many(samples)[:, 0], ref)
    assert grad_enabled()


@pytest.mark.parametrize("pooling", ["ap", "cap", "sap", "pasap"])
def test_model_refuses_a_day_over_max_news_per_day_both_ways(pooling):
    model = ForecastModel(_tiny_cfg(pooling=pooling, max_news_per_day=16), 4)
    (prices, news, emb, target), = _windows(model.cfg, n_stocks=1, per_stock=1)
    news = list(news)
    news[3] = np.ones((17, 4))
    with pytest.raises(DataFormatError, match="17 articles"):
        model.predict_sample(prices, news, emb)
    with pytest.raises(DataFormatError, match="17 articles"):
        model.predict_many([(prices, news, emb, target)])
    news[3] = np.ones((16, 4))
    model.predict_many([(prices, news, emb, target)])


@pytest.mark.parametrize("pooling", ["sap", "pasap"])
def test_each_day_is_sorted_once_per_model(pooling, monkeypatch):
    sorted_ids = []
    real = snfuse.pooling.canonical_order
    monkeypatch.setattr(snfuse.pooling, "canonical_order", lambda rows: sorted_ids.append(id(rows)) or real(rows))
    model = ForecastModel(_tiny_cfg(pooling=pooling), 4)
    samples = _windows(model.cfg, n_stocks=2, per_stock=5)
    model.batch_loss(samples)
    model.batch_loss(samples)
    model.predict_many(samples)
    # sap sorts every distinct day matrix (empty ones too) exactly once; pasap keeps file order
    days = {id(day) for _, news, _, _ in samples for day in news}
    assert sorted(sorted_ids) == (sorted(days) if pooling == "sap" else [])


def _kernel_calls(monkeypatch) -> list[list[tuple[int, int]]]:
    """The (id(day), id(name)) pairs handed to each call of the stacked pooling kernel, one list per call."""
    calls = []
    real = snfuse.pooling.pool_slots

    def recording(variant, pairs, *rest):
        calls.append([(id(day), id(emb)) for day, emb in pairs])
        return real(variant, pairs, *rest)

    monkeypatch.setattr(snfuse.pooling, "pool_slots", recording)
    return calls


@pytest.mark.parametrize("variant", ["ap", "cap", "sap", "pasap"])
def test_pool_rows_match_pool_day_per_day(variant, monkeypatch):
    model = ForecastModel(_tiny_cfg(pooling=variant), 4)
    samples = _windows(model.cfg, n_stocks=2, per_stock=3)
    calls = _kernel_calls(monkeypatch)
    pooled = model._rows(samples)[2]  # on a tape: the (W, T, d) rows of the day slots
    slots = [(day, emb) for _, news, emb, _ in samples for day in news]
    assert pooled.shape == (len(samples), model.cfg.t_window, model.cfg.dim)
    # one kernel call, handed each distinct (day, stock) once, in order of first use
    assert calls == [list(dict.fromkeys((id(day), id(emb)) for day, emb in slots))]
    assert len(calls[0]) < len(slots)
    model.batch_loss(samples)
    assert len(calls) == 2
    w = model.params[snfuse.pooling.PARAM[variant]]
    for (day, emb), row in zip(slots, pooled.data.reshape(len(slots), -1)):
        ref = snfuse.pooling.pool_day(variant, day, emb, w).pooled.data
        np.testing.assert_array_equal(row[None], ref)
        if day.shape[0] == 0:  # the zero-news day: zeros, or the name itself for sap
            np.testing.assert_array_equal(row, emb if variant == "sap" else 0.0)


@pytest.mark.parametrize("variant", ["ap", "cap", "sap", "pasap"])
def test_predict_many_pools_each_day_and_stock_once_per_call(variant, monkeypatch):
    calls = _kernel_calls(monkeypatch)
    model = ForecastModel(_tiny_cfg(pooling=variant), 4)
    # overlapping windows of two stocks over two fusion chunks: the first stock's last windows
    # share days with the ones before them in another chunk, so pooling per chunk pools twice
    samples = _windows(model.cfg, n_stocks=2, per_stock=60)
    model.predict_many(samples)
    distinct = {(id(day), id(emb)) for _, news, emb, _ in samples for day in news}
    assert len(samples) > PREDICT_ROWS // model.cfg.t_window
    assert len(calls) == 1  # one kernel call for the whole call
    assert sorted(calls[0]) == sorted(distinct)


def test_evaluate_pools_each_test_day_of_each_stock_once(tmp_path, monkeypatch):
    # sample_arrays hands out the dataset's own day and name arrays, which the model recognises by
    # identity; a copy of either would pool one (day, stock) again for every window that covers it
    ds = prepare_dataset(toy_dataset_dir(tmp_path / "data", n_days=200, dim=4), t_window=6, horizon=1)
    model = ForecastModel(_tiny_cfg(), ds.dim)
    calls = _kernel_calls(monkeypatch)
    evaluate(model, ds)
    day_of = {id(day): i for i, day in enumerate(ds.news)}
    stock_of = {id(rec.name_embedding): sid for sid, rec in ds.stocks.items()}
    handed = [(day_of.get(day), stock_of.get(emb)) for call in calls for day, emb in call]
    covered = {(i, s.stock_id) for s in ds.samples["test"] for i in s.window_days}
    assert len(calls) == 1
    assert len(handed) == len(covered) and set(handed) == covered


@pytest.mark.parametrize("variant", ["ap", "cap", "sap", "pasap"])
def test_a_window_that_repeats_a_day_array_matches_a_window_of_copies(variant):
    model = ForecastModel(_tiny_cfg(pooling=variant), 4)
    (prices, news, emb, target), = _windows(model.cfg, n_stocks=1, per_stock=1)
    repeated = list(news)
    repeated[4] = repeated[3]  # the same array twice: pooled once and gathered
    copies = [day.copy() for day in repeated]
    ref = model.predict_sample(prices, copies, emb)
    got = model.predict_sample(prices, repeated, emb)
    np.testing.assert_allclose(got.data, ref.data, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(model.predict_many([(prices, repeated, emb, target)]), ref.data, rtol=1e-12, atol=1e-12)
    pid = snfuse.pooling.PARAM[variant]
    grad_ref = backward(model.batch_loss([(prices, copies, emb, target)]), model.params)[pid]
    grad = backward(model.batch_loss([(prices, repeated, emb, target)]), model.params)[pid]
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-12 * np.abs(grad_ref).max())


def test_pasap_rows_and_predictions_do_not_depend_on_the_article_limit():
    # the position codes are built per call, as long as its longest day: the limit only refuses
    cfg = _tiny_cfg(pooling="pasap", snp=True, max_news_per_day=32, dim=8)
    rng = np.random.default_rng(6)
    days = [rng.normal(size=(n, cfg.dim)) for n in (0, 1, 7, 31, 32, 3, 12, 5, 20, 2)]
    names = [rng.normal(size=cfg.dim) for _ in range(2)]
    samples = [(rng.normal(size=cfg.t_window), days[i : i + cfg.t_window], names[s], rng.normal(size=1))
               for s in range(2) for i in range(len(days) - cfg.t_window + 1)]
    short, long = (ForecastModel(replace(cfg, max_news_per_day=limit), cfg.dim) for limit in (32, 2048))
    np.testing.assert_array_equal(short._rows(samples)[2].data, long._rows(samples)[2].data)
    np.testing.assert_array_equal(short.predict_many(samples), long.predict_many(samples))
    with pytest.raises(DataFormatError, match="33 articles, more than max_news_per_day = 32"):
        short.predict_many([(samples[0][0], [rng.normal(size=(33, cfg.dim))] * cfg.t_window, names[0], None)])
