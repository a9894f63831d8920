import numpy as np
import pytest

import snfuse.pooling
from snfuse import mse_loss
from snfuse.config import RunConfig
from snfuse.errors import DataFormatError
from snfuse.model import PREDICT_CHUNK, ForecastModel
from snfuse.optim import backward
from snfuse.tensor import Tensor, grad_enabled
from snfuse.training import ABLATION_ROWS


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


def test_pos_table_built_only_for_pasap():
    for pooling in ("none", "ap", "cap", "sap"):
        assert ForecastModel(_tiny_cfg(pooling=pooling), 4).pos_table is None
    assert ForecastModel(_tiny_cfg(pooling="pasap"), 4).pos_table.shape == (16, 4)


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
    samples = _windows(cfg, n_stocks=2, per_stock=19)  # 38: one full chunk and a partial one
    assert len(samples) % PREDICT_CHUNK != 0 and any(day.shape[0] == 0 for day in samples[0][1])
    ref = np.concatenate([model.predict_sample(p, n, e).data for p, n, e, _ in samples])
    many = model.predict_many(samples)
    assert many.shape == (len(samples), cfg.horizon)
    # 1e-12 relative, measured against the batch's largest prediction: a prediction that
    # cancels to near zero (1.5e-4 in one case here) still carries the ulps of O(1) terms
    np.testing.assert_allclose(many, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_predict_many_of_no_samples_and_on_a_tape():
    model = ForecastModel(_tiny_cfg(), 4)
    assert model.predict_many([]).shape == (0, 1)
    samples = _windows(model.cfg, n_stocks=1, per_stock=3)
    # the stacked ops refuse to run on a tape, but predict_many opens its own no_grad scope
    assert grad_enabled()
    ref = [model.predict_sample(p, n, e).item() for p, n, e, _ in samples]
    np.testing.assert_allclose(model.predict_many(samples)[:, 0], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
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


@pytest.mark.parametrize("variant", ["ap", "cap", "sap", "pasap"])
def test_pool_rows_match_pool_day_per_day(variant):
    model = ForecastModel(_tiny_cfg(pooling=variant), 4)
    samples = _windows(model.cfg, n_stocks=2, per_stock=3)
    pooled, index = model._pool(samples)
    slots = [(day, emb) for _, news, emb, _ in samples for day in news]
    assert index.shape == (len(slots),)
    # one row per distinct (day, stock), in order of first use
    assert pooled.shape[0] == len({(id(day), id(emb)) for day, emb in slots}) == index.max() + 1
    first_use = np.unique(index, return_index=True)[1]  # the first slot of each row
    assert np.all(np.diff(first_use) > 0)
    w = model.params[snfuse.pooling.PARAM[variant]]
    for (day, emb), row in zip(slots, index):
        ref = snfuse.pooling.pool_day(variant, day, emb, w, model.pos_table).pooled.data
        np.testing.assert_array_equal(pooled.data[row : row + 1], ref)
        if day.shape[0] == 0:  # the zero-news day: zeros, or the name itself for sap
            np.testing.assert_array_equal(pooled.data[row], emb if variant == "sap" else 0.0)


@pytest.mark.parametrize("variant", ["ap", "cap", "sap", "pasap"])
def test_predict_many_pools_each_day_and_stock_once_per_call(variant, monkeypatch):
    pooled = []
    real = snfuse.pooling.pool_day
    monkeypatch.setattr(snfuse.pooling, "pool_day",
                        lambda v, day, emb, *rest: pooled.append((id(day), id(emb))) or real(v, day, emb, *rest))
    model = ForecastModel(_tiny_cfg(pooling=variant), 4)
    # overlapping windows of two stocks over three chunks: the first stock's last windows
    # share days with the ones before them in another chunk, so pooling per chunk pools twice
    samples = _windows(model.cfg, n_stocks=2, per_stock=PREDICT_CHUNK + 4)
    model.predict_many(samples)
    distinct = {(id(day), id(emb)) for _, news, emb, _ in samples for day in news}
    assert len(samples) > PREDICT_CHUNK
    assert sorted(pooled) == sorted(distinct)


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
