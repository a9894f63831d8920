from dataclasses import replace

import numpy as np
import pytest

from oracles import scaled_attention_oracle, sum_all
from snfuse.backbone import (
    backbone_forward,
    forward_backbone,
    make_prototypes,
    num_patches,
    patchify,
    prototype_keys,
    reprogram,
)
from snfuse.config import RunConfig
from snfuse.data import write_news_day
from snfuse.errors import DataFormatError
from snfuse.model import ForecastModel
from snfuse.optim import ParamSet, backward
from snfuse.tensor import Tensor, no_grad, repeat_windows


# -- prototypes ----------------------------------------------------------


def test_prototypes_one_hot_selection():
    vocab = Tensor(np.arange(12, dtype=float).reshape(4, 3))
    w = np.zeros((4, 2))
    w[1, 0] = 1.0
    w[3, 1] = 1.0
    out = make_prototypes(vocab, Tensor(w))
    assert out.shape == (1, 2, 3)
    np.testing.assert_array_equal(out.data[0], vocab.data[[1, 3]])


def test_prototypes_uniform_projection_is_vocab_mean():
    vocab = Tensor(np.random.default_rng(0).normal(size=(8, 3)))
    out = make_prototypes(vocab, Tensor(np.full((8, 2), 1.0 / 8.0)))
    np.testing.assert_allclose(out.data[0], np.tile(vocab.data.mean(axis=0), (2, 1)), atol=1e-12)


def test_prototypes_gradient_hits_projection_not_vocab():
    params = ParamSet()
    vocab = params.add("vocab", np.random.default_rng(1).normal(size=(4, 3)), frozen=True)
    params.add("w", np.random.default_rng(2).normal(size=(4, 2)))
    grads = backward(sum_all(make_prototypes(vocab, params["w"])), params)
    assert set(grads) == {"w"}
    assert vocab.grad is None


def test_prototypes_are_copied_per_window_only_on_a_tape():
    params = ParamSet()
    vocab = params.add("vocab", np.random.default_rng(1).normal(size=(6, 3)), frozen=True)
    w = params.add("w", np.random.default_rng(2).normal(size=(6, 2)))
    with no_grad():  # one set, which every window's patches attend to
        shared = make_prototypes(vocab, w, 5)
        assert repeat_windows(w, 5).shape == (1, 6, 2)
    assert shared.shape == (1, 2, 3)
    assert make_prototypes(vocab, Tensor(w.data), 5).shape == (1, 2, 3)  # nothing to record
    taped = make_prototypes(vocab, w, 5)
    assert taped.shape == (5, 2, 3)
    assert all(np.array_equal(window, shared.data[0]) for window in taped.data)


# -- patchify --------------------------------------------------------------


def test_patchify_counts():
    # window-count formula: floor((T - len) / stride) + 1
    assert num_patches(20, 5, 5) == 4
    assert num_patches(20, 20, 1) == 1
    assert num_patches(20, 1, 1) == 20


def test_patchify_whole_window_single_patch():
    x = np.arange(12, dtype=float).reshape(1, 4, 3)
    out = patchify(Tensor(x), 4, 1)
    assert out.shape == (1, 1, 12)
    np.testing.assert_array_equal(out.data.reshape(-1), x.reshape(-1))


def test_patchify_time_major_flattening():
    x = np.arange(40, dtype=float).reshape(2, 10, 2)
    out = patchify(Tensor(x), 3, 2)
    assert out.shape == (2, 4, 6)
    np.testing.assert_array_equal(out.data[0, 1], x[0, 2:5].reshape(-1))
    np.testing.assert_array_equal(out.data[1, 3], x[1, 6:9].reshape(-1))


# -- reprogramming -----------------------------------------------------------


def _reprog_params(rng, in_dim, d_model, identity=False):
    params = ParamSet()
    if identity:
        params.add("reprog.patch_lift.w", np.eye(in_dim, d_model))
        params.add("reprog.patch_lift.b", np.zeros(d_model))
        for letter in ("q", "k", "v"):
            params.add(f"reprog.attn.w{letter}", np.eye(d_model))
    else:
        params.add("reprog.patch_lift.w", rng.uniform(-1, 1, size=(in_dim, d_model)))
        params.add("reprog.patch_lift.b", rng.uniform(-0.2, 0.2, size=d_model))
        for letter in ("q", "k", "v"):
            params.add(f"reprog.attn.w{letter}", rng.uniform(-1, 1, size=(d_model, d_model)))
    return params


def test_reprogram_single_prototype_everywhere():
    rng = np.random.default_rng(3)
    d_model = 4
    params = _reprog_params(rng, d_model, d_model, identity=True)
    protos = rng.normal(size=(1, d_model))
    patches = rng.normal(size=(3, d_model))
    out = reprogram(Tensor(patches), prototype_keys(Tensor(protos), params), params, n_heads=1)
    np.testing.assert_allclose(out.data, np.tile(protos[0], (3, 1)), atol=1e-12)


def test_reprogram_zero_logits_means_prototype_mean():
    rng = np.random.default_rng(4)
    d_model = 4
    params = _reprog_params(rng, d_model, d_model, identity=True)
    protos = rng.normal(size=(5, d_model))
    out = reprogram(Tensor(np.zeros((2, d_model))), prototype_keys(Tensor(protos), params), params, n_heads=1)
    np.testing.assert_allclose(out.data, np.tile(protos.mean(axis=0), (2, 1)), atol=1e-12)


def test_reprogram_matches_scalar_attention_oracle():
    rng = np.random.default_rng(5)
    d_model = 4
    params = _reprog_params(rng, d_model, d_model, identity=True)
    protos = rng.uniform(-1, 1, size=(5, d_model))
    patches = rng.uniform(-1, 1, size=(3, d_model))
    out = reprogram(Tensor(patches), prototype_keys(Tensor(protos), params), params, n_heads=1)
    expected = scaled_attention_oracle(patches.tolist(), protos.tolist(), protos.tolist(), np.sqrt(d_model))
    np.testing.assert_allclose(out.data, expected, atol=1e-10)


def test_reprogram_attention_weights_sum_to_one():
    # indirect check: constant-value prototypes collapse to that constant
    rng = np.random.default_rng(6)
    d_model = 4
    params = _reprog_params(rng, d_model, d_model, identity=True)
    protos = np.tile(rng.normal(size=d_model), (6, 1))
    patches = rng.normal(size=(3, d_model))
    out = reprogram(Tensor(patches), prototype_keys(Tensor(protos), params), params, n_heads=1)
    np.testing.assert_allclose(out.data, np.tile(protos[0], (3, 1)), atol=1e-12)


# -- frozen stack ------------------------------------------------------------


def _model(cfg_kwargs=None, dim=4):
    kwargs = dict(t_window=6, patch_len=3, patch_stride=3, d_model=8, n_heads=2,
                  n_layers=2, ffn_dim=16, vocab_size=16, num_prototypes=4, seed=0)
    if cfg_kwargs:
        kwargs.update(cfg_kwargs)
    cfg = RunConfig(**kwargs)
    return ForecastModel(cfg, dim)


def _toy_sample(rng, model, zero_day=None):
    cfg = model.cfg
    prices = rng.uniform(-1, 1, size=cfg.t_window)
    news = []
    for day in range(cfg.t_window):
        n = 0 if day == zero_day else int(rng.integers(1, 4))
        news.append(rng.uniform(-1, 1, size=(n, model.dim)))
    emb = rng.uniform(-1, 1, size=model.dim)
    target = rng.uniform(-1, 1, size=cfg.horizon)
    return prices, news, emb, target


def test_forward_backbone_output_shapes():
    model = _model()
    rng = np.random.default_rng(7)
    prices, news, emb, _ = _toy_sample(rng, model)
    pred = model.predict_sample(prices, news, emb)
    assert pred.shape == (1, 1)

    model5 = _model({"horizon": 5})
    pred5 = model5.predict_sample(prices, news, emb)
    assert pred5.shape == (1, 5)


def test_snp_changes_sequence_and_output():
    rng = np.random.default_rng(8)
    off = _model({"snp": False})
    on = _model({"snp": True})
    prices, news, emb, _ = _toy_sample(rng, off)
    pred_off = off.predict_sample(prices, news, emb).data
    pred_on = on.predict_sample(prices, news, emb).data
    assert not np.allclose(pred_off, pred_on)
    assert "reprog.prompt.w" in on.params.ids()
    assert "reprog.prompt.w" not in off.params.ids()


def test_backbone_forward_deterministic():
    model = _model()
    x = np.random.default_rng(9).normal(size=(4, 8))
    a = backbone_forward(Tensor(x), model.params, 2, 2).data
    b = backbone_forward(Tensor(x), model.params, 2, 2).data
    assert np.array_equal(a, b)


def test_model_end_to_end_determinism_fresh_instances():
    rng = np.random.default_rng(10)
    prices, news, emb, _ = _toy_sample(rng, _model())
    a = _model().predict_sample(prices, news, emb).data
    b = _model().predict_sample(prices, news, emb).data
    assert np.array_equal(a, b)


def test_frozen_ids_cover_vocab_and_blocks_only():
    model = _model()
    frozen = model.params.frozen
    assert "backbone.vocab" in frozen
    assert all(pid.startswith("backbone.") for pid in frozen)
    trainable = model.params.trainable_ids()
    assert all(not pid.startswith("backbone.") for pid in trainable)


def test_trainable_set_gets_gradients_everywhere():
    model = _model({"pooling": "sap", "snp": True})
    rng = np.random.default_rng(11)
    batch = [_toy_sample(rng, model) for _ in range(3)]
    grads = backward(model.batch_loss(batch), model.params)
    assert set(grads) == set(model.params.trainable_ids())
    nonzero = [pid for pid, g in grads.items() if np.any(g != 0)]
    assert set(nonzero) == set(grads), sorted(set(grads) - set(nonzero))


def test_vocab_file_shape_guard(tmp_path):
    path = tmp_path / "vocab.emb"
    write_news_day(path, np.zeros((8, 8)))
    cfg = RunConfig(t_window=6, patch_len=3, d_model=8, n_heads=2, vocab_size=16, num_prototypes=4,
                    vocab_file=str(path))
    with pytest.raises(DataFormatError, match=r"vocab\.emb: vocabulary shape \(8, 8\) != \(16, 8\)"):
        ForecastModel(cfg, 4)


def test_vocab_file_used_when_given(tmp_path):
    vocab = np.random.default_rng(12).normal(size=(16, 8)).astype(np.float32).astype(np.float64)
    path = tmp_path / "vocab.emb"
    write_news_day(path, vocab)
    model = _model()
    explicit = ForecastModel(replace(model.cfg, vocab_file=str(path)), 4)
    np.testing.assert_array_equal(explicit.params["backbone.vocab"].data, vocab)
    assert not np.array_equal(model.params["backbone.vocab"].data, vocab)
