import dataclasses
import gc
import math
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import snfuse.training  # noqa: E402
from datagen import checkpoint_bytes, signal_dataset  # noqa: E402
from snfuse.config import RunConfig  # noqa: E402
from snfuse.data import prepare_dataset  # noqa: E402
from snfuse.errors import DataFormatError  # noqa: E402
from snfuse.model import ForecastModel, mse_loss  # noqa: E402
from snfuse.tensor import concat  # noqa: E402
from snfuse.training import EvalReport, load_checkpoint, multi_seed, save_checkpoint, train  # noqa: E402
from workloads import WORKLOADS, generate, run_config  # noqa: E402


def test_load_checkpoint_round_trips_hand_built_file(tmp_path):
    path = tmp_path / "ok.snf"
    path.write_bytes(checkpoint_bytes([("a", np.arange(3.0)), ("b", np.eye(2))]))
    ckpt = load_checkpoint(path)
    assert (ckpt.cfg_hash, ckpt.manifest_hash) == ("cfg-digest", "manifest-digest")
    np.testing.assert_array_equal(ckpt.tensors["a"], np.arange(3.0))
    np.testing.assert_array_equal(ckpt.tensors["b"], np.eye(2))


def test_load_checkpoint_rejects_duplicate_tensor_names(tmp_path):
    path = tmp_path / "dup.snf"
    path.write_bytes(checkpoint_bytes([("w", np.zeros(2)), ("w", np.ones(2))]))
    with pytest.raises(DataFormatError, match="duplicate tensor 'w'"):
        load_checkpoint(path)


def _scripted_train(monkeypatch, mses, patience=2):
    """train() on a small dataset whose epoch scores are scripted: each epoch takes the next two of
    `mses`, the train split's and then the val split's. Returns the TrainResult, the model, and the
    trainable parameters at each scoring."""
    ds = signal_dataset(n_days=100)
    cfg = RunConfig(t_window=8, patch_len=4, patch_stride=4, d_model=8, n_layers=1, n_heads=2, ffn_dim=8,
                    vocab_size=8, num_prototypes=4, dim=8, max_epochs=10, patience=patience)
    scripted = iter(mses)
    scored = []

    def dataset_mse(model, resolved):
        scored.append(model.params.snapshot())
        return next(scripted)

    monkeypatch.setattr(snfuse.training, "_dataset_mse", dataset_mse)
    model = ForecastModel(cfg, ds.dim)
    return train(model, ds, cfg), model, scored


def test_early_stopper_improves_stalls_and_stops(monkeypatch):
    val = [1.0, 1.1, 0.5, 0.5, 0.7, 0.4, 0.3]  # the last two are never scored
    result, _, _ = _scripted_train(monkeypatch, [x for v in val for x in (9.0, v)], patience=2)
    # epoch 1 improves on inf; epoch 2 is one bad epoch; epoch 3's improvement resets the count, so
    # epochs 2 and 4 do not stop training; epoch 4's equal MSE is no improvement; epoch 5 is the second
    # bad epoch in a row: stop
    assert [(r.epoch, r.val_mse, r.improved) for r in result.history] == [
        (1, 1.0, True), (2, 1.1, False), (3, 0.5, True), (4, 0.5, False), (5, 0.7, False)]
    assert (result.best_epoch, result.best_val_mse) == (3, 0.5)


def test_multi_seed_std_divides_by_k_minus_1(monkeypatch):
    # per-seed (mae, mse) of each stock; training and evaluation are stubbed out. beta sorts after
    # "average", and the average row still comes last, as in eval.csv
    figures = {1: (1.0, 1.0), 2: (2.0, 2.0), 3: (4.0, 6.0)}
    monkeypatch.setattr(snfuse.training, "ForecastModel", lambda cfg, dim: SimpleNamespace(cfg=cfg))
    monkeypatch.setattr(snfuse.training, "train", lambda model, ds, cfg: None)

    def fake_evaluate(model, ds):
        mae, mse = figures[model.cfg.seed]
        return EvalReport(rows=[("alpha", mae, mse), ("beta", mae, mse)], avg_mae=mae, avg_mse=mse)

    monkeypatch.setattr(snfuse.training, "evaluate", fake_evaluate)
    text, reports = multi_seed(SimpleNamespace(dim=4), RunConfig(), [1, 2, 3])
    assert [r.avg_mse for r in reports] == [1.0, 2.0, 6.0]
    header, *lines = text.splitlines()
    assert header == "stock,mae_mean,mae_std,mse_mean,mse_std"
    rows = {stock: [float(v) for v in rest] for stock, *rest in (line.split(",") for line in lines)}
    assert list(rows) == ["alpha", "beta", "average"]
    # mae: mean 7/3, squared deviations 16/9 + 1/9 + 25/9 = 42/9, over k - 1 = 2
    # mse: mean 3, squared deviations 4 + 1 + 9 = 14, over 2
    for mae_mean, mae_std, mse_mean, mse_std in rows.values():
        assert mae_mean == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert mae_std == pytest.approx(math.sqrt(21.0 / 9.0), rel=1e-15)
        assert mse_mean == pytest.approx(3.0, rel=1e-15)
        assert mse_std == pytest.approx(math.sqrt(7.0), rel=1e-15)
    with pytest.raises(ValueError, match="at least 2 seeds"):
        multi_seed(SimpleNamespace(dim=4), RunConfig(), [1])


def test_patience_stops_training_early_and_restores_the_best_epochs_parameters(monkeypatch):
    # epoch 2 is best, epochs 3 and 4 use up the patience
    result, model, scored = _scripted_train(monkeypatch, [1.0, 1.0, 0.9, 0.5, 0.8, 0.7, 0.7, 0.9])
    assert [(r.epoch, r.train_mse, r.val_mse, r.improved) for r in result.history] == [
        (1, 1.0, 1.0, True), (2, 0.9, 0.5, True), (3, 0.8, 0.7, False), (4, 0.7, 0.9, False)]
    assert (result.best_epoch, result.best_val_mse) == (2, 0.5)
    final = model.params.snapshot()
    assert final.keys() == scored[3].keys()
    assert all(np.array_equal(final[pid], scored[3][pid]) for pid in final)  # epoch 2's, as val scored them
    assert not all(np.array_equal(final[pid], scored[7][pid]) for pid in final)  # not the last epoch's


def _loss_window_by_window(model, batch):
    """The loss of a batch whose windows are taped one after another through predict_sample."""
    preds = concat([model.predict_sample(prices, news, emb) for prices, news, emb, _ in batch], -2)
    return mse_loss(preds, np.stack([np.asarray(t, dtype=np.float64).reshape(-1) for *_, t in batch]))


@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
def test_stacked_steps_train_the_checkpoint_that_window_by_window_steps_do(pooling, tmp_path, monkeypatch):
    # widths where BLAS bits depend on operand layout; 112 train windows in batches of 3 leave one of 1
    ds = signal_dataset(n_days=92, dim=32)
    cfg = RunConfig(t_window=8, patch_len=4, patch_stride=4, d_model=32, n_layers=1, n_heads=2, ffn_dim=16,
                    vocab_size=32, num_prototypes=16, dim=32, pooling=pooling, snp=True, batch_size=3,
                    max_epochs=2, patience=2)

    def checkpoint(name):
        model = ForecastModel(cfg, ds.dim)
        train(model, ds, cfg)
        save_checkpoint(tmp_path / name, model, "manifest-digest")
        return (tmp_path / name).read_bytes()

    stacked = checkpoint("stacked.snf")
    monkeypatch.setattr(ForecastModel, "batch_loss", _loss_window_by_window)
    assert len(ds.samples["train"]) % cfg.batch_size == 1
    assert checkpoint("window_by_window.snf") == stacked


def test_a_training_step_starts_with_nothing_left_of_the_step_before(tmp_path, monkeypatch):
    # the previous step's loss and gradient map, kept bound through the next forward and backward, hold
    # its whole tape: every activation and the .grad the walk left on each node
    w = dataclasses.replace(WORKLOADS["signal_train"], n_days=120, epochs=1)
    cfg = run_config(w)
    ds = prepare_dataset(generate(w, 0, tmp_path / "data"), cfg.t_window, cfg.horizon)
    model = ForecastModel(cfg, ds.dim)
    step_arrays, alive = [], []
    real_loss, real_backward = ForecastModel.batch_loss, snfuse.training.backward

    def batch_loss(self, batch):
        alive.append(sum(ref() is not None for ref in step_arrays))
        loss = real_loss(self, batch)
        step_arrays.append(weakref.ref(loss.data))
        return loss

    def backward(loss, params):
        grads = real_backward(loss, params)
        step_arrays.extend(weakref.ref(g) for g in grads.values())
        return grads

    monkeypatch.setattr(ForecastModel, "batch_loss", batch_loss)
    monkeypatch.setattr(snfuse.training, "backward", backward)
    gc.disable()  # freed as the names go, not by a later collection
    try:
        train(model, ds, cfg)
    finally:
        gc.enable()
    assert len(alive) == math.ceil(len(ds.samples["train"]) / cfg.batch_size) > 1  # one epoch of steps
    assert alive == [0] * len(alive)
