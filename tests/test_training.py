import math
from types import SimpleNamespace

import numpy as np
import pytest

import snfuse.training
from datagen import checkpoint_bytes
from snfuse.config import RunConfig
from snfuse.errors import DataFormatError
from snfuse.training import EarlyStopper, EvalReport, load_checkpoint, multi_seed


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


def test_early_stopper_improves_stalls_and_stops():
    stopper = EarlyStopper(patience=2)
    assert stopper.update(1, 1.0) is False  # first epoch always improves on inf
    assert stopper.update(2, 1.1) is False  # one bad epoch
    assert stopper.update(3, 0.5) is False  # improvement resets the count
    assert (stopper.best, stopper.best_epoch, stopper.bad_epochs) == (0.5, 3, 0)
    assert stopper.update(4, 0.5) is False  # equal is not an improvement
    assert stopper.bad_epochs == 1
    assert stopper.update(5, 0.7) is True  # second bad epoch in a row: stop
    assert (stopper.best, stopper.best_epoch) == (0.5, 3)


def test_multi_seed_std_divides_by_k_minus_1(monkeypatch):
    # per-seed (mae, mse) of the one stock; training and evaluation are stubbed out
    figures = {1: (1.0, 1.0), 2: (2.0, 2.0), 3: (4.0, 6.0)}
    monkeypatch.setattr(snfuse.training, "ForecastModel", lambda cfg, dim, vocab=None: SimpleNamespace(cfg=cfg))
    monkeypatch.setattr(snfuse.training, "train", lambda model, ds, cfg: None)

    def fake_evaluate(model, ds):
        mae, mse = figures[model.cfg.seed]
        return EvalReport(rows=[("alpha", mae, mse)], avg_mae=mae, avg_mse=mse, seed=model.cfg.seed, cfg_hash="")

    monkeypatch.setattr(snfuse.training, "evaluate", fake_evaluate)
    summary = multi_seed(SimpleNamespace(dim=4), RunConfig(), [1, 2, 3])
    # mae: mean 7/3, squared deviations 16/9 + 1/9 + 25/9 = 42/9, over k - 1 = 2
    # mse: mean 3, squared deviations 4 + 1 + 9 = 14, over 2
    for stock in ("alpha", "average"):
        got = summary.per_stock[stock]
        assert got["mae_mean"] == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert got["mae_std"] == pytest.approx(math.sqrt(21.0 / 9.0), rel=1e-15)
        assert got["mse_mean"] == pytest.approx(3.0, rel=1e-15)
        assert got["mse_std"] == pytest.approx(math.sqrt(7.0), rel=1e-15)
    with pytest.raises(ValueError, match="at least 2 seeds"):
        multi_seed(SimpleNamespace(dim=4), RunConfig(), [1])
