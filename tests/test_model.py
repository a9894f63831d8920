import numpy as np
import pytest

from snfuse import mse_loss
from snfuse.config import RunConfig
from snfuse.model import ForecastModel
from snfuse.optim import backward
from snfuse.tensor import Tensor
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
