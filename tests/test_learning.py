"""A canary for learning: the model trained in a setting that learns must beat predicting zero.

The data is perfbench's signal_train workload at 600 days: day t's signal
article carries the sign of the next day's move, and the two stocks react
with opposite gains. The setting that learns it (lr 0.003, the stock-name
prompt on, cap pooling, no GCN, batch 16) is named here, not in the
package's defaults, which do not learn on this data. A run that stops
learning reads about zero's MSE; this test fails when the trained model's
test MSE is not below 0.85 of zero's.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from snfuse.data import prepare_dataset  # noqa: E402
from snfuse.model import ForecastModel  # noqa: E402
from snfuse.training import evaluate, metrics, stock_predictions, train  # noqa: E402
from workloads import WORKLOADS, generate, run_config  # noqa: E402

LEARNING_SETTING = {"lr": 0.003, "snp": True, "pooling": "cap", "no_gcn": True, "batch_size": 16}
SEED = 2  # the data's and the model's


def test_the_learning_setting_beats_predicting_zero_on_the_planted_signal(tmp_path):
    w = dataclasses.replace(WORKLOADS["signal_train"], n_days=600)
    cfg = dataclasses.replace(run_config(w), seed=SEED, max_epochs=6, patience=5, **LEARNING_SETTING)
    ds = prepare_dataset(generate(w, SEED, tmp_path / "data"), cfg.t_window, cfg.horizon)
    model = ForecastModel(cfg, ds.dim)
    train(model, ds, cfg)
    zero = np.mean([metrics(np.zeros_like(targets), targets)[1] for *_, targets in stock_predictions(model, ds)])
    assert evaluate(model, ds).avg_mse < 0.85 * zero
