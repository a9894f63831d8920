"""snfuse: desk-scale stock forecasting from prices and daily news embeddings.

Name-guided attentive pooling over each day's news, bidirectional
news-price fusion with a per-day graph convolution, and patch
reprogramming onto a small frozen surrogate transformer. Everything runs
in float64 on a hand-rolled reverse-mode tape so gradients can be checked
against central finite differences end to end.
"""

__version__ = "0.1.0"

from .config import RunConfig, config_hash, load_config
from .data import (
    PreparedDataset,
    Scaler,
    WindowSample,
    fit_scaler,
    load_contexts,
    load_news_day,
    load_prices,
    prepare_dataset,
    split_indices,
    write_news_day,
)
from .model import ForecastModel, mse_loss
from .optim import ParamSet, adam_step, backward, finite_diff_check, init_adam
from .tensor import Tensor, matmul, softmax_rows
from .training import EvalReport, TrainResult, evaluate, metrics, multi_seed, train

__all__ = [
    "EvalReport",
    "ForecastModel",
    "ParamSet",
    "PreparedDataset",
    "RunConfig",
    "Scaler",
    "Tensor",
    "TrainResult",
    "WindowSample",
    "adam_step",
    "backward",
    "config_hash",
    "evaluate",
    "finite_diff_check",
    "fit_scaler",
    "init_adam",
    "load_config",
    "load_contexts",
    "load_news_day",
    "load_prices",
    "matmul",
    "metrics",
    "mse_loss",
    "multi_seed",
    "prepare_dataset",
    "softmax_rows",
    "split_indices",
    "train",
    "write_news_day",
]
