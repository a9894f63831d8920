"""Training loop with patience-based early stopping, evaluation, checkpoints,
the 8-row ablation grid, and multi-seed summaries."""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash
from .data import PreparedDataset, WindowSample
from .errors import DataFormatError, NumericError
from .model import ForecastModel
from .optim import adam_step, backward, finite_diff_check, init_adam
from .rng import substream

CHECKPOINT_MAGIC = b"SNFUSE01"

# Ablation rows in presentation order: label -> (no_p2n, no_n2p, no_gcn)
ABLATION_ROWS: list[tuple[str, tuple[bool, bool, bool]]] = [
    ("+SAP", (False, False, False)),
    ("- GCN", (False, False, True)),
    ("- P2N", (True, False, False)),
    ("- N2P", (False, True, False)),
    ("- P2N - N2P", (True, True, False)),
    ("- N2P - GCN", (False, True, True)),
    ("- P2N - GCN", (True, False, True)),
    ("- P2N - N2P - GCN", (True, True, True)),
]


def metrics(pred: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(MAE, MSE) over normalized values; no inverse transform."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.size == 0:
        raise ValueError("cannot compute metrics on empty arrays")
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return float(np.abs(diff).mean()), float((diff * diff).mean())


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line per row; floats as repr, so they read back bit for bit."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float
    improved: bool


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_val_mse: float


def _resolve(ds: PreparedDataset, samples: list[WindowSample]):
    return [ds.sample_arrays(s) for s in samples]


def _targets(resolved) -> np.ndarray:
    return np.stack([np.asarray(target, dtype=np.float64).reshape(-1) for *_, target in resolved])


def _dataset_mse(model: ForecastModel, resolved) -> float:
    return metrics(model.predict_many(resolved), _targets(resolved))[1]


def _first_nonfinite(model: ForecastModel) -> str:
    for pid in model.params.ids():
        if not np.all(np.isfinite(model.params[pid].data)):
            return pid
    return "<loss only>"


def train(model: ForecastModel, ds: PreparedDataset, cfg: RunConfig) -> TrainResult:
    train_resolved = _resolve(ds, ds.samples["train"])
    val_resolved = _resolve(ds, ds.samples["val"])

    state = init_adam(model.params, cfg.lr)
    best_val, best_epoch, best_snapshot = np.inf, 0, model.params.snapshot()
    history: list[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = substream(cfg.seed, f"shuffle/{epoch}").permutation(len(train_resolved))
        for lo in range(0, len(order), cfg.batch_size):
            batch = [train_resolved[i] for i in order[lo : lo + cfg.batch_size]]
            loss = model.batch_loss(batch)
            if not np.isfinite(loss.data):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}; first non-finite tensor: {_first_nonfinite(model)}"
                )
            adam_step(model.params, backward(loss, model.params), state)
            del loss  # the step's tape and gradients are freed before the next step's forward

        train_mse = _dataset_mse(model, train_resolved)
        val_mse = _dataset_mse(model, val_resolved)
        improved = val_mse < best_val
        if improved:
            best_val, best_epoch, best_snapshot = val_mse, epoch, model.params.snapshot()
        history.append(EpochRecord(epoch=epoch, train_mse=train_mse, val_mse=val_mse, improved=improved))
        if epoch - best_epoch >= cfg.patience:  # patience epochs in a row without improvement
            break

    model.params.restore(best_snapshot)
    return TrainResult(history=history, best_epoch=best_epoch, best_val_mse=best_val)


@dataclass
class EvalReport:
    rows: list[tuple[str, float, float]]  # (stock, MAE, MSE), sorted by stock
    avg_mae: float
    avg_mse: float

    @property
    def table(self) -> list[tuple[str, float, float]]:
        """The per-stock rows, then ("average", avg_mae, avg_mse)."""
        return [*self.rows, ("average", self.avg_mae, self.avg_mse)]

    def to_csv(self) -> str:
        return csv_text("stock,mae,mse", self.table)


def stock_predictions(
    model: ForecastModel, ds: PreparedDataset
) -> list[tuple[str, list[WindowSample], np.ndarray, np.ndarray]]:
    """Score the test split: per stock in sorted order, (stock, its samples, (n, H) predictions,
    (n, H) targets), all windows through one predict_many call."""
    samples = sorted(ds.samples["test"], key=lambda s: s.stock_id)  # stable: day order within a stock
    resolved = _resolve(ds, samples)
    preds, targets = model.predict_many(resolved), _targets(resolved)
    out, lo = [], 0
    for stock, group in itertools.groupby(samples, key=lambda s: s.stock_id):
        group = list(group)
        out.append((stock, group, preds[lo : lo + len(group)], targets[lo : lo + len(group)]))
        lo += len(group)
    return out


def evaluate(model: ForecastModel, ds: PreparedDataset) -> EvalReport:
    rows = [(stock, *metrics(preds, targets)) for stock, _, preds, targets in stock_predictions(model, ds)]
    avg_mae = float(np.mean([r[1] for r in rows]))
    avg_mse = float(np.mean([r[2] for r in rows]))
    return EvalReport(rows=rows, avg_mae=avg_mae, avg_mse=avg_mse)


# -- checkpoints -------------------------------------------------------


def save_checkpoint(path: str | Path, model: ForecastModel, manifest_digest: str) -> None:
    """Versioned binary: magic, config hash, manifest hash, named float64 tensors."""
    out = bytearray(CHECKPOINT_MAGIC)
    for text in (config_hash(model.cfg), manifest_digest):
        raw = text.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    ids = model.params.ids()
    out += struct.pack("<I", len(ids))
    for pid in ids:
        raw = pid.encode("utf-8")
        arr = np.ascontiguousarray(model.params[pid].data, dtype="<f8")
        out += struct.pack("<I", len(raw)) + raw
        out += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    Path(path).write_bytes(bytes(out))


@dataclass
class Checkpoint:
    path: Path  # the file it was read from, which every refusal of it names
    cfg_hash: str
    manifest_hash: str
    tensors: dict[str, np.ndarray]


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: bad checkpoint magic {raw[:8]!r}")
    off = 8

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise DataFormatError(f"{path}: truncated checkpoint")
        chunk = raw[off : off + n]
        off += n
        return chunk

    def take_str() -> str:
        (n,) = struct.unpack("<I", take(4))
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: a header string is not valid UTF-8 ({exc.reason})") from exc

    cfg_digest = take_str()
    manifest_digest = take_str()
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        pid = take_str()
        if pid in tensors:
            raise DataFormatError(f"{path}: duplicate tensor '{pid}'")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = math.prod(shape)
        arr = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: checkpoint tensor '{pid}' holds a non-finite value")
        tensors[pid] = arr
    if off != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - off} trailing bytes")
    return Checkpoint(path=path, cfg_hash=cfg_digest, manifest_hash=manifest_digest, tensors=tensors)


def apply_checkpoint(model: ForecastModel, ckpt: Checkpoint) -> None:
    want = set(model.params.ids())
    got = set(ckpt.tensors)
    if want != got:
        missing = sorted(want - got)
        extra = sorted(got - want)
        raise DataFormatError(f"{ckpt.path}: checkpoint tensors do not match the model: missing={missing} extra={extra}")
    for pid, arr in ckpt.tensors.items():
        current = model.params[pid]
        if current.data.shape != arr.shape:
            raise DataFormatError(f"{ckpt.path}: checkpoint tensor '{pid}' shape {arr.shape} != {current.data.shape}")
        current.data = arr.copy()


# -- ablations and multi-seed ------------------------------------------


def _train_and_score(ds: PreparedDataset, cfg: RunConfig) -> EvalReport:
    """A fresh model of cfg, trained, then scored on the test split."""
    model = ForecastModel(cfg, ds.dim)
    train(model, ds, cfg)
    return evaluate(model, ds)


def ablation_configs(base_cfg: RunConfig) -> list[tuple[str, RunConfig]]:
    """(label, config) of all 8 fusion-component removals on top of sap pooling; another pooling is refused."""
    if base_cfg.pooling != "sap":
        raise DataFormatError(f"ablation grid requires pooling=sap, got '{base_cfg.pooling}'")
    return [(label, replace(base_cfg, no_p2n=no_p2n, no_n2p=no_n2p, no_gcn=no_gcn))
            for label, (no_p2n, no_n2p, no_gcn) in ABLATION_ROWS]


def ablation_grid(ds: PreparedDataset, configs: list[tuple[str, RunConfig]]) -> list[tuple[str, EvalReport]]:
    """(label, test-split report) of each (label, config) of ablation_configs, trained in turn."""
    return [(label, _train_and_score(ds, cfg)) for label, cfg in configs]


def ablation_csv(rows: list[tuple[str, EvalReport]]) -> str:
    return csv_text("label,mae,mse", [(label, report.avg_mae, report.avg_mse) for label, report in rows])


def multi_seed(ds: PreparedDataset, base_cfg: RunConfig, seeds: list[int]) -> tuple[str, list[EvalReport]]:
    """Independent runs per seed: the multiseed.csv text (one row per stock, in eval.csv's order, and
    the average last, with the mean and sample standard deviation, divided by k-1, of MAE and MSE)
    and the per-seed reports."""
    if len(seeds) < 2:
        raise ValueError(f"multi-seed runs need at least 2 seeds, got {len(seeds)}")
    reports = [_train_and_score(ds, replace(base_cfg, seed=seed)) for seed in seeds]
    rows = []
    for per_seed in zip(*(r.table for r in reports)):  # one stock's row from every seed
        maes = np.array([row[1] for row in per_seed])
        mses = np.array([row[2] for row in per_seed])
        rows.append((per_seed[0][0], float(maes.mean()), float(maes.std(ddof=1)),
                     float(mses.mean()), float(mses.std(ddof=1))))
    return csv_text("stock,mae_mean,mae_std,mse_mean,mse_std", rows), reports


def history_csv(result: TrainResult) -> str:
    rows = [(rec.epoch, rec.train_mse, rec.val_mse, int(rec.improved)) for rec in result.history]
    return csv_text("epoch,train_mse,val_mse,improved", rows)


def toy_gradient_check(cfg: RunConfig):
    """End-to-end finite-difference check on a small seeded two-stock instance.

    The toy forces small dims (T=6, d=4, V=16, U=4, narrow backbone) and
    the seeded vocabulary, since a vocabulary file fits the real widths, not
    the toy's. It keeps the caller's pooling variant, prompt flag, and
    ablation flags, so the check exercises exactly the configured gradient
    paths.
    """
    toy_cfg = replace(
        cfg,
        t_window=6,
        patch_len=3,
        patch_stride=3,
        d_model=8,
        n_layers=2,
        n_heads=2,
        ffn_dim=16,
        vocab_size=16,
        num_prototypes=4,
        reprogram_heads=1,
        horizon=1,
        dim=4,
        vocab_file="",
    )
    dim = 4
    model = ForecastModel(toy_cfg, dim)
    gen = substream(cfg.seed, "gradcheck/inputs")
    batch = []
    for stock in range(2):
        prices = gen.uniform(-1.5, 1.5, size=toy_cfg.t_window)
        news = []
        for day in range(toy_cfg.t_window):
            # one guaranteed zero-news day to cover the degenerate path
            n = 0 if day == 2 else int(gen.integers(1, 4))
            news.append(gen.uniform(-1.0, 1.0, size=(n, dim)))
        emb = gen.uniform(-1.0, 1.0, size=dim)
        target = gen.uniform(-1.0, 1.0, size=1)
        batch.append((prices, news, emb, target))

    def f(_params):
        return model.batch_loss(batch)

    return finite_diff_check(f, model.params)
