"""Operator surface: prepare, train, eval, ablate, gradcheck, report.

Flags: every command takes --out (required), --config and the overrides
--pooling, --snp, --horizon, --no-gcn, --no-p2n, --no-n2p and --seed.
Every command but gradcheck requires --data; train, eval, ablate and
report require --manifest; eval and report require --checkpoint; only
train takes --seeds. argparse refuses a missing or unknown flag (exit 2).

Exit codes: 0 success, 1 runtime/numeric failure, 2 input/format failure.
Outputs are byte-deterministic for a fixed seed; wall-clock timestamps go
only into the run_meta.<command>.json sidecar, one per command, so `eval`
into the directory `train` wrote keeps both. effective.cfg and the sidecar
are written once the command returns, so a command that fails leaves the
effective.cfg of an earlier run in --out as it was.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_hash, config_text, load_config, with_overrides
from .data import prepare_dataset, verify_manifest, write_manifest
from .errors import DataFormatError
from .model import ForecastModel
from .pooling import VARIANTS
from .training import (
    ablation_configs,
    ablation_csv,
    ablation_grid,
    apply_checkpoint,
    csv_text,
    evaluate,
    history_csv,
    load_checkpoint,
    multi_seed,
    save_checkpoint,
    stock_predictions,
    toy_gradient_check,
    train,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key=value config file")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--pooling", choices=VARIANTS)
    p.add_argument("--snp", choices=["on", "off"])
    p.add_argument("--horizon", type=int, choices=[1, 5])
    p.add_argument("--no-gcn", action="store_true", default=None)
    p.add_argument("--no-p2n", action="store_true", default=None)
    p.add_argument("--no-n2p", action="store_true", default=None)
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snfuse", description=__doc__)
    parser.add_argument("--version", action="version", version=f"snfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("prepare", "validate, scale, window, and split a data directory"),
        ("train", "train a model against a prepared manifest"),
        ("eval", "evaluate a checkpoint on the test split"),
        ("ablate", "run the 8-row fusion-component ablation grid"),
        ("gradcheck", "finite-difference check of the full gradient path"),
        ("report", "emit per-stock predicted-vs-actual CSVs (and plots when available)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name != "gradcheck":
            p.add_argument("--data", type=Path, required=True, help="data directory")
        if name in ("train", "eval", "ablate", "report"):
            p.add_argument("--manifest", type=Path, required=True, help="manifest written by prepare")
        if name in ("eval", "report"):
            p.add_argument("--checkpoint", type=Path, required=True)
        if name == "train":
            p.add_argument("--seeds", type=str, help="comma-separated seeds for multi-seed runs")
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    snp = {"on": True, "off": False}.get(args.snp)
    return with_overrides(cfg, pooling=args.pooling, snp=snp, horizon=args.horizon, no_gcn=args.no_gcn,
                          no_p2n=args.no_p2n, no_n2p=args.no_n2p, seed=args.seed)


def _record_run(out_dir: Path, cfg: RunConfig, command: str, started: float) -> None:
    (out_dir / "effective.cfg").write_text(config_text(cfg), encoding="utf-8")
    meta = {"command": command, "started": started, "finished": time.time()}
    (out_dir / f"run_meta.{command}.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def _build_dataset(args: argparse.Namespace, cfg: RunConfig):
    """The dataset under --data, checked against --manifest on the commands that take one,
    and the manifest's sha256 (None without one)."""
    ds = prepare_dataset(args.data, cfg.t_window, cfg.horizon, expect_dim=cfg.dim,
                         max_news=0 if cfg.pooling == "none" else cfg.max_news_per_day)
    return ds, (verify_manifest(ds, args.manifest) if "manifest" in args else None)


def cmd_prepare(args: argparse.Namespace, cfg: RunConfig) -> int:
    ds, _ = _build_dataset(args, cfg)
    out: Path = args.out
    write_manifest(ds, out / "dataset.manifest")
    sizes = ds.splits.sizes()
    print(f"prepared {len(ds.dates)} trading days: train/val/test = {sizes[0]}/{sizes[1]}/{sizes[2]}")
    print(f"samples: train={len(ds.samples['train'])} val={len(ds.samples['val'])} test={len(ds.samples['test'])}")
    print(f"skipped windows at split boundaries: {ds.skipped_windows}")
    print(f"manifest: {out / 'dataset.manifest'}")
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise DataFormatError(f"bad --seeds value '{text}'") from exc
    if len(set(seeds)) != len(seeds) or len(seeds) < 2 or min(seeds) < 0:
        raise DataFormatError(f"--seeds takes at least 2 distinct non-negative seeds, got '{text}'")
    return seeds


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    seeds = _parse_seeds(args.seeds) if args.seeds else None  # refuse bad input before reading the data
    ds, digest = _build_dataset(args, cfg)
    out: Path = args.out

    if seeds:
        summary, reports = multi_seed(ds, cfg, seeds)
        (out / "multiseed.csv").write_text(summary, encoding="utf-8")
        for seed, report in zip(seeds, reports):
            seed_dir = out / f"seed_{seed}"
            seed_dir.mkdir(exist_ok=True)
            (seed_dir / "eval.csv").write_text(report.to_csv(), encoding="utf-8")
        print(f"multi-seed summary over seeds {seeds}: {out / 'multiseed.csv'}")
        return 0

    model = ForecastModel(cfg, ds.dim)
    result = train(model, ds, cfg)
    save_checkpoint(out / "checkpoint.snf", model, digest)
    (out / "history.csv").write_text(history_csv(result), encoding="utf-8")
    print(f"trained {len(result.history)} epochs; best val MSE {result.best_val_mse:.6f} at epoch {result.best_epoch}")
    print(f"checkpoint: {out / 'checkpoint.snf'}")
    return 0


def _checked_model(args: argparse.Namespace, cfg: RunConfig):
    """The dataset and the model restored from --checkpoint; a checkpoint of another
    configuration is refused before the data is read."""
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.cfg_hash != config_hash(cfg):
        raise DataFormatError(f"{ckpt.path}: checkpoint was trained with a different configuration; refusing to evaluate")
    ds, digest = _build_dataset(args, cfg)
    if ckpt.manifest_hash != digest:
        raise DataFormatError(f"{ckpt.path}: checkpoint was trained against a different dataset manifest; refusing to evaluate")
    model = ForecastModel(cfg, ds.dim)
    apply_checkpoint(model, ckpt)
    return ds, model


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    ds, model = _checked_model(args, cfg)
    report = evaluate(model, ds)
    (args.out / "eval.csv").write_text(report.to_csv(), encoding="utf-8")
    for stock, mae, mse in report.table:
        print(f"{stock}: MAE {mae:.6f}  MSE {mse:.6f}")
    return 0


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig) -> int:
    configs = ablation_configs(cfg)  # refuse another pooling before reading the data
    ds, _ = _build_dataset(args, cfg)
    rows = ablation_grid(ds, configs)
    (args.out / "ablation.csv").write_text(ablation_csv(rows), encoding="utf-8")
    for label, report in rows:
        print(f"{label}: MAE {report.avg_mae:.6f}  MSE {report.avg_mse:.6f}")
    print(f"ablation table: {args.out / 'ablation.csv'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace, cfg: RunConfig) -> int:
    report = toy_gradient_check(cfg)
    lines = [f"{pid} {err:.3e}" for pid, err in sorted(report.per_param.items())]
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"worst {report.worst_param} {report.worst_error:.3e} tol {report.tol:.1e} {status}")
    (args.out / "gradcheck.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"gradcheck {status}: worst relative error {report.worst_error:.3e} ({report.worst_param})")
    return 0 if report.passed else 1


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    ds, model = _checked_model(args, cfg)
    out: Path = args.out
    for stock, samples, preds, targets in stock_predictions(model, ds):
        rows = [
            (ds.dates[s.start + s.t_window - 1], ds.dates[day], step + 1, target[step], pred[step])
            for s, pred, target in zip(samples, preds, targets)
            for step, day in enumerate(s.target_days)
        ]
        header = "window_end_date,target_date,step,actual,predicted"
        (out / f"{stock}_predictions.csv").write_text(csv_text(header, rows), encoding="utf-8")
        _maybe_plot(out / f"{stock}_predictions.svg", stock, targets[:, 0], preds[:, 0])
    print(f"wrote per-stock prediction reports to {out}")
    return 0


def _maybe_plot(path: Path, stock: str, actual: np.ndarray, predicted: np.ndarray) -> None:
    """Best-effort static plot of the first forecast step; silently skipped when matplotlib is absent."""
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except Exception:
        return
    dates = np.arange(len(actual))
    fig, ax = plt.subplots(figsize=(8, 4))
    ax.plot(dates, actual, label="actual")
    ax.plot(dates, predicted, label="predicted")
    ax.set_title(f"{stock}: next-day normalized close, test split")
    ax.set_xlabel("test sample")
    ax.set_ylabel("normalized close")
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        cfg = _effective_config(args)
        args.out.mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command](args, cfg)
        _record_run(args.out, cfg, args.command, started)
        return code
    except (DataFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
