"""Dump the forecaster's numbers over a grid of configurations, and compare two dumps bit for bit.

    python tests/bitcheck.py dump --src <tree>/src out.npz [--tiny]
    python tests/bitcheck.py compare a.npz b.npz

`dump` imports snfuse from the source tree given by --src and writes, for
every configuration of the grid, the loss and every trainable gradient of
`batch_loss` at W = 1, 2, 3, 4 and 8 stacked windows, `predict_sample` of one
window, and `predict_many` over 130 windows (at least two of predict_many's
fusion chunks in every width set, and two backbone batches with
overlapping patches). The grid is 5 width sets (the tests' d = 32,
news_train's, signal_train's, overlapping patches with 4 reprogram heads,
and one patch per window) x 5 poolings x the 8 ablation rows x the name
prompt off and on; --tiny keeps one width set, two poolings, one ablation
row and W <= 2, for a smoke test. The inputs come from a fixed seed and
use only numpy, so dumps of two trees see the same windows.

`compare` lists every array whose dtype, shape or bytes differ, and every
array only one dump holds, then exits 1 if it listed any. Comparing bytes
tells -0.0 from +0.0, and finds two NaNs equal only when their bits are.

Run it on two checkouts to show that a change keeps every bit:

    python tests/bitcheck.py dump --src parent/src parent.npz
    python tests/bitcheck.py dump --src src change.npz
    python tests/bitcheck.py compare parent.npz change.npz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

WIDTHS = {
    "tests": dict(t_window=8, patch_len=4, patch_stride=4, d_model=32, n_layers=1, n_heads=2, ffn_dim=16,
                  vocab_size=32, num_prototypes=16, dim=32, max_news_per_day=16, horizon=2),
    "news_train": dict(dim=64),
    "signal_train": dict(t_window=8, patch_len=4, patch_stride=4, dim=8),
    "overlap_heads": dict(t_window=8, patch_len=3, patch_stride=1, d_model=32, n_layers=1, n_heads=4, ffn_dim=16,
                          vocab_size=32, num_prototypes=16, reprogram_heads=4, dim=32, max_news_per_day=16,
                          horizon=2),
    "one_patch": dict(t_window=8, patch_len=8, patch_stride=8, dim=8),
}
ARTICLES = {"tests": (1, 5), "news_train": (10, 30), "signal_train": (3, 3), "overlap_heads": (1, 5),
            "one_patch": (3, 3)}
POOLINGS = ("none", "ap", "cap", "sap", "pasap")
BATCH_SIZES = (1, 2, 3, 4, 8)  # 8: numpy sums an axis of 8 or more rows pairwise
PREDICTED = 130


def grid(tiny: bool = False):
    """(key, width set, RunConfig overrides) of every configuration."""
    from snfuse.training import ABLATION_ROWS  # snfuse is imported only once --src is on the path

    widths = ["tests"] if tiny else list(WIDTHS)
    poolings = ("none", "sap") if tiny else POOLINGS
    rows = ABLATION_ROWS[:1] if tiny else ABLATION_ROWS
    for width in widths:
        for pooling in poolings:
            for label, (no_p2n, no_n2p, no_gcn) in rows:
                for snp in (False, True):
                    key = f"{width}/{pooling}/{label.replace(' ', '')}/snp{int(snp)}"
                    yield key, width, dict(WIDTHS[width], pooling=pooling, snp=snp,
                                           no_p2n=no_p2n, no_n2p=no_n2p, no_gcn=no_gcn)


def windows(cfg, width: str, n: int, seed: int = 0):
    """n overlapping (prices, news, name_emb, target) windows of three stocks over one news
    history, one array per day and per name as a dataset resolves them, and each stock's
    prices and targets cut from its one close series, so windows share their (stock, day,
    close) rows; every fourth day has no articles, and window 2 repeats window 0."""
    rng = np.random.default_rng(seed)
    lo, hi = ARTICLES[width]
    n_days = cfg.t_window + cfg.horizon + n // 3
    days = [rng.normal(size=(0 if i % 4 == 2 else int(rng.integers(lo, hi + 1)), cfg.dim)) for i in range(n_days)]
    names = [rng.normal(size=cfg.dim) for _ in range(3)]
    closes = rng.normal(size=(3, n_days))
    out = []
    for i in range(n):
        start, stock = i // 3, i % 3
        end = start + cfg.t_window
        out.append((closes[stock, start:end], days[start:end], names[stock], closes[stock, end : end + cfg.horizon]))
    if n > 2:
        out[2] = out[0]
    return out


def arrays(tiny: bool = False):
    """(name, array) of every figure the grid produces, in a fixed order."""
    from snfuse.config import RunConfig
    from snfuse.model import ForecastModel
    from snfuse.optim import backward

    for key, width, overrides in grid(tiny):
        cfg = RunConfig(**overrides)
        batch = windows(cfg, width, PREDICTED)
        for size in BATCH_SIZES[: 2 if tiny else None]:
            model = ForecastModel(cfg, cfg.dim)
            loss = model.batch_loss(batch[:size])
            yield f"{key}/W{size}/loss", loss.data.copy()
            for pid, g in backward(loss, model.params).items():
                yield f"{key}/W{size}/grad/{pid}", g
        model = ForecastModel(cfg, cfg.dim)
        prices, news, emb, _ = batch[1]
        yield f"{key}/predict_sample", model.predict_sample(prices, news, emb).data
        yield f"{key}/predict_many", model.predict_many(batch[: 3 if tiny else PREDICTED])


def dump(path: Path, tiny: bool = False) -> int:
    out = {name: np.asarray(a) for name, a in arrays(tiny)}
    np.savez(path, **out)
    return len(out)


def compare(a_path: Path, b_path: Path) -> list[str]:
    """One line for every array that differs between the two dumps, in name order."""
    with np.load(a_path) as a, np.load(b_path) as b:
        lines = [f"only in {a_path}: {name}" for name in sorted(set(a.files) - set(b.files))]
        lines += [f"only in {b_path}: {name}" for name in sorted(set(b.files) - set(a.files))]
        for name in sorted(set(a.files) & set(b.files)):
            x, y = a[name], b[name]
            if x.dtype != y.dtype or x.shape != y.shape:
                lines.append(f"differs: {name}: {x.dtype}{x.shape} against {y.dtype}{y.shape}")
            elif x.tobytes() != y.tobytes():
                bits = [np.ascontiguousarray(v).reshape(x.size, -1).view(np.uint8) for v in (x, y)]
                count = int(np.count_nonzero((bits[0] != bits[1]).any(axis=1)))
                lines.append(f"differs: {name}: {count} of {x.size} entries")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="write the grid's losses, gradients and predictions to an .npz file")
    p_dump.add_argument("--src", type=Path, required=True, help="the source tree to import snfuse from")
    p_dump.add_argument("--tiny", action="store_true", help="a small grid, for a smoke test")
    p_dump.add_argument("out", type=Path)
    p_cmp = sub.add_parser("compare", help="list every array that differs between two dumps")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "dump":
        sys.path.insert(0, str(args.src.resolve()))
        print(f"{dump(args.out, args.tiny)} arrays written to {args.out}")
        return 0
    lines = compare(args.a, args.b)
    for line in lines:
        print(line)
    print(f"{len(lines)} arrays differ" if lines else "no array differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
