"""Time two source trees against each other in one process, in alternating rounds.

    python tests/abtime.py run --a <tree>/src --b <tree>/src --workload W --rounds N [--seed S] [--tiny]
                               [--phase setup]

`run` copies each tree's `snfuse` package into a temporary directory under
its own package name (every import inside `snfuse` is relative, so the
copies load side by side), writes the data directory of one of perfbench's
workloads with `perfbench/workloads.py`'s seeded generator, and times the
workload's phase for both trees: `train()` for a training workload,
`evaluate()` of the seed-initialised model (the model perfbench's
checkpoint holds) for an evaluation workload. Each round times both trees,
a first in even rounds and b first in odd ones, each on a fresh dataset and
model, after one untimed warm-up of each. BLAS runs on one thread, as in
perfbench.

It prints every round's times, the median of the b/a time ratios, the
number of rounds b was faster and each tree's median samples_per_s over
the rounds, as perfbench defines it (train samples x epochs for a training
workload, test samples for an evaluation one, over the phase's time). A
second line gives the spread: the quartiles of the b/a ratios and the
two-sided sign-test p-value of b's wins over the rounds that were not
ties (scipy's binomtest at 1/2; 1 when every round tied). Then it
exits 1 if the two trees' best validation MSE or test MSE differ in any
round, else 0. --tiny shrinks the
workload (2 stocks, 240 days, at most 3 articles a day of width at most 8,
one epoch), for a smoke test.

--phase setup times perfbench's set-up instead: `prepare_dataset` and
`ForecastModel`, and for an evaluation workload `load_checkpoint` and
`apply_checkpoint` of a checkpoint of the seed-initialised model that
tree a writes once. A round's time is a tree's fastest of 8 set-ups, each
after a `gc.collect()`, as perfbench takes setup_s; the summary gives each
tree's median setup_s in place of samples_per_s, and the run exits 1 if
the trees' dataset manifests differ in any round. A last line for each
tree gives the fastest time of each part of the set-up over every set-up
timed, warm-up included, beside the fastest whole set-up: `load_contexts`,
`load_prices` (its calls, one a stock, added up) and `assemble_dataset`, each
timed by a wrapper that replaces it in the copied package; `news_read`, the
rest of `prepare_dataset`; `ForecastModel`; and for an evaluation workload
`load_checkpoint` and `apply_checkpoint`. Each part's fastest may come from
another set-up, so the parts add up to no more than the whole, and the
line shows where a set-up saving lands. After the timed rounds, each tree
runs one more, untimed set-up under tracemalloc, and a line gives its
traced peak in MB (2**20 bytes, the unit of perfbench's peak_rss_mb): what
the set-up's Python and numpy allocations hold at most at once, without the
allocator's layout that moves the process's maxrss.

On a host whose speed drifts, separate processes cannot resolve a 5%
effect; interleaving both trees in one process can:

    python tests/abtime.py run --a parent/src --b src --workload signal_train --rounds 31

A few-percent effect needs 31 rounds or more, and the quartiles and the
sign test say whether the rounds resolved it.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import numpy as np  # noqa: E402
from scipy.stats import binomtest  # noqa: E402
from workloads import WORKLOADS, generate, run_config  # noqa: E402

NAMES = {"a": "snfuse_abtime_a", "b": "snfuse_abtime_b"}
SETUPS = 8  # set-ups a --phase setup round times per tree, as perfbench's repeat does
LOADERS = ("load_contexts", "load_prices", "assemble_dataset")  # what prepare_dataset calls besides the news read


def load(src: Path, name: str, into: Path) -> dict:
    """Tree src's snfuse, copied to into/name and imported under that name."""
    shutil.copytree(src / "snfuse", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("config", "data", "model", "training")}


def workload(name: str, tiny: bool):
    w = WORKLOADS[name]
    if tiny:
        lo, hi = w.articles
        w = dataclasses.replace(w, n_stocks=2, n_days=240, dim=min(w.dim, 8), articles=(min(lo, 3), min(hi, 3)),
                                epochs=1)
    return w


def samples(w, ds) -> int:
    """The samples a phase processes: train samples x epochs, or test samples."""
    return len(ds.samples["train"]) * w.epochs if w.kind == "train" else len(ds.samples["test"])


def phase(tree: dict, w, cfg, data_dir: Path) -> tuple[float, float, tuple]:
    """(seconds, samples_per_s, (best validation MSE or None, test MSE)) of one timed phase on a fresh
    dataset and model."""
    ds = tree["data"].prepare_dataset(data_dir, cfg.t_window, cfg.horizon)
    model = tree["model"].ForecastModel(cfg, ds.dim)
    gc.collect()
    start = time.perf_counter()
    best = tree["training"].train(model, ds, cfg).best_val_mse if w.kind == "train" else None
    trained = time.perf_counter()
    test = tree["training"].evaluate(model, ds).avg_mse
    seconds = (trained if w.kind == "train" else time.perf_counter()) - start
    return seconds, samples(w, ds) / seconds, (best, test)


def manifest_digest(tree: dict, ds) -> str:
    return hashlib.sha256(tree["data"].manifest_text(ds).encode("utf-8")).hexdigest()


def write_checkpoint(tree: dict, cfg, data_dir: Path, path: Path) -> None:
    """The checkpoint perfbench writes for an evaluation workload: the seed-initialised model's."""
    ds = tree["data"].prepare_dataset(data_dir, cfg.t_window, cfg.horizon)
    tree["training"].save_checkpoint(path, tree["model"].ForecastModel(cfg, ds.dim), manifest_digest(tree, ds))


def time_loaders(data) -> dict[str, float]:
    """The seconds prepare_dataset spends in each loader it calls, added up over calls into the dict
    returned, from wrappers that replace the loaders in the copied module data."""
    spent = dict.fromkeys(LOADERS, 0.0)
    for name in LOADERS:
        def timed(*args, _loader=getattr(data, name), _name=name, **kwargs):
            start = time.perf_counter()
            try:
                return _loader(*args, **kwargs)
            finally:
                spent[_name] += time.perf_counter() - start
        setattr(data, name, timed)
    return spent


def setup(tree: dict, w, cfg, data_dir: Path, checkpoint: Path, spent: dict,
          fastest: dict) -> tuple[float, float, tuple]:
    """(seconds, setup_s, (sha256 of the dataset manifest,)) of perfbench's set-up, the fastest of SETUPS.
    spent is time_loaders' dict for tree; fastest keeps each part's fastest seconds over every set-up of
    every call, and the fastest whole set-up's under "total"."""
    round_fastest = float("inf")
    for _ in range(SETUPS):
        gc.collect()
        for name in spent:
            spent[name] = 0.0
        start = time.perf_counter()
        ds = tree["data"].prepare_dataset(data_dir, cfg.t_window, cfg.horizon)
        prepared = time.perf_counter()
        model = tree["model"].ForecastModel(cfg, ds.dim)
        built = loaded = time.perf_counter()
        if w.kind == "eval":
            state = tree["training"].load_checkpoint(checkpoint)
            loaded = time.perf_counter()
            tree["training"].apply_checkpoint(model, state)
        end = time.perf_counter()
        parts = {"load_contexts": spent["load_contexts"], "load_prices": spent["load_prices"],
                 "news_read": prepared - start - sum(spent.values()), "assemble_dataset": spent["assemble_dataset"],
                 "ForecastModel": built - prepared, "total": end - start}
        if w.kind == "eval":
            parts.update(load_checkpoint=loaded - built, apply_checkpoint=end - loaded)
        for name, seconds in parts.items():
            fastest[name] = min(fastest.get(name, seconds), seconds)
        round_fastest = min(round_fastest, end - start)
    return round_fastest, round_fastest, (manifest_digest(tree, ds),)


def traced_peak_mb(tree: dict, w, cfg, data_dir: Path, checkpoint: Path) -> float:
    """tracemalloc's peak over one untimed set-up of tree, in MB of 2**20 bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        ds = tree["data"].prepare_dataset(data_dir, cfg.t_window, cfg.horizon)
        model = tree["model"].ForecastModel(cfg, ds.dim)
        if w.kind == "eval":
            tree["training"].apply_checkpoint(model, tree["training"].load_checkpoint(checkpoint))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def rounds_of(measure, w, rounds: int, figure: str) -> bool:
    """Print every round of measure(tree key, warm-up?) -> (seconds, figure, outputs) and the summary;
    True when the trees' outputs differ in some round."""
    for k in "ab":
        measure(k, True)
    ratios, figures, b_won, differ = [], {"a": [], "b": []}, 0, False
    for r in range(rounds):
        got = {k: measure(k, False) for k in ("ab" if r % 2 == 0 else "ba")}
        ratio = got["b"][0] / got["a"][0]
        ratios.append(ratio)
        for k, (_, value, _) in got.items():
            figures[k].append(value)
        b_won += ratio < 1.0
        same = got["a"][2] == got["b"][2]
        differ |= not same
        print(f"round {r}: a {got['a'][0]:.4f} s  b {got['b'][0]:.4f} s  b/a {ratio:.3f}"
              + ("" if same else f"  outputs differ: a {got['a'][2]} b {got['b'][2]}"))
    a, b = (statistics.median(figures[k]) for k in "ab")
    print(f"{w.name}: median b/a {statistics.median(ratios):.3f}; b faster in {b_won} of {rounds} rounds; "
          f"median {figure} a {a:.6g} b {b:.6g}")
    untied = rounds - ratios.count(1.0)
    p = binomtest(b_won, untied).pvalue if untied else 1.0
    lo, hi = np.percentile(ratios, [25, 75])
    print(f"{w.name}: b/a quartiles {lo:.3f} {hi:.3f}; sign test p {p:.2g} (two-sided, {untied} untied rounds)")
    return differ


def run(a: Path, b: Path, name: str, rounds: int, seed: int = 2081, tiny: bool = False,
        phase_name: str = "workload") -> int:
    w = workload(name, tiny)
    paths = list(sys.path)
    with tempfile.TemporaryDirectory(prefix="abtime-") as tmp:
        tmp = Path(tmp)
        try:
            sys.path[:0] = [str(tmp), str(a.resolve())]  # a's snfuse.data writes the generator's files
            trees = {k: load(src.resolve(), NAMES[k], tmp) for k, src in (("a", a), ("b", b))}
            data_dir = generate(w, seed, tmp / "data")
            base = dataclasses.asdict(run_config(w))
            cfgs = {k: tree["config"].RunConfig(**base) for k, tree in trees.items()}
            if phase_name == "setup":
                checkpoint = tmp / "checkpoint.snf"
                if w.kind == "eval":
                    write_checkpoint(trees["a"], cfgs["a"], data_dir, checkpoint)
                spent = {k: time_loaders(tree["data"]) for k, tree in trees.items()}
                fastest = {"a": {}, "b": {}}

                def measure(k, warm_up):
                    return setup(trees[k], w, cfgs[k], data_dir, checkpoint, spent[k], fastest[k])
            else:
                def measure(k, warm_up):
                    return phase(trees[k], dataclasses.replace(w, epochs=1) if warm_up else w, cfgs[k], data_dir)
            differ = rounds_of(measure, w, rounds, "setup_s" if phase_name == "setup" else "samples_per_s")
            if phase_name == "setup":
                for k, parts in fastest.items():
                    total = parts.pop("total")
                    print(f"{w.name}: {k} fastest set-up parts, ms: "
                          + " ".join(f"{name} {1e3 * seconds:.4f}" for name, seconds in parts.items())
                          + f"; whole set-up {1e3 * total:.4f}")
                for k, tree in trees.items():
                    peak = traced_peak_mb(tree, w, cfgs[k], data_dir, checkpoint)
                    print(f"{w.name}: {k} traced set-up peak {peak:.3f} MB")
        finally:
            sys.path[:] = paths
            for mod in [m for m in sys.modules if m.split(".")[0] in NAMES.values()]:
                del sys.modules[mod]
    if differ:
        print("the trees' dataset manifests differ" if phase_name == "setup"
              else "the trees' best validation MSE or test MSE differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="time both trees' phase in alternating rounds")
    p_run.add_argument("--a", type=Path, required=True, help="the baseline source tree (holds snfuse/)")
    p_run.add_argument("--b", type=Path, required=True, help="the source tree timed against it")
    p_run.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_run.add_argument("--rounds", type=int, required=True)
    p_run.add_argument("--seed", type=int, default=2081, help="the generator's seed")
    p_run.add_argument("--tiny", action="store_true", help="a small workload, for a smoke test")
    p_run.add_argument("--phase", choices=["workload", "setup"], default="workload",
                       help="time the workload's phase, or perfbench's set-up")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    return run(args.a, args.b, args.workload, args.rounds, args.seed, args.tiny, args.phase)


if __name__ == "__main__":
    sys.exit(main())
