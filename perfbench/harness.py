"""Run one workload: seeded inputs, timed set-up and phase, failure counts,
the correctness gate, and the end-to-end or per-layer metrics.

A repeat is one set-up (prepare_dataset plus ForecastModel, plus the
checkpoint load for evaluation workloads) followed by the workload's timed
phase: train() then evaluate() for training workloads, evaluate() alone
for evaluation workloads. Repeats run until the time budget is spent. The
phase time is reported as the median over repeats; setup_s is the fastest
of many set-ups spread over the run, because a set-up takes only tens of
milliseconds and the host's speed changes within a second.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from snfuse import data as sd
from snfuse import training as st
from snfuse.config import config_hash
from snfuse.model import ForecastModel

import spans as sp
from workloads import Workload, generate, run_config

CHECKPOINT = "checkpoint.snf"
SETUPS_PER_REPEAT = 8  # timed set-ups per repeat, so setup_s is the fastest of many spread over the run
REFERENCE_RTOL = 1e-5  # room for a changed summation order (measured: 5e-10 after a one-ulp change), not for drift
WALL_RTOL = 1e-3  # root span against the phase timed outside it: room for one wrapper call, microseconds


@dataclass
class Repeat:
    setup_s: float
    phase_s: float | None  # wall time of train() (training) or evaluate() (evaluation)
    samples: int  # samples the phase processed: train samples x epochs, or test samples
    attempted: int = 0
    failed: int = 0
    best_val_mse: float | None = None
    test_mse: float | None = None
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None  # per-layer metrics of a traced repeat


def make_inputs(w: Workload, seed: int, root: Path) -> Path:
    """Generate the data directory (and, for evaluation, the checkpoint of the seed-initialised model)."""
    data_dir = generate(w, seed, root / "data")
    if w.kind == "eval":
        cfg = run_config(w)
        ds = sd.prepare_dataset(data_dir, cfg.t_window, cfg.horizon)
        digest = hashlib.sha256(sd.manifest_text(ds).encode("utf-8")).hexdigest()
        st.save_checkpoint(data_dir / CHECKPOINT, ForecastModel(cfg, ds.dim), digest)
    return data_dir


def setup(w: Workload, cfg, data_dir: Path):
    """Everything a user waits for before the first step or score: what setup_s times."""
    ds = sd.prepare_dataset(data_dir, cfg.t_window, cfg.horizon)
    model = ForecastModel(cfg, ds.dim)
    if w.kind == "eval":
        ckpt = st.load_checkpoint(data_dir / CHECKPOINT)
        if ckpt.cfg_hash != config_hash(cfg):
            raise ValueError("checkpoint was written with another configuration")
        st.apply_checkpoint(model, ckpt)
    return ds, model


def timed_setup(w: Workload, cfg, data_dir: Path) -> float:
    start = time.perf_counter()
    setup(w, cfg, data_dir)
    return time.perf_counter() - start


def first_batch(w: Workload, cfg, ds) -> list:
    split = "train" if w.kind == "train" else "test"
    return [ds.sample_arrays(s) for s in ds.samples[split][: cfg.batch_size]]


def warm_up(w: Workload, cfg, data_dir: Path) -> None:
    """One untimed forward (and backward) so lazy first-call work is not timed."""
    ds, model = setup(w, cfg, data_dir)
    loss = model.batch_loss(first_batch(w, cfg, ds))
    if w.kind == "train":
        st.backward(loss, model.params)


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def run_repeat(w: Workload, cfg, data_dir: Path, tracer: sp.Tracer | None = None) -> Repeat:
    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.wrap(name, fn)(*args)

    start = time.perf_counter()
    ds, model = setup(w, cfg, data_dir)
    setup_s = time.perf_counter() - start
    n_train, n_test = len(ds.samples["train"]), len(ds.samples["test"])
    steps = -(-n_train // cfg.batch_size) * w.epochs
    rep = Repeat(setup_s=setup_s, phase_s=None, samples=n_train * w.epochs if w.kind == "train" else n_test)

    if w.kind == "train":
        rep.attempted += steps
        try:
            start = time.perf_counter()
            result = call("training.train", st.train, model, ds, cfg)
            elapsed = time.perf_counter() - start
            mses = [m for rec in result.history for m in (rec.train_mse, rec.val_mse)]
            if len(result.history) != w.epochs:
                raise RuntimeError(f"train() ran {len(result.history)} epochs, expected {w.epochs}")
            if not all(_finite(m) for m in mses + [result.best_val_mse]):
                raise FloatingPointError("non-finite train or validation MSE")
            rep.phase_s = elapsed
            rep.best_val_mse = result.best_val_mse
        except Exception as exc:  # counted, reported, and the run goes on
            rep.failed += steps
            rep.errors.append(f"train: {exc!r}")

    rep.attempted += n_test
    try:
        start = time.perf_counter()
        report = call("training.evaluate", st.evaluate, model, ds)
        elapsed = time.perf_counter() - start
        per_stock = {stock: 0 for stock, _, _ in report.rows}
        for s in ds.samples["test"]:
            per_stock[s.stock_id] += 1
        bad = [stock for stock, mae, mse in report.rows if not (_finite(mae) and _finite(mse))]
        if bad:
            rep.failed += sum(per_stock[stock] for stock in bad)
            rep.errors.append(f"evaluate: non-finite error for {bad}")
        else:
            rep.test_mse = report.avg_mse
            if w.kind == "eval":
                rep.phase_s = elapsed
    except Exception as exc:
        rep.failed += n_test
        rep.errors.append(f"evaluate: {exc!r}")

    if tracer is not None and rep.phase_s is not None:
        rep.layers = layer_metrics(w, tracer, rep)
    return rep


def count_tape_nodes(root) -> int:
    """Nodes a backward walk from `root` visits (each op output that records parents)."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def tape_nodes(w: Workload, cfg, data_dir: Path) -> tuple[float, float]:
    """(tape nodes per sample, tape nodes per full batch) of one untimed loss graph."""
    ds, model = setup(w, cfg, data_dir)
    batch = first_batch(w, cfg, ds)
    nodes = count_tape_nodes(model.batch_loss(batch))
    return nodes / len(batch), float(nodes)


def layer_metrics(w: Workload, tracer: sp.Tracer, rep: Repeat) -> dict[str, float]:
    spans = tracer.spans
    selfs = sp.self_times(spans)
    root_name = "training.train" if w.kind == "train" else "training.evaluate"
    roots = {name: i for i, (name, _, _, parent) in enumerate(spans) if parent < 0}
    root = roots[root_name]
    inside = sp.descendants(spans, root)
    per_sample = 1000.0 / rep.samples
    epochs = max(w.epochs, 1)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def calls(name, where=inside):
        return [i for i in where if spans[i][0] == name]

    def mean_ms(name, where):
        hits = calls(name, where)
        return 1000.0 * sum(dur(i) for i in hits) / len(hits) if hits else 0.0

    out: dict[str, float] = {}
    for name in sp.PHASE_LAYERS:
        out[f"{name}.self_ms_per_sample"] = per_sample * sum(selfs[i] for i in calls(name))
    out["trace.residual_ms_per_sample"] = per_sample * selfs[root]
    out["trace.phase_ms_per_sample"] = per_sample * dur(root)

    setup_spans = range(0, root)
    out["data.prepare_dataset.ms"] = mean_ms("data.prepare_dataset", setup_spans)
    out["data.load_news_day.ms_per_file"] = mean_ms("data.load_news_day", setup_spans)
    out["training.load_checkpoint.ms"] = mean_ms("training.load_checkpoint", setup_spans)

    pooled = [tracer.pool_args[i] for i in calls("pooling.pool_day")]
    n_pool = len(pooled)
    out["pooling.pool_day.calls"] = float(n_pool)
    out["pooling.articles_per_call"] = sum(rows for *_, rows in pooled) / n_pool if n_pool else 0.0
    out["pooling.distinct_day_ratio"] = len({(day, stock) for day, stock, _ in pooled}) / n_pool if n_pool else 0.0

    predicts = calls("model.predict_sample")
    losses = calls("model.batch_loss")
    out["model.predict_sample.ms_per_sample"] = mean_ms("model.predict_sample", inside)
    out["model.predict_sample.calls_per_epoch"] = len(predicts) / epochs
    out["model.batch_loss.ms_per_step"] = mean_ms("model.batch_loss", inside)
    in_loss = [i for i in calls("backbone.make_prototypes") if sp.has_ancestor(spans, i, "model.batch_loss")]
    out["backbone.make_prototypes.calls_per_step"] = len(in_loss) / len(losses) if losses else 0.0
    out["optim.backward.ms_per_step"] = mean_ms("optim.backward", inside)
    out["optim.adam_step.ms_per_step"] = mean_ms("optim.adam_step", inside)
    rescore = [i for i in predicts if not sp.has_ancestor(spans, i, "model.batch_loss")] if w.kind == "train" else []
    out["training.rescore_ms_per_epoch"] = 1000.0 * sum(dur(i) for i in rescore) / epochs
    eval_root = roots["training.evaluate"] if "training.evaluate" in roots else None
    n_test = len(calls("model.predict_sample", sp.descendants(spans, eval_root))) if eval_root is not None else 0
    out["training.evaluate.ms_per_sample"] = 1000.0 * dur(eval_root) / n_test if n_test else 0.0
    return out


def median_repeat(reps: list[Repeat]) -> Repeat:
    """The repeat with the median phase time (the lower middle one for an even count)."""
    ordered = sorted(reps, key=lambda r: r.phase_s)
    return ordered[(len(ordered) - 1) // 2]


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def gate(w: Workload, seed: int, reps: list[Repeat], reference: dict) -> list[str]:
    """Problems that make the run invalid; an empty list means the outputs are correct."""
    problems = [f"repeat {k}: {err}" for k, r in enumerate(reps) for err in r.errors]
    for key in ("best_val_mse", "test_mse"):
        if key == "best_val_mse" and w.kind != "train":
            continue
        values = {getattr(r, key) for r in reps if r.failed == 0}
        if len(values) > 1:
            problems.append(f"{key} differs between repeats: {sorted(values)}")
        ref = reference.get(w.name, {}).get(str(seed), {}).get(key)
        for value in values:
            if ref is not None and not abs(value - ref) <= REFERENCE_RTOL * abs(ref):
                problems.append(f"{key} {value!r} does not match the reference {ref!r} for seed {seed}")
    for k, r in enumerate(reps):
        if r.layers is None:
            continue
        parts = sum(r.layers[f"{name}.self_ms_per_sample"] for name in sp.PHASE_LAYERS)
        total = parts + r.layers["trace.residual_ms_per_sample"]
        if not math.isclose(total, r.layers["trace.phase_ms_per_sample"], rel_tol=1e-9):
            problems.append(f"repeat {k}: self times and residual sum to {total} ms, the root span took "
                            f"{r.layers['trace.phase_ms_per_sample']} ms per sample")
        if r.layers["trace.residual_ms_per_sample"] < 0:
            problems.append(f"repeat {k}: negative residual; spans overlap")
        root_s = r.layers["trace.phase_ms_per_sample"] * r.samples / 1000.0
        if not math.isclose(root_s, r.phase_s, rel_tol=WALL_RTOL):
            problems.append(f"repeat {k}: the spans cover {root_s} s, the phase took {r.phase_s} s")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(w: Workload, seed: int, seconds: float, trace: bool, work_dir: Path, reference: dict):
    """Measure one workload for about `seconds`; returns (result line, details)."""
    cfg = run_config(w)
    data_dir = make_inputs(w, seed, work_dir)
    warm_up(w, cfg, data_dir)

    deadline = time.perf_counter() + seconds
    setup_times = []
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    tracer = sp.Tracer()
    while True:
        started = time.perf_counter()
        for _ in range(0 if trace else SETUPS_PER_REPEAT - 1):
            gc.collect()
            setup_times.append(timed_setup(w, cfg, data_dir))
        gc.collect()
        plain.append(run_repeat(w, cfg, data_dir))
        setup_times.append(plain[-1].setup_s)
        if trace:
            gc.collect()
            with sp.installed(tracer):
                traced.append(run_repeat(w, cfg, data_dir, tracer))
            tracer.clear()
        now = time.perf_counter()
        if now + (now - started) > deadline:  # the next round would overrun
            break

    reps = plain + traced
    problems = gate(w, seed, reps, reference)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    ok_plain = [r for r in plain if r.phase_s is not None]
    ok_traced = [r for r in traced if r.layers is not None]
    metrics: dict[str, tuple[float, str]] = {}
    details = {"repeats": len(plain), "traced_repeats": len(traced), "problems": problems}

    if not trace:
        rates = [r.samples / r.phase_s for r in ok_plain]
        mses = [r.test_mse for r in plain if r.test_mse is not None]
        metrics["setup_s"] = (min(setup_times), "s")
        metrics["samples_per_s"] = (statistics.median(rates) if rates else 0.0, "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
        details["setup_s"] = {"n": len(setup_times), "quartiles": quartiles(setup_times)}
        if rates:
            details["samples_per_s"] = {"n": len(rates), "quartiles": quartiles(rates)}
        details["best_val_mse"] = next((r.best_val_mse for r in plain if r.best_val_mse is not None), None)
        details["test_mse"] = mses[0] if mses else None
    else:
        metrics = {name: (0.0, unit) for name, unit in LAYER_UNITS.items()}  # kept when no traced repeat succeeded
        if ok_traced and ok_plain:
            layers = dict(median_repeat(ok_traced).layers)
            per_node, per_batch = tape_nodes(w, cfg, data_dir)
            layers["tensor.tape_nodes_per_sample"] = per_node
            backward_ms = layers["optim.backward.ms_per_step"]
            layers["optim.backward.us_per_tape_node"] = 1000.0 * backward_ms / per_batch if backward_ms else 0.0
            untraced = statistics.median(r.phase_s for r in ok_plain)
            traced_s = statistics.median(r.phase_s for r in ok_traced)
            layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
            metrics.update((name, (value, LAYER_UNITS[name])) for name, value in layers.items())
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, details


LAYER_UNITS = {
    **{f"{layer}.self_ms_per_sample": "ms" for layer in sp.PHASE_LAYERS},
    "trace.residual_ms_per_sample": "ms",
    "trace.phase_ms_per_sample": "ms",
    "trace.overhead_pct": "%",
    "data.prepare_dataset.ms": "ms",
    "data.load_news_day.ms_per_file": "ms",
    "training.load_checkpoint.ms": "ms",
    "pooling.pool_day.calls": "count",
    "pooling.articles_per_call": "count",
    "pooling.distinct_day_ratio": "ratio",
    "model.predict_sample.ms_per_sample": "ms",
    "model.predict_sample.calls_per_epoch": "count",
    "model.batch_loss.ms_per_step": "ms",
    "backbone.make_prototypes.calls_per_step": "count",
    "optim.backward.ms_per_step": "ms",
    "optim.backward.us_per_tape_node": "us",
    "optim.adam_step.ms_per_step": "ms",
    "training.rescore_ms_per_epoch": "ms",
    "training.evaluate.ms_per_sample": "ms",
    "tensor.tape_nodes_per_sample": "count",
}
