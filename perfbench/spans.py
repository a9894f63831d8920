"""In-memory spans recorded by wrappers the benchmark puts around snfuse's layers.

The wrappers replace module and class attributes from outside; snfuse's
own source is never edited. Each call records one span (name, start, end,
parent index). A span's self time is its duration minus the durations of
its direct children, which run one after another inside it.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module[:class], attribute, span name) of every wrapped function; the span
# name is the prefix the benchmark reports the layer's metrics under.
WRAPPED = [
    ("snfuse.data", "prepare_dataset", "data.prepare_dataset"),
    ("snfuse.data", "load_news_day", "data.load_news_day"),
    ("snfuse.training", "load_checkpoint", "training.load_checkpoint"),
    ("snfuse.pooling", "pool_day", "pooling.pool_day"),
    ("snfuse.pooling", "canonical_order", "pooling.canonical_order"),
    ("snfuse.fusion", "fuse_directions", "fusion.fuse_directions"),
    ("snfuse.fusion", "gcn_fuse", "fusion.gcn_fuse"),
    ("snfuse.fusion", "blend", "fusion.blend"),
    ("snfuse.backbone", "patchify", "backbone.patchify"),
    ("snfuse.backbone", "make_prototypes", "backbone.make_prototypes"),
    ("snfuse.backbone", "reprogram", "backbone.reprogram"),
    ("snfuse.backbone", "forward_backbone", "backbone.forward_backbone"),
    ("snfuse.model:ForecastModel", "fuse_sample", "model.fuse_sample"),
    ("snfuse.model:ForecastModel", "predict_sample", "model.predict_sample"),
    ("snfuse.model:ForecastModel", "batch_loss", "model.batch_loss"),
    ("snfuse.training", "backward", "optim.backward"),
    ("snfuse.training", "adam_step", "optim.adam_step"),
]

# Wrapped layers that run inside train() or evaluate(); each gets a self-time metric.
PHASE_LAYERS = [name for _, _, name in WRAPPED if not name.startswith(("data.", "training."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.pool_args: dict[int, tuple] = {}  # pool_day span -> (id(day matrix), id(name embedding), rows)

    def clear(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.pool_args.clear()

    def wrap(self, name: str, fn):
        spans, stack, pool_args = self.spans, self.stack, self.pool_args
        is_pool = name == "pooling.pool_day"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            if is_pool:
                pool_args[idx] = (id(args[1]), id(args[2]), args[1].shape[0])
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[1] = start
                record[2] = end

        return wrapper


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(tracer: Tracer):
    """Replace every WRAPPED attribute with a tracing wrapper; restore on exit."""
    saved = []
    try:
        for owner_path, attr, name in WRAPPED:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's durations."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def descendants(spans: list[list], root: int) -> list[int]:
    """Indices of every span nested under `root` (spans are stored in call order)."""
    inside = {root}
    out = []
    for idx in range(root + 1, len(spans)):
        if spans[idx][3] in inside:
            inside.add(idx)
            out.append(idx)
        elif spans[idx][3] < root:
            break
    return out


def has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
