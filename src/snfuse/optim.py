"""Parameter registry, gradient collection, Adam over one flat layout, and the finite-difference harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .tensor import Tensor

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ParamSet:
    """Named tensors partitioned into trainable and frozen sets.

    Frozen tensors never receive gradients (requires_grad stays False) and
    the optimizer never touches them; they must be bit-identical for the
    lifetime of the run.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.frozen: set[str] = set()

    def add(self, name: str, values: np.ndarray, frozen: bool = False) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"parameter '{name}' already registered")
        arr = np.array(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"parameter '{name}' initialized with non-finite values")
        t = Tensor(arr, requires_grad=not frozen)
        self._tensors[name] = t
        if frozen:
            self.frozen.add(name)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def ids(self) -> list[str]:
        return sorted(self._tensors)

    def trainable_ids(self) -> list[str]:
        return sorted(set(self._tensors) - self.frozen)

    def clear_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the trainable tensors."""
        return {name: self._tensors[name].data.copy() for name in self.trainable_ids()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in snap.items():
            self._tensors[name].data = arr.copy()


def backward(loss: Tensor, params: ParamSet) -> dict[str, np.ndarray]:
    """Reverse-mode gradients for every trainable parameter.

    Raises ValueError if the loss is not scalar (from Tensor.backward) or
    if some trainable parameter is unreachable from it (that means the
    model registered a dead parameter), and NumericError naming the first
    trainable parameter (in id order) whose gradient holds a non-finite
    value; finiteness is checked once, over every gradient. Frozen
    parameters never appear in the returned map.
    """
    loss.backward()
    grads = {pid: params[pid].grad for pid in params.trainable_ids()}
    params.clear_grads()
    missing = [pid for pid, g in grads.items() if g is None]
    if missing:
        raise ValueError(f"no gradient reached trainable parameters: {', '.join(missing)}")
    if grads and not np.isfinite(np.concatenate(list(grads.values()), axis=None)).all():
        bad = next(pid for pid, g in grads.items() if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient for parameter '{bad}'")
    return grads


@dataclass
class OptimState:
    """Adam's step count and moments, laid out once in id order: parameter pid is entries lo:hi of
    flat_m and flat_v for its (pid, lo, hi) in layout; work holds a step's two scratch vectors. No
    parameter data is kept: each step reads the parameters as they are."""

    lr: float
    layout: list[tuple[str, int, int]]
    flat_m: np.ndarray
    flat_v: np.ndarray
    work: np.ndarray
    step: int = 0


def init_adam(params: ParamSet, lr: float) -> OptimState:
    ids = params.trainable_ids()
    ends = np.cumsum([0] + [params[pid].data.size for pid in ids]).tolist()
    layout = list(zip(ids, ends[:-1], ends[1:]))
    return OptimState(lr=float(lr), layout=layout, flat_m=np.zeros(ends[-1]), flat_v=np.zeros(ends[-1]),
                      work=np.empty((2, ends[-1])))


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: OptimState) -> None:
    """One bias-corrected Adam update over exactly the trainable set, elementwise over the flat layout.

    m and v are updated in place with the per-tensor update's expressions,
    and each parameter is replaced by a reshaped slice of one fresh array,
    never mutated. A gradient whose shape is not its parameter's is refused
    before any state changes.
    """
    ids = {pid for pid, _, _ in state.layout}
    if grads.keys() != ids:
        missing, extra = sorted(ids - grads.keys()), sorted(grads.keys() - ids)
        raise ValueError(f"gradient map must cover exactly the trainable set; missing={missing} extra={extra}")
    tensors = [params[pid] for pid, _, _ in state.layout]
    for (pid, _, _), p in zip(state.layout, tensors):
        if np.shape(grads[pid]) != p.data.shape:
            raise ValueError(f"gradient for parameter '{pid}' has shape {np.shape(grads[pid])}, "
                             f"not the parameter's {p.data.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    if not tensors:
        return
    # two scratch vectors, not fresh temporaries: at news_train's widths those cost more than the arithmetic
    g, tmp = np.concatenate([grads[pid] for pid, _, _ in state.layout], axis=None, out=state.work[0]), state.work[1]
    m, v = state.flat_m, state.flat_v
    m *= ADAM_BETA1  # m = b1 m + (1 - b1) g
    m += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
    v *= ADAM_BETA2  # v = b2 v + (1 - b2) (g g)
    v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=g), out=g)
    denom = np.sqrt(np.divide(v, bc2, out=g), out=g)  # lr (m / bc1) / (sqrt(v / bc2) + eps)
    denom += ADAM_EPS
    update = np.multiply(state.lr, np.divide(m, bc1, out=tmp), out=tmp)
    update /= denom
    flat = np.concatenate([p.data for p in tensors], axis=None)
    flat -= update
    for (pid, lo, hi), p in zip(state.layout, tensors):
        p.data = flat[lo:hi].reshape(p.data.shape)


@dataclass
class FiniteDiffReport:
    per_param: dict[str, float]
    worst_param: str
    worst_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst_error <= self.tol


def finite_diff_check(f, params: ParamSet, step: float = 1e-6, tol: float = 1e-4) -> FiniteDiffReport:
    """Compare analytic gradients of a scalar function against central differences.

    f must be a deterministic function of the current parameter values.
    The error per parameter is max|analytic - numeric| scaled by the larger
    of the two gradients' max magnitudes, so near-zero gradients do not
    blow the ratio up. Frozen parameters are excluded.
    """
    analytic = backward(f(params), params)
    per_param: dict[str, float] = {}
    for pid in params.trainable_ids():
        p = params[pid]
        base = p.data.copy()
        numeric = np.zeros_like(base)
        flat = numeric.reshape(-1)
        for i in range(base.size):
            bumped = base.reshape(-1).copy()
            bumped[i] += step
            p.data = bumped.reshape(base.shape)
            f_plus = f(params).item()
            bumped[i] -= 2.0 * step
            p.data = bumped.reshape(base.shape)
            f_minus = f(params).item()
            flat[i] = (f_plus - f_minus) / (2.0 * step)
        p.data = base
        diff = float(np.max(np.abs(analytic[pid] - numeric)))
        denom = max(float(np.max(np.abs(analytic[pid]))), float(np.max(np.abs(numeric))))
        per_param[pid] = diff / denom if denom > 0 else diff
    worst = max(per_param, key=per_param.get) if per_param else ""
    return FiniteDiffReport(per_param=per_param, worst_param=worst, worst_error=per_param.get(worst, 0.0), tol=tol)
