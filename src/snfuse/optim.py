"""Parameter registry, gradient collection, Adam, and the finite-difference harness."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    value. Frozen parameters never appear in the returned map.
    """
    loss.backward()
    grads: dict[str, np.ndarray] = {}
    missing = []
    for pid in params.trainable_ids():
        g = params[pid].grad
        if g is None:
            missing.append(pid)
        else:
            grads[pid] = g
    params.clear_grads()
    if missing:
        raise ValueError(f"no gradient reached trainable parameters: {', '.join(missing)}")
    for pid, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{pid}'")
    return grads


@dataclass
class OptimState:
    lr: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: ParamSet, lr: float) -> OptimState:
    state = OptimState(lr=float(lr))
    for pid in params.trainable_ids():
        state.m[pid] = np.zeros_like(params[pid].data)
        state.v[pid] = np.zeros_like(params[pid].data)
    return state


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: OptimState) -> None:
    """One bias-corrected Adam update over exactly the trainable set."""
    trainable = set(params.trainable_ids())
    got = set(grads)
    if got != trainable:
        missing = sorted(trainable - got)
        extra = sorted(got - trainable)
        raise ValueError(f"gradient map must cover exactly the trainable set; missing={missing} extra={extra}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for pid in sorted(grads):
        g = grads[pid]
        state.m[pid] = ADAM_BETA1 * state.m[pid] + (1.0 - ADAM_BETA1) * g
        state.v[pid] = ADAM_BETA2 * state.v[pid] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[pid] / bc1
        v_hat = state.v[pid] / bc2
        p = params[pid]
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
