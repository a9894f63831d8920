"""Dense float64 tensors with taped reverse-mode gradients.

Deliberately small: flat or 2-D row-major arrays, one fresh node per op
call, one backward walk per graph. Everything runs in float64 so
central-difference gradient checks are meaningful. Tensors are never
mutated once an op has consumed them; the optimizer replaces parameter
arrays between steps.

Four fused ops record one node for a whole chain of primitive ops and
match that chain bit for bit; the same taped ops serve the training step
(one window) and stacked inference (many windows).

Inside `no_grad()` no op records parents, so inference builds no tape.
The one op at the end of this file, `block_matmul`, has no backward and
raises while gradients are recorded.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Seed a scalar loss with gradient 1 and walk the tape once."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


# Per thread and per asyncio task, so inference in one cannot strip another's tape.
_recording: ContextVar[bool] = ContextVar("snfuse_recording", default=True)


@contextmanager
def no_grad():
    """Run ops without recording parents; the previous state returns on exit."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def grad_enabled() -> bool:
    return _recording.get()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative postorder, reversed; graphs can be a few thousand nodes deep.
    out: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    out.reverse()
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    live = tuple(p for p in parents if p.requires_grad) if _recording.get() else ()
    if live:
        out.requires_grad = True
        out._parents = live
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _node(a.data * c, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul requires 2-D operands with matching inner extents, got {a.data.shape} x {b.data.shape}"
        )

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose requires a 2-D tensor, got shape {a.data.shape}")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g.T)

    return _node(a.data.T.copy(), (a,), bw)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _node(a.data.reshape(shape).copy(), (a,), bw)


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    counts = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + counts)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[lo:hi])

    return _node(np.concatenate([p.data for p in parts], axis=0), parts, bw)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    counts = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + counts)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, g[:, lo:hi])

    return _node(np.concatenate([p.data for p in parts], axis=1), parts, bw)


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[start:stop] = g
            _accumulate(a, full)

    return _node(a.data[start:stop].copy(), (a,), bw)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[:, start:stop] = g
            _accumulate(a, full)

    return _node(a.data[:, start:stop].copy(), (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    return _node(np.where(mask, a.data, 0.0), (a,), bw)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax with max subtraction; rejects non-finite input."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"softmax_rows requires a 2-D tensor, got shape {a.data.shape}")
    y = _softmax_forward(a.data, "softmax_rows")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _softmax_backward(g, y))

    return _node(y, (a,), bw)


def _softmax_forward(x: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{name} input contains non-finite values")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(g)))

    return _node(np.asarray(a.data.sum()), (a,), bw)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size

    def bw(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(g) / n))

    return _node(np.asarray(a.data.mean()), (a,), bw)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with learnable scale/shift, fused backward."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    y = xhat * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            term = dxhat - dxhat.mean(axis=1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            _accumulate(x, inv * term)

    return _node(y, (x, gamma, beta), bw)


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


# -- fused taped ops -----------------------------------------------------
#
# Each records one node for what would otherwise be a chain of the ops
# above, and runs that chain's numpy expressions in the same order, on
# arrays of the same memory layout (BLAS results depend on it), so values
# and gradients match the chain bit for bit. Gradients reach each input
# in the order the chain's backward would deliver them.
#
# The ops that take `windows` work on W equal windows stacked one after
# another: rows [i*L, (i+1)*L) belong to window i. The training step runs
# them at W = 1, stacked inference at W > 1 inside no_grad().


def attentive_pool(w, rows: np.ndarray, name: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """softmax(query rows') rows: the (1, d) pooled row and the (1, n) attention.

    The query is w as a (1, d) row, or for a (d, d) w the (d,) name through
    it. Matches reshape (or name @ w) -> matmul -> softmax_rows -> matmul;
    the backward adds one contribution to w.
    """
    w = as_tensor(w)
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[1]
    name_row = None if name is None else np.asarray(name, dtype=np.float64).reshape(1, d)
    query = w.data.reshape((1, d)).copy() if name_row is None else name_row @ w.data
    y = _softmax_forward(query @ rows.T, "attentive_pool")

    def bw(g):
        if w.requires_grad:
            g_query = _softmax_backward(g @ rows.T, y) @ rows
            _accumulate(w, g_query.reshape(w.data.shape) if name_row is None else name_row.T @ g_query)

    return _node(y @ rows, (w,), bw), y


def attention(q, k, v, n_heads: int, split: bool = True, windows: int = 1) -> Tensor:
    """Multi-head softmax(QK'/sqrt(head width)) V within each window, heads consecutive column blocks.

    Per window and head (a contiguous block, one product of a stacked
    np.matmul) it matches slice_cols -> transpose -> matmul -> scale ->
    softmax_rows -> matmul, then concat_cols. split=False (one head) matches
    matmul(q, transpose(k)) -> scale -> softmax_rows -> matmul on the whole
    window; k's gradient then stays the transpose of a row-major product.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    width = q.data.shape[1]
    if width % n_heads != 0:
        raise ValueError(f"model width {width} not divisible by {n_heads} heads")
    if not split and n_heads != 1:
        raise ValueError("attention without head splitting takes one head")
    head_dim = width // n_heads
    c = 1.0 / math.sqrt(head_dim)

    def heads(x: np.ndarray) -> np.ndarray:  # (W*L, width) -> (W, heads, L, head_dim) view
        return x.reshape(windows, -1, n_heads, head_dim).transpose(0, 2, 1, 3)

    def rows(x: np.ndarray) -> np.ndarray:  # the inverse of heads
        return x.transpose(0, 2, 1, 3).reshape(-1, width)

    qh, kh, vh = (np.ascontiguousarray(heads(t.data)) for t in (q, k, v))
    kt = kh.swapaxes(2, 3).copy()
    y = _softmax_forward(np.matmul(qh, kt) * c, "softmax_rows")

    def bw(g):
        gh = heads(g)
        g_v = rows(np.matmul(y.swapaxes(2, 3), gh)) if v.requires_grad else None
        # the unsplit chain hands v its gradient before q and k, the split one after
        if g_v is not None and not split:
            _accumulate(v, g_v)
        if q.requires_grad or k.requires_grad:
            g_logits = _softmax_backward(np.matmul(gh, vh.swapaxes(2, 3)), y) * c
            if q.requires_grad:
                _accumulate(q, rows(np.matmul(g_logits, kt.swapaxes(2, 3))))
            if k.requires_grad:
                g_k = rows(np.matmul(qh.swapaxes(2, 3), g_logits).swapaxes(2, 3))
                _accumulate(k, np.ascontiguousarray(g_k) if split else g_k)
        if g_v is not None and split:
            _accumulate(v, g_v)

    return _node(rows(np.matmul(y, vh)), (q, k, v), bw)


def gather_rows(a, index) -> Tensor:
    """Rows a[index]; a repeated row sums its gradients in index order, as slice_rows in that order would."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, g)
            _accumulate(a, full)

    return _node(a.data[index], (a,), bw)


def shift_rows(a, k: int, windows: int = 1) -> Tensor:
    """Move every window's rows k >= 0 places later; the first k rows of each window become zero."""
    a = as_tensor(a)
    n, width = a.data.shape
    length = n // windows
    k = min(k, length)

    def moved(x: np.ndarray, src: slice, dst: slice) -> np.ndarray:
        out = np.zeros((windows, length, width))
        out[:, dst] = x.reshape(windows, length, width)[:, src]
        return out.reshape(n, width)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, moved(g, slice(k, None), slice(None, length - k)))

    return _node(moved(a.data, slice(None, length - k), slice(k, None)), (a,), bw)


# -- forward-only op for stacked inference -------------------------------
#
# Windows stack as above. This op has no backward.


def block_matmul(m: np.ndarray, a, windows: int) -> Tensor:
    """m @ (each window of a): (W*L', d) rows through an (L, L') matrix to (W*L, d)."""
    if _recording.get():
        raise RuntimeError("block_matmul is forward-only; call it inside tensor.no_grad()")
    x = as_tensor(a).data
    return Tensor(np.matmul(m, x.reshape(windows, -1, x.shape[1])).reshape(-1, x.shape[1]))
