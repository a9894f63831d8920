"""Dense float64 tensors with taped reverse-mode gradients.

Deliberately small: one fresh node per op call, one backward walk per
graph. Everything runs in float64 so central-difference gradient checks
are meaningful. Tensors are never mutated once an op has consumed them;
the optimizer replaces parameter arrays between steps.

A stack of W windows of L rows is a (W, L, d) array, and an op that works
window by window reads W from the shape; a 2-D (L, d) array is one window.
`concat` and `cut` join and slice along axis -2 (each window's rows) or
-1 (columns); `gather_rows` works on axis -2. Every
product over window rows is one np.matmul over (W, L, .), and each
parameter's gradient is a piece per window added in window order, so a
training step over W stacked windows gets the same bits as the windows
taped one after another. The fused ops record one node for a whole chain
of primitive ops and match that chain bit for bit.

Inside `no_grad()` no op records parents, so inference builds no tape; the
arithmetic is the same as on one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

_TINY = np.finfo(np.float64).tiny  # the smallest normal float64


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
        """Seed a scalar loss with gradient 1 and walk the tape once.

        Every node on the tape, leaves included, starts the walk with no
        gradient, so walking one loss twice gives the same gradients twice.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _toposort(self)
        for node in order:
            node.grad = None
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


def _fold(pieces: np.ndarray) -> np.ndarray:
    """((p0 + p1) + p2) + ...: per-window pieces added as a tape that runs the windows one by one adds them."""
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = acc + piece
    return acc


def recorded(t: Tensor) -> bool:
    """Whether an op with parent t records a node: the tape is recording and t requires a gradient."""
    return _recording.get() and t.requires_grad


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    live = tuple(p for p in parents if p.requires_grad) if _recording.get() else ()
    if live:
        out.requires_grad = True
        out._parents = live
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.ndim == 3 and len(shape) == 1:  # a bias over stacked windows: one sum per window, then folded
        return _fold(g.sum(axis=1))
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    """a + b, broadcast; a (m,) bias over (W, L, m) windows gets its gradient per window, folded."""
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    """a * b, broadcast; a (W, 1, 1) a scales each window of (W, L, d) b by its own weight."""
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def matmul(a, b) -> Tensor:
    """a @ b: a (L, k) window or (W, L, k) stack of windows through a 2-D b.

    The forward, a's gradient and b's gradient pieces are each one np.matmul
    over (W, L, .) (one 2-D product over W*L rows takes other BLAS paths for
    some widths), and b's pieces are folded.
    """
    return _affine(a, b, None)


def linear(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows; x as for matmul. One node that matches add(matmul(x, w), b)."""
    return _affine(x, w, as_tensor(b))


def _affine(a, b, bias: Tensor | None) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"matmul requires (L, k) or (W, L, k) times (k, m), got {a.data.shape} x {b.data.shape}")
    x = a.data if a.data.ndim == 3 else a.data[None]
    out = np.matmul(x, b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

    def bw(g):
        if bias is not None and bias.requires_grad:  # add's backward runs before matmul's
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        g3 = g if g.ndim == 3 else g[None]
        if a.requires_grad:
            _accumulate(a, np.matmul(g3, b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            _accumulate(b, _fold(np.matmul(x.swapaxes(1, 2), g3)))

    return _node(out, (a, b), bw) if bias is None else _node(out + bias.data, (a, b, bias), bw)


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

    return _node(a.data.reshape(shape), (a,), bw)


def _at(axis: int, lo, hi) -> tuple:
    """The index of [lo, hi) along axis -2, (..., slice(lo, hi), slice(None)), or along axis -1."""
    if axis not in (-2, -1):
        raise ValueError(f"axis must be -2 (rows) or -1 (columns), got {axis}")
    return (Ellipsis, slice(lo, hi)) + (slice(None),) * (-1 - axis)


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    """Every part joined along axis -2 (each window's rows) or -1 (columns), one part after another."""
    parts = [as_tensor(p) for p in parts]
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])
    pieces = [_at(axis, lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]

    def bw(g):
        for p, at in zip(parts, pieces):
            if p.requires_grad:
                _accumulate(p, g[at])

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, bw)


def cut(a, start: int, stop: int, axis: int) -> Tensor:
    """[start, stop) along axis -2 (each window's rows) or -1 (columns)."""
    a = as_tensor(a)
    at = _at(axis, start, stop)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[at] = g
            _accumulate(a, full)

    return _node(a.data[at], (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    out = np.fmax(a.data, 0.0)  # NaN -> 0.0, as np.where(mask, a, 0.0) gives
    out += 0.0  # -0.0 -> +0.0: fmax's scalar path (SIMD tails, short arrays) keeps -0.0
    return _node(out, (a,), bw)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis with max subtraction; rejects non-finite input."""
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise DimensionError(f"softmax_rows requires a 2-D or 3-D tensor, got shape {a.data.shape}")
    y = _softmax_forward(a.data, "softmax_rows")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _softmax_backward(g, y))

    return _node(y, (a,), bw)


def _softmax_forward(x: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"{name} input contains non-finite values")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    # A saturated softmax gives subnormal gradients, and BLAS products with subnormal
    # operands run many times slower; flush them to zero.
    out = y * (g - (g * y).sum(axis=-1, keepdims=True))
    out[np.abs(out) < _TINY] = 0.0
    return out


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size

    def bw(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(g) / n))

    return _node(np.asarray(a.data.mean()), (a,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gamma, beta) -> Tensor:
    """Per-row normalization with learnable scale/shift, fused backward; gamma and beta get
    their gradients per window, folded, as a bias does."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]  # a sum over the row divided by n is np.mean without its wrapper
    mu = x.data.sum(axis=-1, keepdims=True) / n
    var = ((x.data - mu) ** 2).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mu) * inv
    y = xhat * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.data.shape))
        if x.requires_grad:
            dxhat = g * gamma.data
            term = dxhat - dxhat.sum(axis=-1, keepdims=True) / n - xhat * ((dxhat * xhat).sum(-1, keepdims=True) / n)
            _accumulate(x, inv * term)

    return _node(y, (x, gamma, beta), bw)


# -- fused taped ops -----------------------------------------------------
#
# Each records one node for what would otherwise be a chain of the ops
# above, and runs that chain's numpy expressions in the same order, on
# arrays of the same memory layout (BLAS results depend on it), so values
# and gradients match the chain bit for bit. An input whose gradient comes
# in pieces gets them in the order the chain's backward would add them, and
# a node lists its inputs in the order the chain's tape walk reaches them,
# so an input shared with other nodes gets its pieces in the chain's order
# too. The fused ops are `linear` (add(matmul(x, w), b)) above, `attention`
# (the per-head attention of the backbone and the reprogramming, and
# fusion's single-head cores) and `gather_rows` (patchify's per-patch
# slices) here, and `fusion.blend`, `fusion.shifted_sum` and the stacked
# pooling node `pooling.pool_slots`, built from the same `_node` and
# softmax helpers.


def attention(q, k, v, n_heads: int, split: bool = True) -> Tensor:
    """Multi-head softmax(QK'/sqrt(head width)) V within each window, heads consecutive column blocks.

    A (W, L, width) array holds W windows, a 2-D one one. k and v hold as
    many windows as q, or one key window that each query window attends to
    on its own, so a query window gets the bits it gets alone, however many
    windows share the keys. Per window and head (a contiguous block, one
    product of a stacked np.matmul) it matches cut on axis -1 -> transpose
    -> matmul -> scale -> softmax_rows -> matmul, then concat on axis -1.
    split=False (one head) matches matmul(q, transpose(k)) -> scale ->
    softmax_rows -> matmul on the whole window; k's gradient then stays the
    transpose of a row-major product. A shared key window takes its
    gradients from one product over every query row. q, k and v are
    distinct tensors in every caller, so the order of their gradients
    changes no bit; n_heads divides the width.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    width = q.data.shape[-1]
    windows = q.data.shape[0] if q.data.ndim == 3 else 1
    keys = k.data.shape[0] if k.data.ndim == 3 else 1
    if keys not in (1, windows):
        raise DimensionError(f"attention over {keys} key windows got queries of shape {q.data.shape}")
    head_dim = width // n_heads
    c = 1.0 / math.sqrt(head_dim)

    def heads(x: np.ndarray, n: int) -> np.ndarray:  # (n, L, width) -> (n, heads, L, head_dim) view
        return x.reshape(n, -1, n_heads, head_dim).transpose(0, 2, 1, 3)

    def rows(x: np.ndarray, shape) -> np.ndarray:  # the inverse of heads
        return x.transpose(0, 2, 1, 3).reshape(shape)

    def merged(x: np.ndarray) -> np.ndarray:  # (windows, heads, L, .) -> (keys, heads, windows * L / keys, .)
        return x if keys == windows else x.transpose(1, 0, 2, 3).reshape(1, n_heads, -1, x.shape[-1])

    qh = np.ascontiguousarray(heads(q.data, windows))
    kh, vh = (np.ascontiguousarray(heads(t.data, keys)) for t in (k, v))
    kt = kh.swapaxes(2, 3).copy()  # the tape's bits: a view's product differs (8470 of 12800 at (32, 20, 64))
    y = _softmax_forward(np.matmul(qh, kt) * c, "softmax_rows")

    def bw(g):
        gh, ym, qm = heads(g, keys), merged(y), merged(qh)
        if v.requires_grad:
            _accumulate(v, rows(np.matmul(ym.swapaxes(2, 3), gh), v.data.shape))
        if q.requires_grad or k.requires_grad:
            g_logits = _softmax_backward(np.matmul(gh, vh.swapaxes(2, 3)), ym) * c
            if q.requires_grad:
                _accumulate(q, rows(np.matmul(g_logits, kt.swapaxes(2, 3)), q.data.shape))
            if k.requires_grad:
                g_k = rows(np.matmul(qm.swapaxes(2, 3), g_logits).swapaxes(2, 3), (-1, width))
                # the rows of all windows made column-major keep each window's block column-major
                g_k = np.ascontiguousarray(g_k) if split else np.asfortranarray(g_k)
                _accumulate(k, g_k.reshape(k.data.shape))

    return _node(rows(np.matmul(y, vh), q.data.shape), (q, k, v), bw)


def gather_rows(a, index) -> Tensor:
    """Rows index of each window; a repeated row sums its gradients in index order, as cut in that order would."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)

    def bw(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if np.bincount(index).max(initial=0) > 1:
                np.add.at(full, (..., index, slice(None)), g)
            else:
                full[..., index, :] = g + 0.0  # + 0.0 makes -0.0 into +0.0, as adding into zeros does
            _accumulate(a, full)

    return _node(a.data[..., index, :], (a,), bw)


# -- window ops ------------------------------------------------------------


def block_matmul(m: np.ndarray, a) -> Tensor:
    """m @ each window of a: (W, L', d) windows through a constant (L, L') matrix to (W, L, d)."""
    a = as_tensor(a)

    def bw(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(m.T, g))

    return _node(np.matmul(m, a.data), (a,), bw)


def repeat_windows(a, windows: int) -> Tensor:
    """`windows` copies of a, stacked as (windows, *a.shape), when the op is recorded; the backward folds
    the copies' gradients. Otherwise one copy, (1, *a.shape), which every window broadcasts against."""
    a = as_tensor(a)
    copies = windows if recorded(a) else 1

    def bw(g):
        _accumulate(a, _fold(g))

    return _node(np.tile(a.data, (copies,) + (1,) * a.data.ndim), (a,), bw)
