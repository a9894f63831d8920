import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfuse.errors import DimensionError, NumericError
from snfuse.optim import (
    OptimState,
    ParamSet,
    adam_step,
    backward,
    finite_diff_check,
    init_adam,
)
from snfuse.tensor import (
    Tensor,
    add,
    attention,
    block_matmul,
    concat_cols,
    concat_rows,
    gather_rows,
    grad_enabled,
    layer_norm,
    matmul,
    mean_all,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    shift_rows,
    slice_cols,
    slice_rows,
    softmax_rows,
    sub,
    sum_all,
    transpose,
)


def test_matmul_identity():
    out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_selection_row():
    out = matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[2.0, 0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    params = ParamSet()
    a = params.add("a", rng.uniform(-2, 2, size=(3, 4)))
    b = Tensor(rng.uniform(-2, 2, size=(4, 2)))

    report = finite_diff_check(lambda p: sum_all(matmul(p["a"], b)), params)
    assert report.passed, report.per_param
    # gradient of sum(a.b) w.r.t. a is b' broadcast across rows
    grads = backward(sum_all(matmul(a, b)), params)
    np.testing.assert_allclose(grads["a"], np.tile(b.data.sum(axis=1), (3, 1)), atol=1e-12)


def test_softmax_symmetric():
    out = softmax_rows(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_two_logits_hand_value():
    # independent scalar evaluation of e^2 / (e^2 + 1)
    expected = math.exp(2.0) / (math.exp(2.0) + 1.0)
    out = softmax_rows(Tensor([[2.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[expected, 1.0 - expected]], atol=1e-12)
    assert round(expected, 6) == 0.880797


def test_softmax_large_logit_no_overflow():
    out = softmax_rows(Tensor([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        softmax_rows(Tensor([[np.nan, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(2, 6),
    st.integers(0, 10_000),
)
def test_softmax_rows_sum_to_one_and_permutation_equivariant(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-50, 50, size=(rows, cols))
    y = softmax_rows(Tensor(x)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(rows), atol=1e-12)
    assert np.all(y >= 0)
    perm = rng.permutation(rows)
    y_perm = softmax_rows(Tensor(x[perm])).data
    np.testing.assert_array_equal(y_perm, y[perm])


def test_backward_sum_gives_ones():
    params = ParamSet()
    w = params.add("w", np.array([1.0, 2.0, 3.0]))
    grads = backward(sum_all(w), params)
    np.testing.assert_array_equal(grads["w"], np.ones(3))


def test_backward_requires_scalar_loss():
    params = ParamSet()
    w = params.add("w", np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="scalar"):
        backward(add(w, w), params)


def test_backward_through_softmax_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = ParamSet()
    params.add("x", rng.uniform(-2, 2, size=(2, 4)))
    coeff = Tensor(rng.uniform(-1, 1, size=(2, 4)))

    def f(p):
        return sum_all(mul(softmax_rows(p["x"]), coeff))

    report = finite_diff_check(f, params, step=1e-6, tol=1e-4)
    assert report.passed, report.per_param


def test_backward_frozen_param_absent_from_gradient_map():
    params = ParamSet()
    w = params.add("w", np.array([1.0, 2.0]))
    frozen = params.add("frozen", np.array([5.0, 5.0]), frozen=True)
    grads = backward(sum_all(mul(w, frozen)), params)
    assert set(grads) == {"w"}
    assert frozen.grad is None


def test_backward_errors_on_unreachable_trainable():
    params = ParamSet()
    w = params.add("w", np.array([1.0]))
    params.add("dead", np.array([2.0]))
    with pytest.raises(ValueError, match="dead"):
        backward(sum_all(w), params)


def test_adam_zero_gradient_leaves_parameter_unchanged():
    params = ParamSet()
    params.add("w", np.array([1.5, -2.0]))
    state = init_adam(params, lr=0.01)
    adam_step(params, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(params["w"].data, [1.5, -2.0])


def test_adam_first_step_hand_value():
    # one step at lr 0.01, grad 1: m_hat=1, v_hat=1, delta = 0.01 / (1 + 1e-8)
    expected_delta = 0.01 * 1.0 / (1.0 + 1e-8)
    params = ParamSet()
    params.add("w", np.array([1.0]))
    state = init_adam(params, lr=0.01)
    adam_step(params, {"w": np.array([1.0])}, state)
    np.testing.assert_allclose(params["w"].data, [1.0 - expected_delta], rtol=1e-12)
    assert abs(expected_delta - 0.01) < 1e-9


def test_adam_step_counter_and_moment_shapes():
    params = ParamSet()
    params.add("w", np.zeros((2, 3)))
    state = init_adam(params, lr=0.01)
    for i in range(3):
        adam_step(params, {"w": np.ones((2, 3))}, state)
        assert state.step == i + 1
    assert state.m["w"].shape == (2, 3)
    assert state.v["w"].shape == (2, 3)


def test_adam_frozen_untouched_across_100_steps():
    params = ParamSet()
    params.add("w", np.array([0.0]))
    frozen = params.add("frozen", np.array([7.0, 8.0]), frozen=True)
    before = frozen.data.copy()
    state = init_adam(params, lr=0.01)
    for _ in range(100):
        adam_step(params, {"w": np.array([0.3])}, state)
    np.testing.assert_array_equal(frozen.data, before)
    assert "frozen" not in state.m


def test_adam_rejects_incomplete_gradient_map():
    params = ParamSet()
    params.add("a", np.zeros(2))
    params.add("b", np.zeros(2))
    state = init_adam(params, lr=0.01)
    with pytest.raises(ValueError, match="missing"):
        adam_step(params, {"a": np.zeros(2)}, state)
    with pytest.raises(ValueError, match="extra"):
        adam_step(params, {"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)}, state)


def test_finite_diff_quadratic_tight():
    params = ParamSet()
    params.add("w", np.array([0.5, -1.5, 2.0]))

    def f(p):
        return sum_all(mul(p["w"], p["w"]))

    report = finite_diff_check(f, params, step=1e-6, tol=1e-8)
    assert report.worst_error < 1e-8


def test_finite_diff_excludes_frozen():
    params = ParamSet()
    params.add("w", np.array([1.0]))
    params.add("frozen", np.array([2.0]), frozen=True)

    def f(p):
        return sum_all(mul(p["w"], p["frozen"]))

    report = finite_diff_check(f, params)
    assert set(report.per_param) == {"w"}


OPS_FOR_GRAD = [
    ("add", lambda p, c: sum_all(mul(add(p["x"], c), c))),
    ("sub", lambda p, c: sum_all(mul(sub(c, p["x"]), c))),
    ("mul", lambda p, c: sum_all(mul(mul(p["x"], c), c))),
    ("matmul", lambda p, c: sum_all(matmul(p["x"], transpose(c)))),
    ("transpose", lambda p, c: sum_all(mul(transpose(p["x"]), transpose(c)))),
    ("reshape", lambda p, c: sum_all(mul(reshape(p["x"], (1, 12)), reshape(c, (1, 12))))),
    ("relu", lambda p, c: sum_all(mul(relu(p["x"]), c))),
    ("softmax", lambda p, c: sum_all(mul(softmax_rows(p["x"]), c))),
    ("scale", lambda p, c: sum_all(mul(scale(p["x"], 1.7), c))),
    ("mean", lambda p, c: mean_all(mul(p["x"], c))),
    ("slice_rows", lambda p, c: sum_all(mul(slice_rows(p["x"], 1, 3), slice_rows(c, 1, 3)))),
    ("slice_cols", lambda p, c: sum_all(mul(slice_cols(p["x"], 0, 2), slice_cols(c, 0, 2)))),
    ("concat_rows", lambda p, c: sum_all(mul(concat_rows([p["x"], p["x"]]), concat_rows([c, c])))),
    ("concat_cols", lambda p, c: sum_all(mul(concat_cols([p["x"], p["x"]]), concat_cols([c, c])))),
    ("gather_rows", lambda p, c: sum_all(mul(gather_rows(p["x"], [2, 0, 2, 2, 1]), gather_rows(c, [0, 1, 2, 0, 1])))),
    ("shift_rows_0", lambda p, c: sum_all(mul(shift_rows(p["x"], 0), c))),
    ("shift_rows_1", lambda p, c: sum_all(mul(shift_rows(p["x"], 1), c))),
    ("shift_rows_past_the_end", lambda p, c: sum_all(mul(shift_rows(p["x"], 5), c))),
]


@pytest.mark.parametrize("name,fn", OPS_FOR_GRAD, ids=[n for n, _ in OPS_FOR_GRAD])
def test_every_op_gradient_matches_finite_differences(name, fn):
    rng = np.random.default_rng(hash(name) % 2**32)
    params = ParamSet()
    params.add("x", rng.uniform(-2, 2, size=(3, 4)))
    c = Tensor(rng.uniform(-2, 2, size=(3, 4)))
    report = finite_diff_check(lambda p: fn(p, c), params, step=1e-6, tol=1e-4)
    assert report.passed, f"{name}: {report.per_param}"


def test_layer_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = ParamSet()
    params.add("x", rng.uniform(-2, 2, size=(3, 5)))
    params.add("g", rng.uniform(0.5, 1.5, size=5))
    params.add("b", rng.uniform(-0.5, 0.5, size=5))
    c = Tensor(rng.uniform(-1, 1, size=(3, 5)))

    def f(p):
        return sum_all(mul(layer_norm(p["x"], p["g"], p["b"]), c))

    report = finite_diff_check(f, params, step=1e-6, tol=1e-4)
    assert report.passed, report.per_param


def test_broadcast_add_bias_gradient():
    params = ParamSet()
    params.add("b", np.array([0.1, -0.2]))
    x = Tensor(np.arange(6, dtype=float).reshape(3, 2))
    grads = backward(sum_all(add(x, params["b"])), params)
    np.testing.assert_array_equal(grads["b"], [3.0, 3.0])


def test_forward_purity_bit_identical():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(4, 4))
    w = rng.uniform(-2, 2, size=(4, 4))

    def run():
        return matmul(softmax_rows(Tensor(x)), Tensor(w)).data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_paramset_rejects_duplicate_and_nonfinite():
    params = ParamSet()
    params.add("w", np.zeros(2))
    with pytest.raises(ValueError, match="already registered"):
        params.add("w", np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        params.add("bad", np.array([np.inf]))


# -- no_grad and the forward-only ops ----------------------------------------


def test_no_grad_records_no_parents():
    params = ParamSet()
    x = params.add("x", np.arange(12.0).reshape(3, 4) / 7.0)
    c = Tensor(np.ones((3, 4)))
    gamma, beta = params.add("g", np.ones(4)), params.add("b", np.zeros(4))
    with no_grad():
        outs = [fn(params, c) for _, fn in OPS_FOR_GRAD] + [layer_norm(x, gamma, beta)]
    for out in outs:
        assert out._parents == () and out._backward is None and not out.requires_grad
    taped = layer_norm(x, gamma, beta)
    assert taped.requires_grad and taped._parents == (x, gamma, beta)


def test_no_grad_restores_the_flag_after_nesting_and_exceptions():
    assert grad_enabled()
    with no_grad():
        with no_grad():
            assert not grad_enabled()
        assert not grad_enabled()
    assert grad_enabled()
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert grad_enabled()


def test_no_grad_in_one_thread_leaves_another_recording():
    entered, release = threading.Event(), threading.Event()
    seen = []

    def infer():
        with no_grad():
            entered.set()
            release.wait(timeout=10)
            seen.append(grad_enabled())

    worker = threading.Thread(target=infer)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        assert grad_enabled() and matmul(w, w)._parents == (w, w)
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive() and seen == [False]


FORWARD_ONLY = [
    ("block_matmul", lambda a: block_matmul(np.eye(2), a, 1)),
]


@pytest.mark.parametrize("name,fn", FORWARD_ONLY, ids=[n for n, _ in FORWARD_ONLY])
def test_forward_only_ops_raise_while_recording(name, fn):
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    with pytest.raises(RuntimeError, match=f"{name} is forward-only"):
        fn(Tensor(a.data))
    with no_grad():
        assert not fn(a).requires_grad


def test_block_ops_match_each_window_on_its_own():
    rng = np.random.default_rng(4)
    windows, length, width = 3, 5, 4
    q, k, v = (rng.normal(size=(windows * length, width)) for _ in range(3))
    m = rng.normal(size=(2, length))
    with no_grad():
        attended = attention(Tensor(q), Tensor(k), Tensor(v), 2, windows=windows).data
        mixed = block_matmul(m, Tensor(q), windows).data
        shifted = shift_rows(Tensor(q), 2, windows).data
        assert np.all(shift_rows(Tensor(q), length, windows).data == 0.0)
        np.testing.assert_array_equal(gather_rows(Tensor(q), [4, 0]).data, q[[4, 0]])
    for i in range(windows):
        rows = slice(i * length, (i + 1) * length)
        heads = []
        for lo in (0, 2):
            logits = q[rows, lo : lo + 2] @ k[rows, lo : lo + 2].T / math.sqrt(2)
            heads.append(softmax_rows(Tensor(logits)).data @ v[rows, lo : lo + 2])
        np.testing.assert_allclose(attended[rows], np.concatenate(heads, axis=1), rtol=1e-13)
        np.testing.assert_allclose(mixed[2 * i : 2 * i + 2], m @ q[rows], rtol=1e-14)
        np.testing.assert_array_equal(shifted[rows][:2], 0.0)
        np.testing.assert_array_equal(shifted[rows][2:], q[rows][:-2])


@pytest.mark.parametrize("n_heads,split", [(1, True), (2, True), (1, False)], ids=["1-head", "2-heads", "unsplit"])
def test_windowed_attention_gradient_matches_finite_differences_and_a_loop(n_heads, split):
    rng = np.random.default_rng(12)
    windows, length, width = 3, 4, 4
    params = ParamSet()
    for name in "qkv":
        params.add(name, rng.normal(size=(windows * length, width)))
    c = Tensor(rng.normal(size=(windows * length, width)))

    def stacked(p):
        return sum_all(mul(attention(p["q"], p["k"], p["v"], n_heads, split, windows), c))

    def looped(p):
        outs = [attention(*(slice_rows(p[name], i * length, (i + 1) * length) for name in "qkv"), n_heads, split)
                for i in range(windows)]
        return sum_all(mul(concat_rows(outs), c))

    report = finite_diff_check(stacked, params, step=1e-6, tol=1e-6)
    assert report.passed, report.per_param
    stacked_grads, looped_grads = backward(stacked(params), params), backward(looped(params), params)
    for name in "qkv":
        np.testing.assert_array_equal(stacked_grads[name], looped_grads[name])


def test_windowed_shift_rows_gradient_matches_a_loop():
    rng = np.random.default_rng(13)
    windows, length = 3, 4
    params = ParamSet()
    x = params.add("x", rng.normal(size=(windows * length, 2)))
    c = Tensor(rng.normal(size=(windows * length, 2)))
    for k in (0, 1, length, length + 2):
        stacked = backward(sum_all(mul(shift_rows(x, k, windows), c)), params)["x"]
        looped = backward(sum_all(mul(concat_rows(
            [shift_rows(slice_rows(x, i * length, (i + 1) * length), k) for i in range(windows)]), c)), params)["x"]
        np.testing.assert_array_equal(stacked, looped)
        expected = np.zeros((windows, length, 2))
        expected[:, : max(length - k, 0)] = c.data.reshape(windows, length, 2)[:, k:]
        np.testing.assert_array_equal(stacked, expected.reshape(-1, 2))
