import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adam_moments, sum_all
from snfuse.fusion import shifted_sum
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
    concat,
    cut,
    gather_rows,
    grad_enabled,
    layer_norm,
    linear,
    matmul,
    mean_all,
    mul,
    no_grad,
    relu,
    repeat_windows,
    reshape,
    softmax_rows,
    transpose,
)


def shift_rows(x, k):
    """Every window's rows moved k >= 0 places later, the first k zero: x as fusion.shifted_sum's product k,
    after k products of zeros."""
    return shifted_sum([Tensor(np.zeros(x.shape))] * k + [x])


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


def test_walking_one_loss_twice_gives_the_leaf_gradients_of_the_first_walk():
    # d/dw mean((x w)^2) = 2 w mean(x^2) = 2 * 3 * 6; a second walk that added onto the gradients the
    # first left on every node read 144
    params = ParamSet()
    w = params.add("w", np.array([[3.0]]))
    y = matmul(Tensor(np.array([[1.0], [1.0], [4.0]])), w)
    loss = mean_all(mul(y, y))
    loss.backward()
    first = y.grad.copy()
    np.testing.assert_array_equal(w.grad, [[36.0]])
    loss.backward()
    np.testing.assert_array_equal(w.grad, [[36.0]])
    np.testing.assert_array_equal(y.grad, first)


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
    m, v = adam_moments(state)["w"]
    assert m.shape == v.shape == (6,)  # one entry of each moment per entry of the (2, 3) w


def test_adam_frozen_untouched_across_100_steps():
    params = ParamSet()
    params.add("w", np.array([0.0]))
    frozen = params.add("frozen", np.array([7.0, 8.0]), frozen=True)
    before = frozen.data.copy()
    state = init_adam(params, lr=0.01)
    for _ in range(100):
        adam_step(params, {"w": np.array([0.3])}, state)
    np.testing.assert_array_equal(frozen.data, before)
    assert "frozen" not in adam_moments(state)


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
    ("mul", lambda p, c: sum_all(mul(mul(p["x"], c), c))),
    ("matmul", lambda p, c: sum_all(matmul(p["x"], transpose(c)))),
    ("transpose", lambda p, c: sum_all(mul(transpose(p["x"]), transpose(c)))),
    ("reshape", lambda p, c: sum_all(mul(reshape(p["x"], (1, 12)), reshape(c, (1, 12))))),
    ("relu", lambda p, c: sum_all(mul(relu(p["x"]), c))),
    ("softmax", lambda p, c: sum_all(mul(softmax_rows(p["x"]), c))),
    ("mean", lambda p, c: mean_all(mul(p["x"], c))),
    ("cut_rows", lambda p, c: sum_all(mul(cut(p["x"], 1, 3, -2), cut(c, 1, 3, -2)))),
    ("cut_cols", lambda p, c: sum_all(mul(cut(p["x"], 0, 2, -1), cut(c, 0, 2, -1)))),
    ("concat_rows", lambda p, c: sum_all(mul(concat([p["x"], p["x"]], -2), concat([c, c], -2)))),
    ("concat_cols", lambda p, c: sum_all(mul(concat([p["x"], p["x"]], -1), concat([c, c], -1)))),
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


RELU_EDGES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]


def test_relu_gives_the_bits_of_keeping_the_positive_values_and_zero_elsewhere():
    def expected(x):
        return np.where(x > 0, x, 0.0).tobytes()

    for length in range(1, 21):  # numpy's short-array and SIMD-tail paths, which handle -0.0 apart
        base = np.resize(np.array(RELU_EDGES), length)
        for at in range(length):
            for value in RELU_EDGES:
                x = base.copy()
                x[at] = value
                assert relu(Tensor(x)).data.tobytes() == expected(x), (length, at, value)
    strided = np.resize(np.array(RELU_EDGES), (7, 9)).T[::2, 1:]
    assert relu(Tensor(strided)).data.tobytes() == expected(strided)


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


def test_block_ops_match_each_window_on_its_own():
    rng = np.random.default_rng(4)
    windows, length, width = 3, 5, 4
    q, k, v = (rng.normal(size=(windows, length, width)) for _ in range(3))
    m = rng.normal(size=(2, length))
    with no_grad():
        attended = attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        mixed = block_matmul(m, Tensor(q)).data
        shifted = shift_rows(Tensor(q), 2).data
        assert np.all(shift_rows(Tensor(q), length).data == 0.0)
        np.testing.assert_array_equal(gather_rows(Tensor(q), [4, 0]).data, q[:, [4, 0]])
    for i in range(windows):
        heads = []
        for lo in (0, 2):
            logits = q[i, :, lo : lo + 2] @ k[i, :, lo : lo + 2].T / math.sqrt(2)
            heads.append(softmax_rows(Tensor(logits)).data @ v[i, :, lo : lo + 2])
        np.testing.assert_allclose(attended[i], np.concatenate(heads, axis=1), rtol=1e-13)
        np.testing.assert_allclose(mixed[i], m @ q[i], rtol=1e-14)
        np.testing.assert_array_equal(shifted[i][:2], 0.0)
        np.testing.assert_array_equal(shifted[i][2:], q[i][:-2])


def _window(x, i):
    """Window i of a (W, L, d) stack as a (1, L, d) stack of its own, through taped ops."""
    windows, length, width = x.shape
    rows = cut(reshape(x, (windows * length, width)), i * length, (i + 1) * length, -2)
    return reshape(rows, (1, length, width))


def _looped(outs, c):
    """sum(c * outs), the windows' outputs joined one after another."""
    return sum_all(mul(concat(outs, -2), Tensor(c.data.reshape(1, -1, c.shape[-1]))))


@pytest.mark.parametrize("n_heads,split", [(1, True), (2, True), (1, False)], ids=["1-head", "2-heads", "unsplit"])
def test_windowed_attention_gradient_matches_finite_differences_and_a_loop(n_heads, split):
    rng = np.random.default_rng(12)
    windows, length, width = 3, 4, 4
    params = ParamSet()
    for name in "qkv":
        params.add(name, rng.normal(size=(windows, length, width)))
    c = Tensor(rng.normal(size=(windows, length, width)))

    def stacked(p):
        return sum_all(mul(attention(p["q"], p["k"], p["v"], n_heads, split), c))

    def looped(p):
        return _looped([attention(*(_window(p[name], i) for name in "qkv"), n_heads, split)
                        for i in range(windows)], c)

    report = finite_diff_check(stacked, params, step=1e-6, tol=1e-6)
    assert report.passed, report.per_param
    stacked_grads, looped_grads = backward(stacked(params), params), backward(looped(params), params)
    for name in "qkv":
        np.testing.assert_array_equal(stacked_grads[name], looped_grads[name])


def test_attention_rejects_queries_of_another_window_count():
    k = Tensor(np.zeros((3, 4, 2)))
    with pytest.raises(DimensionError, match="3 key windows"):
        attention(Tensor(np.zeros((2, 4, 2))), k, k, 1)
    with no_grad():  # one key window serves every query window
        out = attention(Tensor(np.ones((2, 4, 2))), Tensor(np.zeros((1, 3, 2))), Tensor(np.ones((1, 3, 2))), 1)
    np.testing.assert_array_equal(out.data, np.ones((2, 4, 2)))


@pytest.mark.parametrize("length", [1, 3])
def test_a_shared_key_window_gives_each_query_window_its_own_bits(length):
    # off a tape every query window gets the bits it gets alone, one query row included; on a tape
    # the shared k and v take their gradients from one product over every query row, as they do
    # when the queries are one window
    rng = np.random.default_rng(21)
    windows, width, n_keys = 5, 32, 16
    q, c = rng.normal(size=(windows, length, width)), rng.normal(size=(windows, length, width))
    k, v = rng.normal(size=(1, n_keys, width)), rng.normal(size=(1, n_keys, width))
    for n_heads in (1, 4):
        with no_grad():
            stacked = attention(Tensor(q), Tensor(k), Tensor(v), n_heads).data
            alone = [attention(Tensor(q[i : i + 1]), Tensor(k), Tensor(v), n_heads).data for i in range(windows)]
        assert np.array_equal(stacked, np.concatenate(alone))
        if length == 1:
            continue
        grads = []
        for shape in ((windows, length, width), (1, windows * length, width)):
            params = ParamSet()
            for name, x in zip("qkv", (q, k, v)):
                params.add(name, x)
            out = attention(reshape(params["q"], shape), params["k"], params["v"], n_heads)
            grads.append(backward(sum_all(mul(out, Tensor(c.reshape(shape)))), params))
        for name in "qkv":
            assert np.array_equal(grads[0][name], grads[1][name]), name


def test_windowed_shift_rows_gradient_matches_a_loop():
    rng = np.random.default_rng(13)
    windows, length = 3, 4
    params = ParamSet()
    x = params.add("x", rng.normal(size=(windows, length, 2)))
    c = Tensor(rng.normal(size=(windows, length, 2)))
    for k in (0, 1, length, length + 2):
        stacked = backward(sum_all(mul(shift_rows(x, k), c)), params)["x"]
        looped = backward(_looped([shift_rows(_window(x, i), k) for i in range(windows)], c), params)["x"]
        np.testing.assert_array_equal(stacked, looped)
        expected = np.zeros((windows, length, 2))
        expected[:, : max(length - k, 0)] = c.data[:, k:]
        np.testing.assert_array_equal(stacked, expected)


# ops over a (W, L, 4) stack x: (name, parameters besides x, op(x, params)); W comes from x's shape
WINDOWED_OPS = [
    ("matmul", "w", lambda x, p: matmul(x, p["w"])),
    ("linear", "wb", lambda x, p: linear(x, p["w"], p["b"])),
    ("mul", "s", lambda x, p: mul(cut(repeat_windows(p["s"], x.shape[0]), 1, 2, -1), x)),
    ("repeat_windows", "r", lambda x, p: mul(x, repeat_windows(p["r"], x.shape[0]))),
    ("concat_rows", "w", lambda x, p: concat([x, matmul(x, p["w"])], -2)),
    ("concat_cols", "w", lambda x, p: concat([x, matmul(x, p["w"])], -1)),
    ("cut_rows", "w", lambda x, p: cut(matmul(x, p["w"]), 1, 2, -2)),
    ("cut_cols", "w", lambda x, p: cut(matmul(x, p["w"]), 1, 3, -1)),
    ("block_matmul", "w", lambda x, p: block_matmul(np.array([[0.5, -1.5], [2.0, 0.25], [1.0, 1.0]]),
                                                    matmul(x, p["w"]))),
    ("gather_rows", "w", lambda x, p: gather_rows(matmul(x, p["w"]), [1, 0, 1])),
    ("layer_norm", "gb", lambda x, p: layer_norm(x, p["g"], p["b"])),
]


@pytest.mark.parametrize("name,used,fn", WINDOWED_OPS, ids=[n for n, _, _ in WINDOWED_OPS])
def test_windowed_op_gradients_match_each_window_taped_alone(name, used, fn):
    rng = np.random.default_rng(21)
    windows, length = 3, 2
    shapes = {"x": (windows, length, 4), "w": (4, 4), "b": (4,), "s": (1, 2), "r": (length, 4), "g": (4,)}
    params = ParamSet()
    for pid in "x" + used:
        params.add(pid, rng.normal(size=shapes[pid]))
    with no_grad():
        whole = fn(params["x"], params).data
    c = Tensor(rng.normal(size=whole.shape))

    def stacked(p):
        return sum_all(mul(fn(p["x"], p), c))

    def looped(p):
        return _looped([fn(_window(p["x"], i), p) for i in range(windows)], c)

    report = finite_diff_check(stacked, params, step=1e-6, tol=1e-6)
    assert report.passed, report.per_param
    stacked_grads, looped_grads = backward(stacked(params), params), backward(looped(params), params)
    for pid in stacked_grads:
        np.testing.assert_array_equal(stacked_grads[pid], looped_grads[pid])
    # without a tape the products run over the whole stack
    np.testing.assert_allclose(fn(params["x"], params).data, whole, rtol=1e-14)


def test_a_saturated_softmax_gives_no_subnormal_gradient():
    params = ParamSet()
    # exp(-712) is subnormal, and so is every gradient entry it scales
    x = params.add("x", np.array([[0.0, -712.0, 1.0], [3.0, 2.0, -715.0]]))
    c = Tensor(np.array([[1.0, -2.0, 0.5], [0.3, 1.0, -1.0]]))
    assert 0.0 < softmax_rows(x).data[0, 1] < np.finfo(np.float64).tiny
    g = backward(sum_all(mul(softmax_rows(x), c)), params)["x"]
    assert g[0, 1] == 0.0 and g[1, 2] == 0.0
    assert np.all(np.abs(g[g != 0.0]) >= np.finfo(np.float64).tiny)
    assert np.count_nonzero(g) == 4


def test_gather_rows_without_repeats_scatters_as_adding_into_zeros_does():
    params = ParamSet()
    x = params.add("x", np.ones((4, 2)))
    index = [2, 0, 3]
    c = Tensor(np.array([[-0.0, 1.0], [2.0, -0.0], [3.0, 4.0]]))
    g = backward(sum_all(mul(gather_rows(x, index), c)), params)["x"]
    expected = np.zeros((4, 2))
    np.add.at(expected, index, c.data)
    np.testing.assert_array_equal(g, expected)
    assert not np.any(np.signbit(g))  # the -0.0 entries of c come out +0.0


@pytest.mark.parametrize("axis", [-2, -1])
def test_concat_hands_each_part_a_view_of_the_gradient_and_cut_a_view_of_its_input(axis):
    parts = [Tensor(np.ones((2, 3, 4)) * k, requires_grad=True) for k in (1.0, 2.0)]
    joined = concat(parts, axis)
    g = np.arange(joined.data.size, dtype=np.float64).reshape(joined.shape)
    joined._backward(g)
    for part, piece in zip(parts, np.split(g, 2, axis=axis)):
        assert np.shares_memory(part.grad, g)
        np.testing.assert_array_equal(part.grad, piece)
    piece = cut(joined, 1, 3, axis)
    assert np.shares_memory(piece.data, joined.data)
    np.testing.assert_array_equal(piece.data, np.moveaxis(np.moveaxis(joined.data, axis, 0)[1:3], 0, axis))


@pytest.mark.parametrize("axis", [0, 1, 2, -3])
def test_concat_and_cut_refuse_an_axis_other_than_rows_or_columns(axis):
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="axis must be -2"):
        concat([x, x], axis)
    with pytest.raises(ValueError, match="axis must be -2"):
        cut(x, 0, 1, axis)
