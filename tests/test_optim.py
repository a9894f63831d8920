import re

import numpy as np
import pytest

from oracles import adam_moments, adam_per_tensor, sum_all
from snfuse.errors import NumericError
from snfuse.optim import ParamSet, adam_step, backward, init_adam
from snfuse.tensor import Tensor, add, mul


def _overflowing_term(p):
    # value exactly 0 at p = 0, but d/dp = 2e308 overflows to inf
    c = Tensor([1e308])
    return add(mul(p, c), mul(p, c))


def test_backward_rejects_non_finite_gradient_with_finite_loss():
    params = ParamSet()
    p = params.add("p", [0.0])
    loss = sum_all(_overflowing_term(p))
    assert loss.item() == 0.0
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="'p'"):
        backward(loss, params)


def test_backward_names_the_first_non_finite_parameter():
    params = ParamSet()
    fine = params.add("a.fine", [1.0])
    second = params.add("c.overflow", [0.0])
    first = params.add("b.overflow", [0.0])
    loss = sum_all(add(add(_overflowing_term(second), _overflowing_term(first)), fine))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="'b.overflow'"):
        backward(loss, params)


def test_adam_two_steps_match_a_hand_trace_with_bias_correction():
    params = ParamSet()
    p = params.add("p", [1.0, -2.0])
    state = init_adam(params, lr=0.1)
    # step 1, g = (0.5, -1): m = 0.1 g, v = 0.001 g^2; corrected by 1 - 0.9 and 1 - 0.999
    # they are g and g^2 again, so each entry moves by lr |g| / (|g| + eps)
    adam_step(params, {"p": np.array([0.5, -1.0])}, state)
    m, v = adam_moments(state)["p"]
    np.testing.assert_allclose(m, [0.05, -0.1], rtol=1e-15)
    np.testing.assert_allclose(v, [0.00025, 0.001], rtol=1e-15)
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 0.5 / (0.5 + 1e-8), -2.0 + 0.1 * 1.0 / (1.0 + 1e-8)], rtol=1e-15)
    first = p.data.copy()
    # step 2, g = (-0.25, 2): m = (0.045 - 0.025, -0.09 + 0.2), v = (0.00024975 + 0.0000625, 0.000999 + 0.004);
    # bias corrections 1 - 0.9^2 = 0.19 and 1 - 0.999^2 = 0.001999
    adam_step(params, {"p": np.array([-0.25, 2.0])}, state)
    assert state.step == 2
    m, v = adam_moments(state)["p"]
    np.testing.assert_allclose(m, [0.02, 0.11], rtol=1e-12)
    np.testing.assert_allclose(v, [0.00031225, 0.004999], rtol=1e-12)
    m_hat = np.array([0.02, 0.11]) / 0.19
    v_hat = np.array([0.00031225, 0.004999]) / 0.001999
    np.testing.assert_allclose(p.data, first - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8), rtol=1e-12)
    np.testing.assert_allclose(p.data, [0.8733663, -1.9366104], rtol=1e-7)


def test_adam_updates_exactly_the_trainable_set():
    params = ParamSet()
    params.add("a", [1.0])
    frozen = params.add("f", [3.0], frozen=True)
    state = init_adam(params, lr=0.1)
    with pytest.raises(ValueError, match="missing=\\['a'\\]"):
        adam_step(params, {}, state)
    with pytest.raises(ValueError, match="extra=\\['f'\\]"):
        adam_step(params, {"a": np.array([1.0]), "f": np.array([1.0])}, state)
    adam_step(params, {"a": np.array([1.0])}, state)
    assert frozen.data[0] == 3.0 and params["a"].data[0] != 1.0


@pytest.mark.parametrize("shape,grad_shape", [((5,), (1,)), ((2, 3), (3,))], ids=["broadcast", "same-size-row"])
def test_adam_refuses_a_gradient_of_another_shape_before_any_state_changes(shape, grad_shape):
    params = ParamSet()
    a = params.add("a", [1.0, 2.0])
    w = params.add("w", np.ones(shape))
    state = init_adam(params, lr=0.1)
    adam_step(params, {"a": np.array([0.5, -1.0]), "w": np.full(shape, 0.25)}, state)
    before = (a.data.tobytes(), w.data.tobytes(), state.flat_m.tobytes(), state.flat_v.tobytes())
    message = f"gradient for parameter 'w' has shape {grad_shape}, not the parameter's {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        adam_step(params, {"a": np.array([0.5, -1.0]), "w": np.ones(grad_shape)}, state)
    assert state.step == 1
    assert (a.data.tobytes(), w.data.tobytes(), state.flat_m.tobytes(), state.flat_v.tobytes()) == before


def _adam_params() -> ParamSet:
    # values from 1e-6 to 1 in magnitude: near 0 a parameter keeps the update's last bits
    rng = np.random.default_rng(3)
    params = ParamSet()
    for pid, shape in (("a", (1,)), ("b", (5,)), ("c", (3, 4))):
        params.add(pid, rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 0.0, size=shape))
    params.add("frozen", rng.normal(size=(2,)), frozen=True)
    return params


def test_the_flat_adam_update_is_the_per_tensor_update_bit_for_bit():
    flat, looped = _adam_params(), _adam_params()
    trainable = flat.trainable_ids()
    state = init_adam(flat, lr=0.01)
    m = {pid: np.zeros_like(looped[pid].data) for pid in trainable}
    v = {pid: np.zeros_like(looped[pid].data) for pid in trainable}
    frozen = flat["frozen"].data.tobytes()
    rng = np.random.default_rng(11)

    def step(n):
        # both signs, magnitudes from 1e-12 to 1e2
        grads = {pid: rng.choice([-1.0, 1.0], size=flat[pid].data.shape)
                 * 10.0 ** rng.uniform(-12.0, 2.0, size=flat[pid].data.shape) for pid in trainable}
        held = {pid: (flat[pid].data, flat[pid].data.tobytes()) for pid in trainable}
        adam_step(flat, grads, state)
        adam_per_tensor(looped, grads, m, v, n, lr=0.01)
        assert state.step == n
        moments = adam_moments(state)
        for pid in trainable:
            assert flat[pid].data.tobytes() == looped[pid].data.tobytes(), pid
            assert moments[pid][0].tobytes() == m[pid].tobytes(), pid
            assert moments[pid][1].tobytes() == v[pid].tobytes(), pid
            assert held[pid][0].tobytes() == held[pid][1], f"{pid} was mutated, not replaced"
        assert flat["frozen"].data.tobytes() == frozen and "frozen" not in moments

    step(1)
    snapshot = flat.snapshot()
    step(2)
    step(3)
    # the next step starts from the restored values, not from any copy of the parameters the layout kept
    flat.restore(snapshot)
    looped.restore(snapshot)
    step(4)
