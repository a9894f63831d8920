import numpy as np
import pytest

from snfuse.errors import NumericError
from snfuse.optim import ParamSet, backward
from snfuse.tensor import Tensor, add, mul, sum_all


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
