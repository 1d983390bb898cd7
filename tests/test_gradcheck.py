"""Finite-difference gradient checker: exact cases, failure detection, and
precondition enforcement."""

import numpy as np
import pytest

from semtok import tensor as T
from semtok.gradcheck import check_gradients
from semtok.tensor import NumericsError, Tensor


def test_sum_of_squares_is_exact():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(7), requires_grad=True)
    report = check_gradients(lambda: T.mul(x, x).sum(), {"x": x}, step=1e-5, tol=1e-4)
    assert report.passed and report.max_rel_err < 1e-9


def test_constant_function_both_gradients_zero():
    x = Tensor(np.ones(4), requires_grad=True)
    c = Tensor(np.full((), 3.0))
    report = check_gradients(lambda: T.mul(c, 1.0), {"x": x}, step=1e-5, tol=1e-4)
    assert report.passed and report.max_rel_err == 0.0


def test_detects_wrong_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def broken():
        out = T.mul(x, x).sum()
        # sabotage: double-count one use
        x._accumulate(np.ones_like(x.data) * 10.0)
        return out

    report = check_gradients(broken, {"x": x}, step=1e-5, tol=1e-4)
    assert not report.passed


def test_rejects_float32_params():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(TypeError):
        check_gradients(lambda: x.sum(), {"x": x})


def test_rejects_bad_step():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        check_gradients(lambda: x.sum(), {"x": x}, step=1e-2)


def test_nonfinite_loss_is_an_error():
    x = Tensor(np.array([0.0]), requires_grad=True)
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericsError):
            check_gradients(lambda: T.div(1.0, x).sum(), {"x": x})


def test_report_names_worst_parameter():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)

    def f():
        out = T.add(T.mul(a, a).sum(), b.sum())
        b._accumulate(np.full_like(b.data, 5.0))  # corrupt only b
        return out

    report = check_gradients(f, {"a": a, "b": b}, step=1e-5, tol=1e-4)
    assert report.worst_param == "b" and not report.passed
    assert report.per_param["a"] < 1e-9
