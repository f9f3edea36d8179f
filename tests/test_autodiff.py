"""Finite-difference gradient verification."""

import numpy as np
import pytest

from tfilm.autodiff import finite_diff_check, zero_grads
from tfilm.errors import NonDeterministicFunction
from tfilm.tensor import Tensor


def test_passes_on_smooth_function():
    x = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True, name="x")
    report = finite_diff_check(lambda ps: (ps[0] * ps[0]).sum(), [x])
    assert report.passed
    assert report.max_rel_error < 1e-4


def test_catches_wrong_gradient():
    x = Tensor(np.array([0.5, 1.5]), requires_grad=True, name="x")

    def buggy_square(t):
        # forward is x^2 but the recorded backward claims 3x
        def backward(g):
            t.accumulate_grad(g * 3.0 * t.data)
        return Tensor._from_op(t.data * t.data, [t], backward)

    report = finite_diff_check(lambda ps: buggy_square(ps[0]).sum(), [x])
    assert not report.passed


def test_fortran_ordered_param_is_perturbed():
    # conv weights are stored Fortran-ordered; a flat view of such data is a
    # copy, and perturbing it would leave f unchanged (numeric slope 0)
    rng = np.random.default_rng(3)
    w = Tensor(np.zeros((2, 3, 4)), requires_grad=True, name="w")
    w.data = np.asfortranarray(rng.normal(size=(2, 3, 4)))
    x = Tensor(rng.normal(size=(2, 3, 4)))
    report = finite_diff_check(lambda ps: ((ps[0] * x) * ps[0]).sum(), [w])
    assert w.data.flags.f_contiguous and not w.data.flags.c_contiguous
    assert report.passed, str(report)


def test_kink_coordinates_excluded_not_failed():
    # x sits exactly on the relu kink: one-sided slopes disagree
    x = Tensor(np.array([0.0, 1.0]), requires_grad=True, name="x")
    report = finite_diff_check(lambda ps: ps[0].relu().sum(), [x])
    assert report.passed
    assert report.params[0].excluded == 1


def test_nondeterministic_function_raises():
    x = Tensor(np.array([1.0]), requires_grad=True)
    state = {"n": 0}

    def f(ps):
        state["n"] += 1
        return (ps[0] * float(state["n"])).sum()

    with pytest.raises(NonDeterministicFunction):
        finite_diff_check(f, [x])


def test_data_restored_after_check():
    x = Tensor(np.array([0.25, -0.5]), requires_grad=True)
    before = x.data.copy()
    finite_diff_check(lambda ps: (ps[0] * ps[0]).sum(), [x])
    np.testing.assert_array_equal(x.data, before)


def test_max_coords_subsamples():
    x = Tensor(np.random.default_rng(0).normal(size=100), requires_grad=True)
    report = finite_diff_check(
        lambda ps: (ps[0] * ps[0]).sum(), [x], max_coords=10)
    assert report.passed


def test_invalid_h_rejected():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError):
        finite_diff_check(lambda ps: ps[0].sum(), [x], h=0.0)


def test_zero_grads_helper():
    x = Tensor(np.array([1.0]), requires_grad=True)
    (x * 2.0).sum().backward()
    zero_grads([x])
    assert x.grad is None
