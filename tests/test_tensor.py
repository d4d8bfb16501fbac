"""Tests of the finite-difference oracle in `gradcheck_lib`, on plain arrays."""

import numpy as np
import pytest

from gradcheck_lib import NumericError, finite_diff_grad, relative_grad_error
from tdntc.layers import ShapeError


class TestFiniteDiffGrad:
    def test_linear_sum(self):
        g = finite_diff_grad(lambda x: float(x.sum()), np.array([1.0, -2.0, 3.0]))
        assert np.abs(g - 1.0).max() <= 1e-9

    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda x: 4.2, np.array([1.0, 2.0]))
        assert np.abs(g).max() <= 1e-9

    def test_quadratic_matches_analytic(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        x = rng.normal(size=4)

        def f(v):
            return float(v @ a @ v + b @ v)

        numeric = finite_diff_grad(f, x, step=1e-5)
        analytic = (a + a.T) @ x + b
        assert relative_grad_error(analytic, numeric) < 1e-5

    def test_non_contiguous_view_is_perturbed_in_place(self):
        # a transposed view has no flat view; each element must still move
        w = np.arange(6.0).reshape(2, 3)
        x = np.ones((3, 2)).T
        g = finite_diff_grad(lambda v: float((v * w).sum()), x)
        assert np.abs(g - w).max() <= 1e-9
        assert (x == 1.0).all()

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("nan"), np.array([1.0]))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.array([1.0]), step=0.0)


class TestRelativeGradError:
    def test_zero_pair(self):
        assert relative_grad_error(np.zeros(3), np.zeros(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            relative_grad_error(np.zeros(3), np.zeros(4))
