"""Shared error types plus the finite-difference gradient oracle.

Every value in this package is a plain numpy array in C (row-major) order
with dtype float64: 32-bit floats are not precise enough to pass the 1e-4
gradient checks used to verify the hand-written backward passes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Raised when an array shape violates an operation's contract."""


class NumericError(ArithmeticError):
    """Raised when an evaluation produces a non-finite value."""


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, element by element.

    This is the independent oracle every analytic backward pass in the
    package is checked against; it never shares code with the layers.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(f(x))
        flat[i] = orig - step
        f_minus = float(f(x))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite evaluation at element {i}")
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Infinity-norm relative deviation between two gradients.

    Returns 0 for a pair of all-zero gradients so that constant functions
    check out cleanly.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ShapeError(
            f"gradient shapes disagree: {analytic.shape} vs {numeric.shape}"
        )
    denom = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0))
    if denom == 0.0:
        return 0.0
    return float(np.abs(analytic - numeric).max() / denom)
