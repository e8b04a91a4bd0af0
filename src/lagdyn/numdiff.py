"""Finite-difference time derivatives of uniformly sampled trajectories.

The stencils operate along the last axis of an array so that batched
trajectory data of shape (..., N_t) differentiates in one call. Spatial
derivatives of fields live with the basis library (library) and the field
operators (sim).

Example:
    >>> import numpy as np
    >>> t = np.linspace(0.0, 1.0, 11)
    >>> dy = central_first_derivative(t**2, 0.1)
    >>> np.allclose(dy, 2 * t)
    True
"""

from __future__ import annotations

import numpy as np

# Declared truncation orders used by the convergence self-checks.
DECLARED_ORDERS = {
    "central_first_derivative": 2,
    "central_second_derivative": 2,
    "forward_first_derivative": 1,
}


def central_first_derivative(series: np.ndarray, dt: float) -> np.ndarray:
    """Second-order first derivative along the last axis.

    Interior points use (y[i+1] - y[i-1]) / (2 dt); the two endpoints use
    one-sided three-point stencils of the same order, so the output has the
    same length as the input.

    Args:
        series: Array of samples, shape (..., N_t) with N_t >= 3.
        dt: Uniform step, > 0.

    Returns:
        Array of the same shape as ``series``.
    """
    y = np.asarray(series, dtype=float)
    if y.shape[-1] < 3:
        raise ValueError("central_first_derivative needs at least 3 samples")
    if dt <= 0:
        raise ValueError("step must be positive")
    out = np.empty_like(y)
    out[..., 1:-1] = (y[..., 2:] - y[..., :-2]) / (2.0 * dt)
    out[..., 0] = (-3.0 * y[..., 0] + 4.0 * y[..., 1] - y[..., 2]) / (2.0 * dt)
    out[..., -1] = (3.0 * y[..., -1] - 4.0 * y[..., -2] + y[..., -3]) / (2.0 * dt)
    return out


def forward_first_derivative(series: np.ndarray, dt: float) -> np.ndarray:
    """First-order forward difference along the last axis.

    Rows 0..N_t-2 use (y[i+1] - y[i]) / dt; the last row falls back to the
    backward difference so the output keeps full length. For data produced
    by an explicit one-step stochastic scheme this stencil recovers the
    per-step drift identity exactly in expectation, which the central
    stencil does not.

    Args:
        series: Array of samples, shape (..., N_t) with N_t >= 2.
        dt: Uniform step, > 0.

    Returns:
        Array of the same shape as ``series``.
    """
    y = np.asarray(series, dtype=float)
    if y.shape[-1] < 2:
        raise ValueError("forward_first_derivative needs at least 2 samples")
    if dt <= 0:
        raise ValueError("step must be positive")
    out = np.empty_like(y)
    out[..., :-1] = (y[..., 1:] - y[..., :-1]) / dt
    out[..., -1] = (y[..., -1] - y[..., -2]) / dt
    return out


def central_second_derivative(series: np.ndarray, dt: float) -> np.ndarray:
    """Second-order second derivative along the last axis.

    Interior points use (y[i+1] - 2 y[i] + y[i-1]) / dt**2; endpoints use
    one-sided four-point stencils of the same order (three-point when only
    three samples exist, in which case the endpoint rows are first-order
    but still exact for quadratics).

    Args:
        series: Array of samples, shape (..., N_t) with N_t >= 3.
        dt: Uniform step, > 0.

    Returns:
        Array of the same shape as ``series``.
    """
    y = np.asarray(series, dtype=float)
    n = y.shape[-1]
    if n < 3:
        raise ValueError("central_second_derivative needs at least 3 samples")
    if dt <= 0:
        raise ValueError("step must be positive")
    dt2 = dt * dt
    out = np.empty_like(y)
    out[..., 1:-1] = (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]) / dt2
    if n >= 4:
        out[..., 0] = (
            2.0 * y[..., 0] - 5.0 * y[..., 1] + 4.0 * y[..., 2] - y[..., 3]
        ) / dt2
        out[..., -1] = (
            2.0 * y[..., -1] - 5.0 * y[..., -2] + 4.0 * y[..., -3] - y[..., -4]
        ) / dt2
    else:
        out[..., 0] = out[..., 1]
        out[..., -1] = out[..., 1]
    return out
