"""Dense least squares and sequential threshold sparse regression.

The sparse solver iterates {fit on active columns, zero small coefficients}
until the active set stops changing, then refits once on the converged
support. It solves on the raw columns and thresholds coefficients in the
units they are reported in, so the threshold encodes a physically
meaningful coefficient size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lagdyn.errors import RegressionError

# Fit/threshold passes before stls gives up on a still-shrinking support.
MAX_ITER = 20


@dataclass
class SparseModel:
    """Result of a sparse regression.

    Attributes:
        coefficients: Length-m vector; entries outside ``active_set`` are
            exactly zero.
        active_set: Sorted indices of retained columns.
        iterations_used: Number of fit/threshold passes performed.
        residual_norm: Two-norm of the final residual A @ c - b.
        converged: True when the active set stopped changing before the
            iteration budget ran out.
    """

    coefficients: np.ndarray
    active_set: list[int] = field(default_factory=list)
    iterations_used: int = 0
    residual_norm: float = 0.0
    converged: bool = True


def _validate(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise RegressionError("feature matrix must be 2-D")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise RegressionError("target must be a vector matching the row count")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
        raise RegressionError("non-finite entries in regression input")
    return A, b


def least_squares(
    A: np.ndarray,
    b: np.ndarray,
    rcond: float | None = None,
) -> np.ndarray:
    """Minimum-norm least-squares solution of A x = b.

    Args:
        A: Feature matrix, shape (N, p).
        b: Target vector, shape (N,).
        rcond: Relative cutoff for small singular values; directions of A
            whose singular value falls below ``rcond`` times the largest one
            are treated as numerically null and receive the minimum-norm
            component. None uses machine precision scaled by the matrix size.

    Returns:
        Coefficient vector of shape (p,). Rank-deficient systems return the
        minimum-norm minimizer.
    """
    A, b = _validate(A, b)
    x, *_ = np.linalg.lstsq(A, b, rcond=rcond)
    return x


def stls(
    A: np.ndarray,
    b: np.ndarray,
    threshold: float,
    rcond: float | None = None,
) -> SparseModel:
    """Sequential threshold least squares.

    Args:
        A: Feature matrix, shape (N, p).
        b: Target vector, shape (N,).
        threshold: Sparsity threshold; coefficients with magnitude
            strictly below it are zeroed each pass, in the original column
            units.
        rcond: Singular-value cutoff forwarded to the least-squares kernel.
            Near-dependent column combinations below the cutoff are not
            inverted, which keeps noise in the targets from inflating
            coefficients along those directions.

    Returns:
        SparseModel. An empty active set is a valid outcome (all columns
        thresholded away). All-zero columns get coefficient 0 and are never
        active.
    """
    A, b = _validate(A, b)
    if threshold < 0:
        raise RegressionError("threshold must be non-negative")
    # All-zero columns stay out of every solve: they keep coefficient 0 and
    # never enter the active set.
    active = A.any(axis=0)
    coefficients = np.zeros(A.shape[1])
    iterations = 0
    converged = False
    for _ in range(MAX_ITER):
        iterations += 1
        coefficients[:] = 0.0
        if active.any():
            coefficients[active] = least_squares(A[:, active], b, rcond=rcond)
        small = active & (np.abs(coefficients) < threshold)
        if not small.any():
            converged = True
            break
        active &= ~small

    # Refit on the final support; identical to the last pass when converged,
    # debiases the last prune otherwise.
    coefficients[:] = 0.0
    if active.any():
        coefficients[active] = least_squares(A[:, active], b, rcond=rcond)

    residual = float(np.linalg.norm(A @ coefficients - b))
    return SparseModel(
        coefficients=coefficients,
        active_set=[int(i) for i in np.flatnonzero(active)],
        iterations_used=iterations,
        residual_norm=residual,
        converged=converged,
    )
