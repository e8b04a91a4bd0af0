"""Dense least squares and sequential threshold sparse regression.

The sparse solver iterates {fit on active columns, zero small coefficients}
until the active set stops changing, then refits once on the converged
support. By default columns are standardized to unit root-mean-square
internally so a single threshold is meaningful across libraries whose
columns span many orders of magnitude; reported coefficients are in the
original scale. Standardization can be switched off to threshold in the
reported units instead, which is the right choice when the threshold
encodes a physically meaningful coefficient size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lagdyn.errors import RegressionError


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
    max_iter: int = 20,
    standardize: bool = True,
    rcond: float | None = None,
) -> SparseModel:
    """Sequential threshold least squares.

    Args:
        A: Feature matrix, shape (N, p).
        b: Target vector, shape (N,).
        threshold: Sparsity threshold; coefficients with magnitude
            strictly below it are zeroed each pass. Applies to
            standardized magnitudes when ``standardize`` is on and to
            coefficients in the original column units otherwise.
        max_iter: Iteration budget, >= 1.
        standardize: Scale columns to unit RMS before solving and
            thresholding. Off, the solve runs on the raw columns, so the
            minimum-norm tie-break for near-dependent columns and the
            threshold both act in the units the coefficients are reported in.
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
    if max_iter < 1:
        raise RegressionError("max_iter must be at least 1")
    p = A.shape[1]
    # All-zero columns stay out of every solve: they keep coefficient 0 and
    # never enter the active set.
    usable = A.any(axis=0)
    scale = np.sqrt(np.mean(A * A, axis=0)) if standardize else np.ones(p)
    usable &= scale > 0.0
    As = A[:, usable] / scale[usable]

    active = np.ones(int(usable.sum()), dtype=bool)
    coef = np.zeros(active.size)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        coef[:] = 0.0
        if active.any():
            coef[active] = least_squares(As[:, active], b, rcond=rcond)
        small = active & (np.abs(coef) < threshold)
        if not small.any():
            converged = True
            break
        active &= ~small

    # Refit on the final support; identical to the last pass when converged,
    # debiases the last prune otherwise.
    coef[:] = 0.0
    if active.any():
        coef[active] = least_squares(As[:, active], b, rcond=rcond)

    coefficients = np.zeros(p)
    coefficients[np.flatnonzero(usable)] = coef / scale[usable]
    active_idx = np.flatnonzero(usable)[active]
    residual = float(np.linalg.norm(A @ coefficients - b))
    return SparseModel(
        coefficients=coefficients,
        active_set=[int(i) for i in active_idx],
        iterations_used=iterations,
        residual_norm=residual,
        converged=converged,
    )
