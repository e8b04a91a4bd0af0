"""Exception types for the lagdyn package.

All failures that callers are expected to handle programmatically raise a
subclass of LagdynError carrying a stable ``code`` attribute. The CLI maps
these codes to process exit codes.
"""

from __future__ import annotations


class LagdynError(Exception):
    """Base class for all lagdyn errors."""

    code = "error"


class ConfigError(LagdynError):
    """Invalid configuration: unknown keys, bad values, missing files."""

    code = "config"


class StabilityError(LagdynError):
    """A requested time step violates an integrator stability bound."""

    code = "stability"


class SimulationDivergedError(LagdynError):
    """A trajectory exceeded the blow-up bound or produced non-finite values.

    Attributes:
        step: First failing step.
        realizations: Batch rows that failed at that step.
        partial: Samples recorded before that step, one array per recorded
            row set, when the stepper recorded any.
    """

    code = "diverged"

    def __init__(self, message: str, step: int | None = None,
                 realizations: tuple[int, ...] = (), partial=None):
        super().__init__(message)
        self.step = step
        self.realizations = realizations
        self.partial = partial


class RegressionError(LagdynError):
    """The sparse regression failed to produce a usable model."""

    code = "regression"


class UnsupportedFormError(LagdynError):
    """A discovered model contains a term the downstream transform cannot handle.

    Raised e.g. when the Legendre transform meets a velocity term that is not
    a monomial, or when diffusion discovery retains a candidate without a
    closed-form gain image.
    """

    code = "unsupported_form"
