"""Exception and warning types shared across the package.

All numerical failures are explicit exceptions carrying the best available
estimate; nothing silently returns NaN.
"""


class NumericError(RuntimeError):
    """Base class for numerical failures (series, quadrature, domain clamps)."""


class SeriesConvergenceError(NumericError):
    """A series hit its term cap (or a rounding guard) before reaching tolerance."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class QuadratureError(NumericError):
    """Adaptive quadrature could not certify the requested absolute tolerance."""

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class DataFormatError(ValueError):
    """A data file violated its documented format; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TuningWarning(UserWarning):
    """An MCMC chain mixed poorly (acceptance rate below 0.5)."""
