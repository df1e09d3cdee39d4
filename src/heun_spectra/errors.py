"""Exception types shared across the solver stack, and the integer-input rule."""

import numbers


class ParameterError(ValueError):
    """A model configuration or block violates a structural constraint."""


class RecurrenceBreakdownError(ArithmeticError):
    """A super-diagonal entry vanished, so the coefficient recurrence cannot advance."""


class PrecisionError(RuntimeError):
    """A solve or a quadrature could not reach its tolerance.

    Raised when an eigensolver fails, when neither the forward nor the
    twisted null vector of a physical root meets the residual tolerance,
    when a state norm is not finite and positive, when a norm quadrature
    does not converge, and by the oracle when LAPACK fails in a mesh
    eigensolve or in the shifted solve of the box test ("mesh eigensolver
    failed") or no two mesh sizes agree ("mesh levels ... still differ").
    """


class SelectionError(LookupError):
    """A requested block or root selection does not exist or is not usable."""


def require_integer(value, message: str) -> int:
    """value as a Python int, when it is an integer (an int, or a numpy
    integer, which numpy registers as ``numbers.Integral``) and not a bool;
    anything else raises ParameterError(message)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(message)
    return int(value)
