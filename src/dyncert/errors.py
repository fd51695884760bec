"""Exception types shared across the library, and one argument check."""

from numbers import Integral


class DyncertError(Exception):
    """Base class for all library errors."""


class DomainError(DyncertError, ValueError):
    """An argument lies outside the mathematically allowed domain."""


class ConvergenceError(DyncertError, RuntimeError):
    """An iterative routine failed to reach its tolerance.

    The best residual (or error estimate) achieved is attached so callers
    can decide whether the partial result is still usable.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class EmptyWindowError(DyncertError, ValueError):
    """Energy-window constraints left no admissible energies."""


class EmptySliceError(DyncertError, ValueError):
    """No energy level falls inside the requested window."""


class LibrationError(DomainError):
    """Pendulum energy at or above the separatrix (librating trajectory)."""


class UnboundedSpectrumError(DomainError):
    """A window without a finite e_max on a spectrum without a top level."""


class UnsupportedTauError(DomainError):
    """Probing ratio outside the model's admissible range."""


class NumericalInstabilityError(DyncertError, RuntimeError):
    """Closed form and independent quadrature disagree beyond tolerance."""


def check_integer(name, value, lo):
    """Raise DomainError unless *value* is an integer (Python or numpy) in
    [lo, 2**64); a float is refused, not truncated."""
    if not (isinstance(value, Integral) and lo <= value < 1 << 64):
        raise DomainError(
            f"{name} {value!r} is not an integer in [{lo}, 2**64)")
