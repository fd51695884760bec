"""Model systems: the five one-degree-of-freedom Hamiltonians.

All quantities are dimensionless: energies in units of hbar*omega0, times
in units of the natural period 2*pi/omega0, and positions in the model's
natural length (sqrt(hbar/m*omega0) for the harmonic/Kerr oscillators,
radians for the pendulum, 1/c for the Morse potential, the well width L
for the infinite well).
"""

from dataclasses import dataclass
from math import inf

from .errors import DomainError

HARMONIC = "harmonic"
KERR = "kerr"
PENDULUM = "pendulum"
MORSE = "morse"
WELL = "well"

KINDS = (HARMONIC, KERR, PENDULUM, MORSE, WELL)


@dataclass(frozen=True)
class ModelSystem:
    """One of the five model Hamiltonians with its dimensionless parameters.

    ``alpha`` is the anharmonicity (Kerr: any sign, pendulum: strictly
    negative); ``lambda_morse`` is the Morse depth 2*De/(hbar*omega0).
    """

    kind: str
    alpha: float = None
    lambda_morse: float = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}")
        if self.kind == KERR:
            if self.alpha is None:
                raise DomainError("Kerr model requires alpha")
        elif self.kind == PENDULUM:
            if self.alpha is None or not self.alpha < 0:
                raise DomainError("pendulum requires alpha < 0")
        elif self.kind == MORSE:
            if self.lambda_morse is None or not self.lambda_morse > 0.5:
                raise DomainError("Morse requires lambda_morse > 1/2 (at least one bound state)")
            if self.alpha is not None:
                raise DomainError("Morse takes lambda_morse, not alpha")
        else:
            if self.alpha is not None or self.lambda_morse is not None:
                raise DomainError(f"{self.kind} model takes no parameters")

    @property
    def is_even_potential(self):
        """True when H(q, p) = H(-q, p); the Morse potential is the exception."""
        return self.kind != MORSE

    def energy_range(self):
        """Classically allowed energies (hbar*omega0 units), as (lo, hi).

        ``hi`` reflects secondary assumptions: the Kerr alpha < 0 bound
        H0 <= 1/|alpha| and the pendulum's exclusion of librating states.
        """
        if self.kind in (HARMONIC, WELL):
            return 0.0, inf
        if self.kind == KERR:
            if self.alpha < 0:
                # H = H0 + (alpha/2) H0^2 evaluated at H0 = 1/|alpha|
                return 0.0, 1.0 / (2.0 * abs(self.alpha))
            return 0.0, inf
        if self.kind == PENDULUM:
            a = abs(self.alpha)
            return -1.0 / (8.0 * a), 1.0 / (8.0 * a)
        # Morse: dissociation at De = lambda/2, open orbits above
        return 0.0, inf

    def describe(self):
        if self.kind == KERR:
            return f"kerr(alpha={self.alpha})"
        if self.kind == PENDULUM:
            return f"pendulum(alpha={self.alpha})"
        if self.kind == MORSE:
            return f"morse(lambda={self.lambda_morse})"
        return self.kind


def harmonic():
    return ModelSystem(HARMONIC)


def kerr(alpha):
    return ModelSystem(KERR, alpha=alpha)


def pendulum(alpha):
    return ModelSystem(PENDULUM, alpha=alpha)


def morse(lambda_morse):
    return ModelSystem(MORSE, lambda_morse=lambda_morse)


def infinite_well():
    return ModelSystem(WELL)


def morse_dissociation_energy(model):
    """De in hbar*omega0 units: lambda/2."""
    if model.kind != MORSE:
        raise DomainError("dissociation energy is a Morse quantity")
    return 0.5 * model.lambda_morse


def pendulum_q_parameter(model):
    """Mathieu parameter -1/(4 alpha)^2 of the pendulum eigenproblem."""
    if model.kind != PENDULUM:
        raise DomainError("q parameter is a pendulum quantity")
    return -1.0 / (4.0 * model.alpha) ** 2
