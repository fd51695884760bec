"""Monte Carlo simulation of the three-time protocol, and position densities.

Each round picks one of the three probing times k tau T/3 uniformly at
random and a uniform u. The position measured then is positive with the
Born probability P_k (``protocol.round_probabilities``), so the round
scores 1 when u > 1 - P_k and 0 otherwise: no position is sampled.
"""

import json
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import models, protocol, spectra
from .errors import DomainError

GRID_POINTS = 4001
CHUNK_ROUNDS = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    p3_hat: float
    stderr: float
    n_rounds: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p3_hat <= 1.0:
            raise DomainError(f"estimate {self.p3_hat} outside [0, 1]")
        if self.n_rounds < 1:
            raise DomainError("n_rounds must be positive")

    def to_json(self):
        return json.dumps({"seed": self.seed, "n_rounds": self.n_rounds,
                           "p3_hat": self.p3_hat, "stderr": self.stderr})


def position_grid(state, n_points=GRID_POINTS):
    """Position grid covering all but < 1e-8 of the state's mass.

    Spans the classical turning points of the highest retained level,
    widened by five decay lengths of the slowest-decaying tail; compact
    domains (pendulum angle, box) are covered exactly.
    """
    model = state.slice.model
    kind = model.kind
    n_hi = max(state.slice.indices)
    e_hi = float(max(state.slice.energies))
    if kind == models.PENDULUM:
        return np.linspace(-pi, pi, n_points)
    if kind == models.WELL:
        return np.linspace(-0.5, 0.5, n_points)
    if kind in (models.HARMONIC, models.KERR):
        # Dimensionless oscillator: turning point sqrt(2E), unit decay length.
        q_turn = sqrt(max(2.0 * abs(e_hi), 1.0))
        lim = q_turn + 5.0
        return np.linspace(-lim, lim, n_points)
    # Morse: left tail decays like exp((lambda - n - 1/2) x), right tail
    # super-exponentially in z = 2 lambda e^x.
    lam = model.lambda_morse
    de = models.morse_dissociation_energy(model)
    r = min(e_hi / de, 1.0 - 1e-12)
    x_left = np.log1p(-sqrt(r))   # inner turning point of V = E
    x_right = np.log1p(sqrt(r))
    kappa = max(lam - n_hi - 0.5, 0.25)
    # |psi|^2 ~ exp(2 kappa x) to the left: reach down to e^-30 residual mass
    lo = x_left - 15.0 / kappa - 1.0
    hi = x_right + 5.0 * max(1.0 / sqrt(2.0 * lam * de), 0.5)
    # keep q = 0 on the grid so the positive-side mass is integrated
    # exactly, with one step on both sides: a step change at q = 0 costs
    # the trapezoid rule 1e-8 to 1e-7 of the mass at 4001 points
    h = (hi - lo) / (n_points - 1)
    return h * np.arange(np.floor(lo / h), np.ceil(hi / h) + 1.0)


def _wavefunction_table(state, qs):
    """Rows: eigenfunction of each retained level sampled on qs."""
    model = state.slice.model
    table = np.empty((state.slice.dim, qs.size))
    for i, n in enumerate(state.slice.indices):
        table[i] = spectra.eigenfunction_grid(model, int(n), qs)
    return table


def _evolved_density(state, table, tau, k):
    phases = np.exp(-1j * np.asarray(state.slice.energies)
                    * k * tau * 2.0 * pi / 3.0)
    psi = (state.amplitudes * phases) @ table
    return np.abs(psi) ** 2


def marginal_density(state, t_fraction, tau, qs):
    """Position density |<q|psi(k tau T/3)>|^2 at the positions ``qs``."""
    k = {0.0: 0, 1.0 / 3.0: 1, 2.0 / 3.0: 2}.get(float(t_fraction))
    if k is None:
        raise DomainError("t_fraction must be one of 0, 1/3, 2/3")
    qs = np.asarray(qs, dtype=float)
    return _evolved_density(state, _wavefunction_table(state, qs), tau, k)


def _chunk_plan(n_rounds):
    plan = []
    done = 0
    chunk = 0
    while done < n_rounds:
        m = min(CHUNK_ROUNDS, n_rounds - done)
        plan.append((chunk, m))
        done += m
        chunk += 1
    return plan


def _chunk_count(thresholds, seed, chunk, m):
    """Rounds of one chunk that score 1: u > 1 - P_k at their probing time."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, chunk], dtype=np.uint64)))
    ks = rng.integers(0, 3, size=m)
    us = rng.random(size=m)
    return np.count_nonzero(us > thresholds[ks])


def run_protocol(state, tau, n_rounds, seed, workers=1):
    """Monte Carlo estimate of P3 for a state at probing ratio tau.

    Rounds are processed in fixed-size chunks, each driven by a Philox
    stream keyed by (seed, chunk index), and the chunk counts are exact
    integers, so the result is bit-for-bit reproducible regardless of the
    worker count or scheduling.
    """
    if n_rounds < 1:
        raise DomainError("n_rounds must be positive")
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {seed} outside [0, 2**64)")
    if workers < 1:
        raise DomainError(f"workers must be positive, got {workers}")
    thresholds = 1.0 - np.array(protocol.round_probabilities(state, tau))
    plan = _chunk_plan(n_rounds)
    if workers > 1 and len(plan) > 1:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            counts = list(ex.map(
                lambda cm: _chunk_count(thresholds, seed, *cm), plan))
    else:
        counts = [_chunk_count(thresholds, seed, c, m) for c, m in plan]
    mean = sum(counts) / n_rounds
    # 0/1 scores: sample variance n mean (1 - mean) / (n - 1), over n
    stderr = sqrt(mean * (1.0 - mean) / max(n_rounds - 1, 1))
    return McEstimate(mean, stderr, n_rounds, seed)
