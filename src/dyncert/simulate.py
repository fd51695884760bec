"""Monte Carlo simulation of the three-time protocol.

Each round picks one of the three probing times uniformly at random,
evolves the state's amplitudes by the free phases, samples a sharp
position measurement from the resulting density by inverse-CDF on a
grid, and scores whether the position came out positive.
"""

import json
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import models, spectra
from .classical import pos
from .errors import ConvergenceError, DomainError
from .numerics import RealGrid

MASS_TARGET = 1e-8
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
    """Measurement grid covering all but < 1e-8 of the state's mass.

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
    de = lam / 2.0
    r = min(e_hi / de, 1.0 - 1e-12)
    x_left = np.log1p(-sqrt(r))   # inner turning point of V = E
    x_right = np.log1p(sqrt(r))
    kappa = max(lam - n_hi - 0.5, 0.25)
    # |psi|^2 ~ exp(2 kappa x) to the left: reach down to e^-30 residual mass
    lo = x_left - 15.0 / kappa - 1.0
    hi = x_right + 5.0 * max(1.0 / sqrt(2.0 * lam * de), 0.5)
    # keep q = 0 on the grid so the positive-side mass is integrated exactly
    n_left = max(int(round(n_points * (-lo) / (hi - lo))), 2)
    n_right = max(n_points - n_left + 1, 2)
    return np.concatenate([np.linspace(lo, 0.0, n_left),
                           np.linspace(0.0, hi, n_right)[1:]])


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


def marginal_density(state, t_fraction, tau, grid):
    """Position density |<q|psi(k tau T/3)>|^2 on the given grid."""
    k = {0.0: 0, 1.0 / 3.0: 1, 2.0 / 3.0: 2}.get(float(t_fraction))
    if k is None:
        raise DomainError("t_fraction must be one of 0, 1/3, 2/3")
    qs = np.asarray(grid.points if isinstance(grid, RealGrid) else grid,
                    dtype=float)
    table = _wavefunction_table(state, qs)
    return RealGrid(qs, _evolved_density(state, table, tau, k))


def _cdf_samplers(state, tau, n_points=GRID_POINTS):
    """Per-probing-time inverse-CDF samplers, checked for mass coverage."""
    qs = position_grid(state, n_points)
    table = _wavefunction_table(state, qs)
    samplers = []
    for k in range(3):
        dens = _evolved_density(state, table, tau, k)
        dq = np.diff(qs)
        cum = np.concatenate([[0.0],
                              np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dq)])
        mass = cum[-1]
        if mass < 1.0 - MASS_TARGET:
            raise ConvergenceError(
                f"measurement grid covers only {mass} of the probability mass",
                residual=1.0 - mass)
        cdf = cum / mass
        # strictly increasing knots for interpolation
        keep = np.concatenate([[True], np.diff(cdf) > 0])
        samplers.append((cdf[keep], qs[keep]))
    return samplers


def sample_positions(sampler, u):
    cdf, qs = sampler
    return np.interp(u, cdf, qs)


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


def _chunk_stats(samplers, seed, chunk, m):
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk], dtype=np.uint64)))
    ks = rng.integers(0, 3, size=m)
    us = rng.random(size=m)
    scores = np.empty(m)
    for k in range(3):
        mask = ks == k
        scores[mask] = pos(sample_positions(samplers[k], us[mask]))
    return float(np.sum(scores)), float(np.sum(scores * scores))


def run_protocol(state, tau, n_rounds, seed, workers=1):
    """Monte Carlo estimate of P3 for a state at probing ratio tau.

    Rounds are processed in fixed-size chunks, each driven by a Philox
    stream keyed by (seed, chunk index), and chunk statistics are summed
    in chunk order, so the result is bit-for-bit reproducible regardless
    of the worker count or scheduling.
    """
    if n_rounds < 1:
        raise DomainError("n_rounds must be positive")
    samplers = _cdf_samplers(state, tau)
    plan = _chunk_plan(n_rounds)
    if workers > 1 and len(plan) > 1:
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as ex:
            stats = list(ex.map(
                lambda cm: _chunk_stats(samplers, seed, cm[0], cm[1]), plan))
    else:
        stats = [_chunk_stats(samplers, seed, c, m) for c, m in plan]
    total = 0.0
    total_sq = 0.0
    for s, s2 in stats:  # fixed summation order by chunk index
        total += s
        total_sq += s2
    mean = total / n_rounds
    var = max(total_sq / n_rounds - mean * mean, 0.0)
    if n_rounds > 1:
        var *= n_rounds / (n_rounds - 1)
    stderr = sqrt(var / n_rounds)
    return McEstimate(mean, stderr, n_rounds, seed)


def deterministic_score(state, tau, n_points=40001):
    """Non-stochastic cross-check: average positive-side mass over the
    three probing times by grid integration."""
    qs = position_grid(state, n_points)
    table = _wavefunction_table(state, qs)
    mask = qs >= 0.0
    acc = 0.0
    for k in range(3):
        dens = _evolved_density(state, table, tau, k)
        acc += float(np.trapezoid(dens[mask], qs[mask]))
    return acc / 3.0
