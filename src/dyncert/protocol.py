"""The three-time protocol: Q3(T) assembly, maximum quantum score,
probing-duration scans, and harmonic-approximation comparison scenarios.

The probing duration is always given as the ratio tau = T / (2 pi / omega0).
"""

import csv
import functools
import io
import json
import warnings
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import models, spectra
from .classical import TAU_HI, TAU_LO, EnergyWindow, energy_window
from .errors import (ConvergenceError, DomainError, DyncertError,
                     NumericalInstabilityError, UnboundedSpectrumError)
from .numerics import HermitianOperator, hermitian_max_eigenpair

THETA4 = 0.215 * pi

# Q3 is a convex mix of projectors, so its spectrum lies in [0, 1]; a
# value beyond round-off of that range means a broken slice
SCORE_RANGE_TOL = 1e-12
# Lanczos runs short on some Kerr slices, whose top eigenvalues cluster
# (Kerr(0.02), n_hat = 800); a parity-even slice of up to this many levels
# then takes the dense SVD (88 ms at n_hat = 800, one BLAS thread)
DENSE_FALLBACK_LIMIT = 2000


@dataclass(frozen=True)
class QuantumState:
    """Amplitudes over the levels of a SpectrumSlice (unit norm)."""

    slice: spectra.SpectrumSlice
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.slice.dim,):
            raise DomainError("amplitudes must align with the slice levels")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-12:
            raise DomainError(f"state norm {norm} deviates from 1")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class ScoreResult:
    p3_max: float
    state: QuantumState
    tau: float
    window: EnergyWindow = None

    def __post_init__(self):
        if not 0.0 <= self.p3_max <= 1.0 + SCORE_RANGE_TOL:
            raise DomainError(f"score {self.p3_max} outside [0, 1]")

    def to_json_dict(self):
        return {
            "model": self.state.slice.model.describe(),
            "tau": self.tau,
            "window": (None if self.window is None
                       else [self.window.e_min, self.window.e_max]),
            "p3_max": self.p3_max,
            "indices": [int(n) for n in self.state.slice.indices],
            "amplitudes": [[float(a.real), float(a.imag)]
                           for a in self.state.amplitudes],
        }


def _phase_vectors(energies, taus):
    """d[j, k, i] = exp(i k tau_j 2 pi E_i / 3) for k = 0, 1, 2, shaped
    (m, 3, n) for m probing ratios (a scalar is one)."""
    if not np.isfinite(taus).all():
        raise DomainError(f"probing ratio {taus} is not finite")
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    base = np.exp(1j * taus[:, None] * 2.0 * pi * np.asarray(energies) / 3.0)
    return np.stack([np.ones_like(base), base, base * base], axis=1)


def build_q3(slc, tau):
    """Q3[i,j] = delta_ij/2 + (1/6) sum_k exp(i k tau theta_ij) sgn[i,j].

    theta_ij = 2 pi (E_i - E_j)/3, so the phase factorizes into diagonal
    unitaries: Q3 = I/2 + (1/6) sum_k D_k S D_k^dagger (k = 0, 1, 2), a
    HermitianOperator on (n,) vectors. The three rotated copies
    D_k^dagger v sit side by side as columns, so S acts on all of them in
    one ``slc.sgn_matmul``.
    """
    rot = _phase_vectors(slc.energies, tau)[0].T
    unrot = rot.conj()

    def matvec(v):
        return 0.5 * v + np.sum(rot * slc.sgn_matmul(unrot * v[:, None]),
                                axis=1) / 6.0

    return HermitianOperator(slc.dim, matvec, norm_bound=1.0)


def _top_pairs(slc, taus):
    """Top eigenvalues of Q3 at m probing ratios, (m,), with eigenvectors,
    (m, dim): the one solver choice behind max_score and p3_max.

    Up to spectra.DENSE_EIG_LIMIT levels every tau's dense block S o K of
    Q3 - I/2, K = (1/6) sum_k d_k d_k^dagger, is solved in one stacked call:
    Morse takes ``eigh`` of its full blocks. A parity-even block couples
    even to odd levels only, by C = S o K[even, odd], so a pair is
    1/2 + sigma_max(C) and (u + v)/sqrt(2) from C's SVD (with vectors: a
    values-only SVD can differ in sigma's last bit), and a one-parity slice
    scores 1/2. Larger slices go to Lanczos on :func:`build_q3` per tau; a
    parity-even one of up to DENSE_FALLBACK_LIMIT levels takes the SVD at a
    tau where Lanczos falls short.
    """
    if slc.dim == 0:
        raise DomainError("empty slice")
    if slc.dim <= spectra.DENSE_EIG_LIMIT:
        values, vectors = _dense_top_pairs(slc, taus)
    else:
        pairs = []
        for t in np.atleast_1d(taus):
            try:
                pairs.append(hermitian_max_eigenpair(build_q3(slc, t)))
            except ConvergenceError:
                if (not slc.model.is_even_potential
                        or slc.dim > DENSE_FALLBACK_LIMIT):
                    raise
                values, vectors = _dense_top_pairs(slc, t)
                pairs.append((values[0], vectors[0]))
        values, vectors = map(np.array, zip(*pairs))
    return _in_unit_range(values), vectors


def _dense_top_pairs(slc, taus):
    """The pairs of :func:`_top_pairs`, unchecked, from the dense block
    whatever the slice size."""
    rows, cols = slc.positions
    d = _phase_vectors(slc.energies, taus)
    block = slc.sgn[:] * (d[:, :, rows].transpose(0, 2, 1)
                          @ d[:, :, cols].conj()) / 6.0
    if not slc.model.is_even_potential:
        w, v = np.linalg.eigh(block)
        values, vectors = 0.5 + w[:, -1], v[:, :, -1]
    elif block.size:
        u, sigma, vh = np.linalg.svd(block)
        values = 0.5 + sigma[:, 0]
        vectors = np.empty((len(d), slc.dim), dtype=complex)
        vectors[:, rows], vectors[:, cols] = u[:, :, 0], vh[:, 0].conj()
    else:  # one parity: Q3 = I/2
        values, vectors = np.full(len(d), 0.5), np.ones((len(d), slc.dim))
    return values, vectors


def max_score(slc, tau, window=None):
    """Largest eigenvalue of Q3 at one tau with its eigenvector
    (largest-modulus amplitude real and positive), as a ScoreResult."""
    values, vectors = _top_pairs(slc, tau)
    vector = vectors[0] / np.linalg.norm(vectors[0])
    top = vector[np.argmax(np.abs(vector))]
    state = QuantumState(slc, vector * (abs(top) / top))
    return ScoreResult(float(values[0]), state, tau, window)


def p3_max(slc, taus):
    """max_score(slc, tau).p3_max at each of the probing ratios ``taus``,
    as an array, without the states."""
    return _top_pairs(slc, taus)[0]


def score_state(state, tau):
    """P3 = <psi|Q3(tau)|psi>, real in [0, 1], at one tau or at each of an
    array of them: the mean of the three :func:`round_probabilities`."""
    p = round_probabilities(state, tau)
    return (p[..., 0] + p[..., 1] + p[..., 2]) / 3.0


def round_probabilities(state, tau):
    """(P_0, P_1, P_2): the Born probability that the position measured at
    probing time k tau T/3 is positive, P_k = (1 + <v_k|S|v_k>)/2 with
    v_k = D_k^dagger psi; their mean is P3. An array of taus gives one row
    per tau, from one ``sgn_matmul`` over every (tau, k) column."""
    vs = (_phase_vectors(state.slice.energies, tau).conj()
          * state.amplitudes).reshape(-1, state.slice.dim).T
    forms = np.sum(vs.conj() * state.slice.sgn_matmul(vs), axis=0).real
    return _in_unit_range(0.5 * (1.0 + forms)).reshape(np.shape(tau) + (3,))


def _in_unit_range(values):
    """Q3 expectation values or probabilities, clipped into [0, 1] only
    within round-off."""
    values = np.asarray(values, dtype=float)
    bad = ~((values >= -SCORE_RANGE_TOL) & (values <= 1.0 + SCORE_RANGE_TOL))
    if bad.any():
        raise NumericalInstabilityError(
            f"Q3 value {float(values[bad][0])!r} lies outside [0, 1] beyond "
            "round-off; the spectrum slice is inconsistent")
    return np.clip(values, 0.0, 1.0)


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------

PSI6_AMPLITUDES = np.array([4.0 / sqrt(42.0), 0.0, 0.0, -1.0 / sqrt(2.0),
                            0.0, 0.0, sqrt(5.0 / 42.0)])
PSI4_MODULI_SQ = np.array([0.279, 0.191, 0.121, 0.309, 0.100])


def reference_state(kind, slc):
    """The fixed-coefficient benchmark state embedded in a slice.

    ``psi6`` is the optimal truncation-six state; ``psi4`` the
    truncation-four state with the relative phases exp(-i n theta4),
    theta4 = 0.215 pi. The slice must contain levels 0..6 (0..4).
    """
    if kind == "psi6":
        coeffs = PSI6_AMPLITUDES.astype(complex)
    elif kind == "psi4":
        phases = np.exp(-1j * THETA4 * np.arange(5))
        coeffs = np.sqrt(PSI4_MODULI_SQ) * phases
    else:
        raise DomainError(f"unknown reference state {kind!r}")
    amps = np.zeros(slc.dim, dtype=complex)
    index_of = {int(n): i for i, n in enumerate(slc.indices)}
    for n, c in enumerate(coeffs):
        if n not in index_of:
            raise DomainError(
                f"slice lacks level {n} required by the {kind} reference state")
        amps[index_of[n]] = c
    amps /= np.linalg.norm(amps)
    return QuantumState(slc, amps)


# ---------------------------------------------------------------------------
# tau scans and scenario comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanPoint:
    tau: float
    p3_max: float
    error: str = None


def scan_tau(model, tau_grid, window=None, check=False, n_hat=None):
    """Maximum quantum score across a grid of probing ratios.

    Each grid point scores the levels in the model's energy window at its
    own tau, unless a ``window`` is given: then every point reuses it (and
    hence a single slice). With ``n_hat`` every point scores the fixed
    truncation of the n_hat+1 lowest levels instead, and no window applies.
    Per-point failures are recorded on the returned points instead of
    aborting the scan, but an unbounded spectrum and window raise.
    """
    fixed = None
    if n_hat is not None:
        fixed = None, truncated_slice(model, n_hat, check=check)
    elif window is not None:
        fixed = window, spectra.spectrum_slice(model, window, check=check)
    points = []
    slice_cache = {}
    for tau in tau_grid:
        try:
            if fixed is None:
                win = energy_window(model, tau)
                key = (win.e_min, win.e_max)
                if key not in slice_cache:
                    slice_cache[key] = spectra.spectrum_slice(model, win,
                                                              check=check)
                slc = slice_cache[key]
            else:
                win, slc = fixed
            result = max_score(slc, tau, window=win)
            points.append(ScanPoint(float(tau), result.p3_max))
        except UnboundedSpectrumError:
            raise  # the same at every tau: no point could be scored
        except DyncertError as exc:
            points.append(ScanPoint(float(tau), float("nan"), str(exc)))
    return points


def scan_to_csv(points):
    """CSV text (tau, p3_max, error) for a scan."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tau", "p3_max", "error"])
    for p in points:
        writer.writerow([f"{p.tau!r}", f"{p.p3_max!r}", p.error or ""])
    return buf.getvalue()


def truncated_slice(model, n_hat, check=True):
    """SpectrumSlice for the fixed truncation of the n_hat+1 lowest levels
    (levels 1..n_hat for the well, whose ground state is n = 1)."""
    first = spectra.level_range(model)[0]
    if n_hat < first:
        raise DomainError(f"truncation {n_hat} lies below the first "
                          f"{model.describe()} level {first}")
    ns = np.arange(first, n_hat + 1)
    es = spectra.level_energies(model, ns)
    s = spectra.sgn_matrix(model, ns, energies=es, check=check)
    return spectra.SpectrumSlice(model, tuple(int(n) for n in ns), es, s)


_GOLDEN = (sqrt(5.0) - 1.0) / 2.0
TAU_SEARCH_TOL, TAU_SEARCH_STARTS = 1e-6, 8  # resolution, sub-intervals


def maximize_over_tau(f):
    """(tau, f(tau)) maximizing f on [TAU_LO, TAU_HI]: golden-section searches
    to TAU_SEARCH_TOL on TAU_SEARCH_STARTS equal sub-intervals guard against
    non-concavity. f maps an array of taus to an array of values; the
    searches run in lockstep, one f call per step for the next tau of each
    unfinished search, each with a serial search's arithmetic, and the
    first of equal maxima wins. The interval ends are never scored
    (TestScenarios.test_optimal_tau_at_interval_end)."""
    edges = np.linspace(TAU_LO, TAU_HI, TAU_SEARCH_STARTS + 1)
    a, b = edges[:-1], edges[1:]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    while (run := b - a > TAU_SEARCH_TOL).any():
        up = run & (f1 < f2)  # keep [x1, b]; down keeps [a, x2]
        down = run & ~up
        a, b = np.where(up, x1, a), np.where(down, x2, b)
        x1, x2 = np.where(up, x2, x1), np.where(down, x1, x2)
        f1, f2 = np.where(up, f2, f1), np.where(down, f1, f2)
        x2 = np.where(up, a + _GOLDEN * (b - a), x2)
        x1 = np.where(down, b - _GOLDEN * (b - a), x1)
        fresh = np.zeros_like(f1)
        fresh[run] = f(np.where(up, x2, x1)[run])
        f1, f2 = np.where(down, fresh, f1), np.where(up, fresh, f2)
    x = 0.5 * (a + b)
    v = f(x)
    best = int(np.argmax(v))
    return float(x[best]), float(v[best])


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str  # "i", "ii" or "iii"
    p3: float
    tau: float


@functools.cache
def harmonic_limit_tau(n_hat):
    """Optimal probing ratio of the benchmark state in the harmonic limit.

    For n_hat = 6 this is exactly 1; for n_hat = 4 it is found by the tau
    search (approximately 1.1775, with the mirror point 3 - tau scoring the
    same for the conjugate state).
    """
    if n_hat == 6:
        return 1.0
    slc = truncated_slice(models.harmonic(), n_hat, check=False)
    state = reference_state("psi4" if n_hat == 4 else "psi6", slc)
    tau, _ = maximize_over_tau(lambda t: score_state(state, t))
    return tau


def scenario_compare(model, n_hat, check=False):
    """Three harmonic-approximation comparison scenarios at truncation n_hat.

    (i)   optimal state and optimal tau for the true dynamics;
    (ii)  fixed harmonic-limit benchmark state, tau re-optimized;
    (iii) fixed benchmark state at the harmonic-limit tau.
    Scores are ordered (i) >= (ii) >= (iii) by construction.
    """
    if n_hat not in (4, 6):
        raise DomainError("scenario comparison supports n_hat in {4, 6}")
    alpha = model.alpha if model.alpha is not None else 0.0
    if abs(alpha) > 0.02:
        warnings.warn("scenario comparison targets weak anharmonicity "
                      f"|alpha| <= 0.02, got {alpha}", stacklevel=2)
    slc = truncated_slice(model, n_hat, check=check)
    ref = reference_state("psi6" if n_hat == 6 else "psi4", slc)

    tau_i, p_i = maximize_over_tau(lambda t: p3_max(slc, t))
    tau_ii, p_ii = maximize_over_tau(lambda t: score_state(ref, t))
    tau_iii = harmonic_limit_tau(n_hat)
    p_iii = score_state(ref, tau_iii)
    return [ScenarioResult("i", p_i, tau_i),
            ScenarioResult("ii", p_ii, tau_ii),
            ScenarioResult("iii", p_iii, tau_iii)]


def scenarios_to_json(model, n_hat, results):
    return json.dumps({
        "model": model.describe(),
        "n_hat": n_hat,
        "scenarios": [{"scenario": r.scenario, "p3": r.p3, "tau": r.tau}
                      for r in results],
    }, indent=2)
