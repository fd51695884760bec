"""The three-time protocol: Q3(T) assembly, maximum quantum score,
probing-duration scans, and harmonic-approximation comparison scenarios.

The probing duration is always given as the ratio tau = T / (2 pi / omega0).
"""

import csv
import io
import json
import warnings
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import models, spectra
from .classical import TAU_HI, TAU_LO, EnergyWindow, energy_window
from .errors import DomainError, DyncertError, NumericalInstabilityError
from .numerics import (DENSE_EIG_LIMIT, HermitianMatrix, HermitianOperator,
                       hermitian_max_eigenpair)

THETA4 = 0.215 * pi

# Q3 is a convex mix of projectors, so its spectrum lies in [0, 1]; a
# value beyond round-off of that range means a broken slice
SCORE_RANGE_TOL = 1e-12


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
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"state norm {norm} deviates from 1")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class ScoreResult:
    p3_max: float
    state: QuantumState
    tau: float
    window: EnergyWindow = None

    def __post_init__(self):
        if not 0.0 <= self.p3_max <= 1.0 + 1e-12:
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


def _phase_vectors(energies, tau):
    """d_k[i] = exp(i k tau 2 pi E_i / 3) for k = 1, 2."""
    base = np.exp(1j * tau * 2.0 * pi * np.asarray(energies) / 3.0)
    return base, base * base


def build_q3(slc, tau):
    """Q3[i,j] = delta_ij/2 + (1/6) sum_k exp(i k tau theta_ij) sgn[i,j].

    theta_ij = 2 pi (E_i - E_j)/3, so the phase factorizes into diagonal
    unitaries: Q3 = I/2 + (1/6) sum_k D_k S D_k^dagger.
    """
    if slc.dim == 0:
        raise DomainError("empty slice")
    s = np.asarray(slc.sgn)
    d1, d2 = _phase_vectors(slc.energies, tau)
    q = s.astype(complex)
    q += (d1[:, None] * d1.conj()[None, :]) * s
    q += (d2[:, None] * d2.conj()[None, :]) * s
    q /= 6.0
    q[np.diag_indices(slc.dim)] += 0.5
    return HermitianMatrix(q)


def _q3_operator(slc, tau):
    """Matrix-free Q3 = I/2 + (1/6) sum_k D_k S D_k^dagger (k = 0, 1, 2).

    The three rotated vectors D_k^dagger v sit as the complex columns of
    one (n, 3) block, whose real view is (n, 6), so S acts on all six
    real columns in one matrix product.
    """
    s = np.asarray(slc.sgn, dtype=float)
    d1, d2 = _phase_vectors(slc.energies, tau)
    rot = np.stack([np.ones_like(d1), d1, d2], axis=1)
    unrot = rot.conj()

    def matvec(v):
        block = unrot * v[:, None]
        sv = (s @ block.view(float)).view(complex)
        return 0.5 * v + np.sum(rot * sv, axis=1) / 6.0

    return HermitianOperator(slc.dim, matvec, norm_bound=1.0)


def max_score(slc, tau, window=None):
    """Largest eigenvalue of Q3 with its eigenvector, as a ScoreResult."""
    if slc.dim <= DENSE_EIG_LIMIT:
        value, vector = hermitian_max_eigenpair(build_q3(slc, tau))
    else:
        value, vector = hermitian_max_eigenpair(_q3_operator(slc, tau))
    vector = vector / np.linalg.norm(vector)
    state = QuantumState(slc, vector)
    return ScoreResult(_in_unit_range(value), state, tau, window)


def score_state(state, tau):
    """P3 = <psi|Q3(tau)|psi>, real in [0, 1]."""
    slc = state.slice
    v = state.amplitudes
    if slc.dim <= DENSE_EIG_LIMIT:
        q = build_q3(slc, tau).entries
        val = np.vdot(v, q @ v).real
    else:
        val = np.vdot(v, _q3_operator(slc, tau).matvec(v)).real
    return _in_unit_range(val)


def _in_unit_range(value):
    """A Q3 expectation value, clipped into [0, 1] only within round-off."""
    value = float(value)
    if not -SCORE_RANGE_TOL <= value <= 1.0 + SCORE_RANGE_TOL:
        raise NumericalInstabilityError(
            f"Q3 value {value!r} lies outside [0, 1] beyond round-off; "
            "the spectrum slice is inconsistent")
    return min(max(value, 0.0), 1.0)


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


def scan_tau(model, tau_grid, window_policy="from_tau", window=None,
             check=False, n_hat=None):
    """Maximum quantum score across a grid of probing ratios.

    ``window_policy='from_tau'`` recomputes the model's energy window at
    each grid point; ``'fixed'`` reuses the supplied window (and hence a
    single slice). With ``n_hat`` every point scores the fixed truncation
    of the n_hat+1 lowest levels instead, and no window applies. Per-point
    failures are recorded on the returned points instead of aborting the
    scan.
    """
    if window_policy not in ("from_tau", "fixed"):
        raise DomainError(f"unknown window policy {window_policy!r}")
    fixed = None
    if n_hat is not None:
        fixed = None, truncated_slice(model, n_hat, check=check)
    elif window_policy == "fixed":
        if window is None:
            raise DomainError("fixed window policy requires a window")
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
    """SpectrumSlice for the fixed truncation of the n_hat+1 lowest levels."""
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        alpha = 0.0 if kind == models.HARMONIC else model.alpha
        ns = np.arange(0, n_hat + 1)
        es = spectra.kerr_energy(alpha, ns)
    elif kind == models.PENDULUM:
        ns = np.arange(0, n_hat + 1)
        es = spectra.pendulum_energy(model, ns)
    elif kind == models.MORSE:
        if n_hat + 1 > spectra.morse_level_count(model.lambda_morse):
            raise DomainError("truncation exceeds the number of bound states")
        ns = np.arange(0, n_hat + 1)
        es = spectra.morse_energy(model.lambda_morse, ns)
    else:
        ns = np.arange(1, n_hat + 1)
        es = (ns / 2.0) ** 2
    s = spectra.sgn_matrix(model, ns, energies=es, check=check)
    return spectra.SpectrumSlice(model, tuple(int(n) for n in ns), es, s)


_GOLDEN = (sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, tol=1e-6):
    """Golden-section maximization on [lo, hi] to tau resolution tol."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_over_tau(f, lo=TAU_LO, hi=TAU_HI, tol=1e-6, n_starts=8):
    """Multi-start golden-section search (guards against non-concavity)."""
    edges = np.linspace(lo, hi, n_starts + 1)
    best = (None, -np.inf)
    for a, b in zip(edges[:-1], edges[1:]):
        x, v = _golden_max(f, float(a), float(b), tol=tol)
        if v > best[1]:
            best = (x, v)
    return best


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str  # "i", "ii" or "iii"
    p3: float
    tau: float


_HARMONIC_TAU_CACHE = {}


def harmonic_limit_tau(n_hat):
    """Optimal probing ratio of the benchmark state in the harmonic limit.

    For n_hat = 6 this is exactly 1; for n_hat = 4 it is found by the tau
    search (approximately 1.1775, with the mirror point 3 - tau scoring the
    same for the conjugate state).
    """
    if n_hat == 6:
        return 1.0
    if n_hat not in _HARMONIC_TAU_CACHE:
        slc = truncated_slice(models.harmonic(), n_hat, check=False)
        state = reference_state("psi4" if n_hat == 4 else "psi6", slc)
        tau, _ = maximize_over_tau(lambda t: score_state(state, t))
        _HARMONIC_TAU_CACHE[n_hat] = tau
    return _HARMONIC_TAU_CACHE[n_hat]


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

    tau_i, p_i = maximize_over_tau(lambda t: max_score(slc, t).p3_max)
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
