"""Quantum side per model: energy levels, eigenfunctions, and the matrix
of sgn(Q) on a truncated eigenbasis.

Energies are in hbar*omega0 and positions in each model's natural length
unit (see models module). All eigenfunctions are taken in a real gauge, so
the sgn matrix is real symmetric. The harmonic, Kerr, pendulum and well
potentials are even, so each supplies only the block coupling its even to
its odd levels; the Morse potential has no parity and supplies the full
matrix.
"""

import hashlib
import json
import threading
from dataclasses import dataclass
from math import pi, sqrt, log, lgamma, isinf, floor, ceil

import numpy as np

from . import models
from .errors import (DomainError, EmptySliceError, NumericalInstabilityError)
from .numerics import laguerre, mathieu_eigensystem

SGN_CHECK_TOL = 1e-6
SCHEMA_VERSION = "dyncert.spectrum-slice.v1"


# ---------------------------------------------------------------------------
# energy levels
# ---------------------------------------------------------------------------

def kerr_energy(alpha, n):
    """E_n = nu + (alpha/2) nu^2 + 3 alpha/8 with nu = n + 1/2.

    The constant term carries a factor of alpha: expanding the
    normal-ordered form hbar w0 (1+alpha)(N+1/2) + hbar w0 (alpha/2) N(N-1) ...
    a'2a2 term gives exactly 3 alpha/8, and only with that offset does the
    level-index truncation below coincide with the energy window.
    """
    nu = np.asarray(n, dtype=float) + 0.5
    return nu + 0.5 * alpha * nu * nu + 0.375 * alpha


def morse_energy(lam, n):
    nu = np.asarray(n, dtype=float) + 0.5
    return nu * (1.0 - nu / (2.0 * lam))


def morse_level_count(lam):
    """Number of bound states: every n < lambda - 1/2. At half-integer lambda
    the level n = lambda - 1/2 lies at E = De and is not normalisable."""
    return ceil(lam - 0.5)


# One Mathieu solve per pendulum alpha, shared by every caller; the lock
# keeps concurrent callers from solving the same alpha twice.
_MATHIEU_CACHE = {}
_MATHIEU_LOCK = threading.Lock()
_SEPARATRIX_MARGIN = 4


def _pendulum_solutions(model, n_levels=1):
    """Mathieu solutions of pendulum levels 0, 1, ..., at least n_levels.

    The first solve for an alpha covers every level below the separatrix
    E = 1/(8|alpha|), semiclassically ceil(1/(pi |alpha|)) levels, plus a
    margin. A request for more doubles the count and solves again but keeps
    the levels already held, so each level always comes from the same solve,
    whatever was asked before.
    """
    alpha = model.alpha
    with _MATHIEU_LOCK:
        sols = _MATHIEU_CACHE.get(alpha, ())
        while len(sols) < n_levels:
            count = (2 * len(sols) if sols
                     else ceil(1.0 / (pi * abs(alpha))) + _SEPARATRIX_MARGIN)
            sols += tuple(mathieu_eigensystem(
                models.pendulum_q_parameter(model), count)[len(sols):])
        _MATHIEU_CACHE[alpha] = sols
    return sols


def pendulum_energy(model, n):
    """E_n = |alpha| * (Mathieu characteristic value of level n); n may be
    an array of levels."""
    n = np.asarray(n, dtype=int)
    sols = _pendulum_solutions(model, int(n.max(initial=0)) + 1)
    chars = np.array([s.char_value for s in sols])
    return abs(model.alpha) * chars[n]


def level_energies(model, ns):
    """Energies of the levels with indices ``ns`` (an array of ints).

    Raises DomainError for a Morse level that is not bound and, for Kerr
    with alpha < 0, for a level past the H0 <= 1/|alpha| cap, beyond which
    E_n decreases with n.
    """
    ns = np.asarray(ns, dtype=int)
    n_top = int(ns.max(initial=0))
    kind = model.kind
    if kind == models.HARMONIC:
        return kerr_energy(0.0, ns)
    if kind == models.KERR:
        if model.alpha < 0 and n_top > _kerr_top_level(model.alpha):
            raise DomainError(
                f"Kerr level {_kerr_top_level(model.alpha) + 1} lies past the "
                f"cap H0 <= 1/|alpha| = {1.0 / abs(model.alpha)!r}, where "
                "the energies stop increasing; use fewer levels")
        return kerr_energy(model.alpha, ns)
    if kind == models.PENDULUM:
        return pendulum_energy(model, ns)
    if kind == models.MORSE:
        count = morse_level_count(model.lambda_morse)
        if n_top >= count:
            raise DomainError(
                f"Morse level {n_top} is not bound: {model.describe()} holds "
                f"levels 0..{count - 1}")
        return morse_energy(model.lambda_morse, ns)
    return (ns / 2.0) ** 2


def _kerr_top_level(alpha):
    """Highest Kerr level, for alpha < 0, on the branch H0 <= 1/|alpha|."""
    return int(floor(1.0 / abs(alpha) - 0.5))


def levels(model, window):
    """Level indices and energies falling inside the window.

    The well applies the window with strict inequalities (boundary levels
    have classical periods exactly at the edge of the admissible range and
    are excluded); all other models include the endpoints.
    """
    kind = model.kind
    e_min, e_max = window.e_min, window.e_max

    if kind in (models.HARMONIC, models.KERR):
        alpha = 0.0 if kind == models.HARMONIC else model.alpha
        if alpha == 0.0:
            if isinf(e_max):
                raise DomainError(
                    "the harmonic spectrum is unbounded: pass a window with "
                    "finite e_max (or a truncation-derived window)")
            n_hi = int(floor(e_max - 0.5 + 1e-12))
        elif alpha > 0.0:
            disc = 1.0 + 2.0 * alpha * (e_max - 0.375 * alpha)
            nu_hi = (sqrt(max(disc, 0.0)) - 1.0) / alpha
            n_hi = int(floor(nu_hi - 0.5 + 1e-12))
        else:
            n_hi = _kerr_top_level(alpha)
        ns = np.arange(0, max(n_hi, -1) + 1)
    elif kind == models.PENDULUM:
        # energies increase with n: hold levels until one lies above e_max
        n_held = len(_pendulum_solutions(model))
        while pendulum_energy(model, n_held - 1) <= e_max:
            if n_held > 10000:
                raise DomainError("pendulum window admits too many levels")
            n_held = len(_pendulum_solutions(model, 2 * n_held))
        ns = np.arange(n_held)
    elif kind == models.MORSE:
        ns = np.arange(morse_level_count(model.lambda_morse))
    else:  # infinite well
        if isinf(e_max):
            raise DomainError("well window must be bounded above")
        ns = np.arange(1, int(ceil(2.0 * sqrt(e_max))) + 1)

    es = level_energies(model, ns)
    if kind == models.WELL:  # strict truncation
        keep = (es > e_min) & (es < e_max)
    else:
        keep = (es >= e_min) & (es <= e_max)
    ns, es = ns[keep], es[keep]
    if len(ns) == 0:
        raise EmptySliceError(
            f"no {model.describe()} level lies in [{e_min}, {e_max}]")
    return ns, es


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def _hermite_value(n, x):
    """Harmonic-oscillator eigenfunction psi_n at x, by its recurrence."""
    x = np.asarray(x, dtype=float)
    psi_prev = np.zeros_like(x)
    psi = pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(n):
        psi, psi_prev = (sqrt(2.0 / (k + 1)) * x * psi
                         - sqrt(k / (k + 1.0)) * psi_prev), psi
    return psi


def _morse_log_norm(lam, n):
    # sqrt(n! (2 lam - 2n - 1) / Gamma(2 lam - n)) in log space
    return 0.5 * (lgamma(n + 1.0) + log(2.0 * lam - 2.0 * n - 1.0)
                  - lgamma(2.0 * lam - n))


def _morse_value(lam, n, x):
    """psi_n(x) for the Morse model (c = 1 units)."""
    x = np.asarray(x, dtype=float)
    z = 2.0 * lam * np.exp(x)
    lag = laguerre(n, 2.0 * lam - 2.0 * n - 1.0, z)
    expo = (_morse_log_norm(lam, n)
            + (lam - n - 0.5) * np.log(z) - 0.5 * z)
    out = np.zeros_like(z)
    ok = expo > -700.0
    out[ok] = np.exp(expo[ok]) * np.asarray(lag)[ok]
    return out


def eigenfunction_grid(model, n, qs):
    """Vectorized psi_n on an array of positions."""
    qs = np.asarray(qs, dtype=float)
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        return _hermite_value(n, qs)
    if kind == models.PENDULUM:
        sol = _pendulum_solutions(model, n + 1)[n]
        return np.asarray(sol.value(0.5 * qs)) / sqrt(pi)
    if kind == models.MORSE:
        return _morse_value(model.lambda_morse, n, qs)
    w = n * pi
    vals = (np.cos(w * qs) if n % 2 == 1 else np.sin(w * qs)) * sqrt(2.0)
    return np.where(np.abs(qs) <= 0.5, vals, 0.0)


# ---------------------------------------------------------------------------
# sgn matrix elements
# ---------------------------------------------------------------------------

def _harmonic_block(even, odd):
    """<e|sgn(X)|o> for harmonic/Kerr levels e even (rows) and o odd (columns).

    a_e b_o (-1)^floor((d-1)/2) / d with d = o - e, a_e = sqrt(c_e) and
    b_o = sqrt(2 o c_(o-1) / pi), where c_k = C(k, k/2) / 2^k comes from the
    recurrence c_(k+2) = c_k (k+1)/(k+2).
    """
    k = np.arange(0, max(even.max(), odd.max()), 2)
    c = np.concatenate(([1.0], np.cumprod((k + 1.0) / (k + 2.0))))  # c_(2j)
    a = np.sqrt(c[even // 2])
    b = np.sqrt(2.0 * odd / pi * c[(odd - 1) // 2])
    d = odd[None, :] - even[:, None]
    sign = np.where((d - 1) // 2 % 2 == 0, 1.0, -1.0)
    return a[:, None] * b[None, :] * sign / d


def _pendulum_block(model, ns, es, even, odd):
    """4|alpha| W(ce_n, se_m) / (pi (E_n - E_m)) between even n and odd m,
    with the Wronskian W taken between u = 0 and u = pi/2; ``even`` and
    ``odd`` are positions in the levels ``ns`` with energies ``es``."""
    flat = np.flatnonzero(np.diff(es) <= 0.0)
    if len(flat):
        i = flat[0]
        raise DomainError(
            f"pendulum levels {ns[i]} and {ns[i + 1]} (E = {float(es[i])!r}, "
            f"{float(es[i + 1])!r}) are not strictly increasing: they lie "
            f"past the separatrix E = {model.energy_range()[1]!r}, where "
            "rotational pairs are degenerate to round-off; use fewer levels")
    sols = _pendulum_solutions(model, int(ns.max()) + 1)
    ends = np.array([0.0, 0.5 * pi])
    ce = np.array([sols[n].value(ends) for n in ns[even]])
    se_d = np.array([sols[m].derivative(ends) for m in ns[odd]])
    w = np.outer(ce[:, 1], se_d[:, 1]) - np.outer(ce[:, 0], se_d[:, 0])
    return 4.0 * abs(model.alpha) * w / (pi * (es[even, None] - es[None, odd]))


def _well_block(even, odd):
    """<n|sgn(Q)|m> for well levels n even (rows) and m odd (columns)."""
    n = even[:, None].astype(float)
    m = odd[None, :].astype(float)
    return (2.0 / pi) * (1.0 / (n + m) + 1.0 / (n - m))


def _morse_diag(lam, ns):
    """<n|sgn(X)|n> = 2 P[x > 0] - 1 for each level n in ``ns``, by
    24-point Gauss-Legendre on 32 panels in t = log z over z > 2 lam."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(log(2.0 * lam),
                        log(2.0 * lam + 80.0 + 20.0 * sqrt(2.0 * lam)), 33)
    half = 0.5 * np.diff(edges)[:, None]
    t = edges[:-1, None] + half * (1.0 + nodes)
    z = np.exp(t)
    diag = []
    for n in ns:
        a = 2.0 * lam - 2.0 * n - 1.0
        lag = laguerre(n, a, z.ravel()).reshape(t.shape)
        psi = np.exp(_morse_log_norm(lam, n) + 0.5 * (a * t - z)) * lag
        diag.append(2.0 * np.sum(half * weights * psi * psi) - 1.0)
    return diag


def _morse_sgn(lam, ns):
    """Full Morse sgn matrix; the off-diagonal entries are closed forms in
    the values psi_n(0)."""
    psi = np.array([_morse_value(lam, k, 0.0) for k in range(ns.max() + 1)])
    k = np.arange(1, len(psi))
    # coupling(k) psi_(k-1)(0), zero for k = 0
    lower = np.zeros_like(psi)
    lower[1:] = ((lam / (lam - k))
                 * np.sqrt(k * (2.0 * lam - k) * (lam - k - 0.5)
                           / (lam - k + 0.5)) * psi[:-1])
    s = np.diag(_morse_diag(lam, [int(n) for n in ns]))
    i, j = np.triu_indices(len(ns), 1)
    n, m = ns[i], ns[j]
    pref = 2.0 / ((n - m) * (2.0 * lam - (1.0 + n + m)))
    term = (-(n - m) * (1.0 + lam * lam / ((lam - n) * (lam - m)))
            * psi[n] * psi[m] - lower[n] * psi[m] + lower[m] * psi[n])
    s[i, j] = s[j, i] = pref * term
    return s


def _quadrature_domain(model, n, m):
    """Integration limits (lo, hi), lo < 0 < hi, holding <n|sgn(Q)|m>."""
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        x_max = sqrt(2.0 * (max(n, m) + 0.5)) + 10.0
        return -x_max, x_max
    if kind == models.PENDULUM:
        return -pi, pi
    if kind == models.MORSE:
        lam = model.lambda_morse
        x_hi = log(1.0 + sqrt(2.0 * max(morse_energy(lam, n), 1.0) / lam)) + 3.0
        x_lo = -(40.0 + 10.0 * sqrt(lam)) / min(lam, 40.0) - 10.0
        return x_lo, x_hi
    return -0.5, 0.5


def sgn_quadrature(model, n, m, n_points=40001):
    """Direct quadrature of <n|sgn(Q)|m> as an independent cross-check."""
    lo, hi = _quadrature_domain(model, n, m)
    plus, minus = (
        np.trapezoid(eigenfunction_grid(model, n, xs)
                     * eigenfunction_grid(model, m, xs), xs)
        for xs in (np.linspace(0.0, hi, n_points),
                   np.linspace(lo, 0.0, n_points)))
    return plus - minus


_CHECK_INDEX_CAP = 300  # quadrature oracle is reliable below this index


def sgn_matrix(model, indices, energies=None, check=True):
    """Real symmetric <E_n|sgn(Q)|E_n'> on the given level indices.

    In a parity-even model only levels of opposite index parity couple: the
    model supplies the (even x odd) block, placed here with its transpose.

    With ``check`` enabled, a handful of entries are re-derived by direct
    quadrature of sgn(q) psi_n psi_n'; disagreement beyond 1e-6 raises
    NumericalInstabilityError rather than being silently accepted.
    """
    indices = np.asarray(indices, dtype=int)
    if not model.is_even_potential:
        s = _morse_sgn(model.lambda_morse, indices)
    else:
        s = np.zeros((len(indices), len(indices)))
        even = np.flatnonzero(indices % 2 == 0)
        odd = np.flatnonzero(indices % 2 == 1)
        if len(even) and len(odd):
            if model.kind == models.PENDULUM:
                if energies is None:
                    energies = pendulum_energy(model, indices)
                block = _pendulum_block(model, indices,
                                        np.asarray(energies, dtype=float),
                                        even, odd)
            elif model.kind == models.WELL:
                block = _well_block(indices[even], indices[odd])
            else:
                block = _harmonic_block(indices[even], indices[odd])
            s[np.ix_(even, odd)] = block
            s[np.ix_(odd, even)] = block.T

    if check:
        small = [i for i, n in enumerate(indices) if n <= _CHECK_INDEX_CAP]
        pairs = []
        for k in range(min(3, len(small))):
            for l in range(k, min(k + 2, len(small))):
                pairs.append((small[k], small[l]))
        for i, j in pairs:
            n, m = int(indices[i]), int(indices[j])
            if s[i, j] == 0.0 and n != m:
                continue
            ref = sgn_quadrature(model, n, m)
            if abs(s[i, j] - ref) > SGN_CHECK_TOL:
                raise NumericalInstabilityError(
                    f"sgn matrix entry ({n},{m}) = {s[i, j]:.9g} disagrees "
                    f"with quadrature {ref:.9g} beyond {SGN_CHECK_TOL}")
    return s


# ---------------------------------------------------------------------------
# spectrum slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumSlice:
    """Levels inside a window together with their sgn(Q) matrix."""

    model: models.ModelSystem
    indices: tuple
    energies: np.ndarray
    sgn: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if len(e) != len(self.indices):
            raise DomainError("indices and energies must align")
        if np.any(np.diff(e) <= 0):
            raise DomainError("energies must be strictly increasing")
        s = np.asarray(self.sgn)
        if s.shape != (len(e), len(e)):
            raise DomainError("sgn matrix shape mismatch")
        # s - s.T is antisymmetric, so its max is its largest magnitude;
        # a NaN makes the max NaN and fails the test
        if not np.max(s - s.T, initial=0.0) <= 1e-12:
            raise DomainError("sgn matrix must be symmetric")
        if np.any(np.abs(s) > 1.0 + 1e-9):
            raise DomainError("sgn matrix entries must lie in [-1, 1]")
        if self.model.is_even_potential:
            if np.any(np.abs(np.diag(s)) > 1e-12):
                raise DomainError(
                    "parity-even models have vanishing diagonal sgn entries")

    @property
    def dim(self):
        return len(self.indices)

    def to_json_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model.describe(),
            "indices": [int(n) for n in self.indices],
            "energies": [float(e) for e in self.energies],
            "sgn_matrix": [float(v) for v in np.asarray(self.sgn).ravel()],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def from_json_dict(data, model):
        if data.get("schema") != SCHEMA_VERSION:
            raise DomainError(f"unknown slice schema {data.get('schema')!r}")
        if data.get("model") != model.describe():
            raise DomainError("cached slice was built for a different model")
        dim = len(data["indices"])
        sgn = np.array(data["sgn_matrix"], dtype=float).reshape(dim, dim)
        return SpectrumSlice(model, tuple(data["indices"]),
                             np.array(data["energies"], dtype=float), sgn)

    @staticmethod
    def load(path, model):
        with open(path) as fh:
            return SpectrumSlice.from_json_dict(json.load(fh), model)


def slice_cache_key(model, window):
    """Stable cache key for a (model, window) slice at this schema version."""
    raw = f"{SCHEMA_VERSION}|{model.describe()}|{window.e_min!r}|{window.e_max!r}"
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def spectrum_slice(model, window, check=True):
    """Build the SpectrumSlice for all levels inside the window."""
    ns, es = levels(model, window)
    s = sgn_matrix(model, ns, energies=es, check=check)
    return SpectrumSlice(model, tuple(int(n) for n in ns), es, s)
