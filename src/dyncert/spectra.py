"""Quantum side per model: energy levels, eigenfunctions, and the matrix
of sgn(Q) on a truncated eigenbasis.

Energies are in hbar*omega0 and positions in each model's natural length
unit (see models module). All eigenfunctions are taken in a real gauge, so
the sgn matrix is real symmetric.
"""

import hashlib
import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt, log, exp, lgamma, isinf, floor, ceil

import numpy as np

from . import models
from .errors import (DomainError, EmptySliceError, NumericalInstabilityError)
from .numerics import (laguerre, mathieu_eigensystem, regularized_gamma_Q,
                       _adaptive_simpson)

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
    """Number of bound states: n = 0 .. floor(lambda - 1/2)."""
    return int(floor(lam - 0.5)) + 1


# One Mathieu solve per pendulum alpha, shared by every caller; the lock
# keeps scan threads from solving the same alpha twice.
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
            table = {(s.parity, s.order): s for s in mathieu_eigensystem(
                models.pendulum_q_parameter(model), count - 1)}
            sols += tuple(table[("even", n)] if n % 2 == 0
                          else table[("odd", n + 1)]
                          for n in range(len(sols), count))
        _MATHIEU_CACHE[alpha] = sols
    return sols


def pendulum_energy(model, n):
    """E_n = |alpha| * (Mathieu characteristic value of level n); n may be
    an array of levels."""
    n = np.asarray(n, dtype=int)
    sols = _pendulum_solutions(model, int(n.max(initial=0)) + 1)
    chars = np.array([s.char_value for s in sols])
    return abs(model.alpha) * chars[n]


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
            # secondary assumption H0 <= 1/|alpha|: stay on the branch
            # where E_n increases with n
            n_hi = int(floor(1.0 / abs(alpha) - 0.5))
        ns = np.arange(0, max(n_hi, -1) + 1)
        es = kerr_energy(alpha, ns)
        keep = (es >= e_min) & (es <= e_max)
        ns, es = ns[keep], es[keep]

    elif kind == models.PENDULUM:
        # energies increase with n: hold levels until one lies above e_max
        n_held = len(_pendulum_solutions(model))
        while pendulum_energy(model, n_held - 1) <= e_max:
            if n_held > 10000:
                raise DomainError("pendulum window admits too many levels")
            n_held = len(_pendulum_solutions(model, 2 * n_held))
        ns = np.arange(n_held)
        es = pendulum_energy(model, ns)
        keep = (es >= e_min) & (es <= e_max)
        ns, es = ns[keep], es[keep]

    elif kind == models.MORSE:
        lam = model.lambda_morse
        ns = np.arange(morse_level_count(lam))
        es = morse_energy(lam, ns)
        keep = (es >= e_min) & (es <= e_max)
        ns, es = ns[keep], es[keep]

    else:  # infinite well, strict truncation
        if isinf(e_max):
            raise DomainError("well window must be bounded above")
        n_hi = int(ceil(2.0 * sqrt(e_max)))
        ns = np.arange(1, n_hi + 1)
        es = (ns / 2.0) ** 2
        keep = (es > e_min) & (es < e_max)
        ns, es = ns[keep], es[keep]

    if len(ns) == 0:
        raise EmptySliceError(
            f"no {model.describe()} level lies in [{e_min}, {e_max}]")
    return ns, es


# ---------------------------------------------------------------------------
# eigenfunctions
# ---------------------------------------------------------------------------

def _hermite_pair(n, x):
    """Harmonic-oscillator eigenfunctions psi_n and psi_{n-1} at x."""
    x = np.asarray(x, dtype=float)
    psi_prev = np.zeros_like(x)
    psi = pi ** (-0.25) * np.exp(-0.5 * x * x)
    for k in range(n):
        psi, psi_prev = (sqrt(2.0 / (k + 1)) * x * psi
                         - sqrt(k / (k + 1.0)) * psi_prev), psi
    return psi, psi_prev


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


def eigenfunction(model, n, q):
    """(psi_n(q), d psi_n/dq) in the real gauge; scalar in, scalar out."""
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        x = float(q)
        psi, psi_m1 = _hermite_pair(n, np.array(x))
        value = float(psi)
        deriv = -x * value + (sqrt(2.0 * n) * float(psi_m1) if n > 0 else 0.0)
        return value, deriv

    if kind == models.PENDULUM:
        phi = float(q)
        if not -pi < phi <= pi + 1e-15:
            raise DomainError("pendulum angle must lie in (-pi, pi]")
        sol = _pendulum_solutions(model, n + 1)[n]
        return (float(eigenfunction_grid(model, n, phi)),
                0.5 * sol.derivative(0.5 * phi) / sqrt(pi))

    if kind == models.MORSE:
        lam = model.lambda_morse
        if not 0 <= n < morse_level_count(lam):
            raise DomainError(f"Morse level {n} is not bound")
        x = float(q)
        value = float(_morse_value(lam, n, np.array(x)))
        zx = 2.0 * lam * exp(x)
        # d/dx [z^(lam-n-1/2) e^(-z/2) L(z)] with dz/dx = z and
        # dL_n^(a)/dz = -L_{n-1}^(a+1)
        deriv = ((lam - n - 0.5) - 0.5 * zx) * value
        if n > 0:
            lag_d = -laguerre(n - 1, 2.0 * lam - 2.0 * n, zx)
            expo = _morse_log_norm(lam, n) + (lam - n - 0.5) * log(zx) - 0.5 * zx
            if expo > -700.0:
                deriv += exp(expo) * float(lag_d) * zx
        return value, deriv

    # infinite well (L = 1)
    x = float(q)
    if not -0.5 <= x <= 0.5:
        raise DomainError("well position must lie in [-1/2, 1/2]")
    if n < 1:
        raise DomainError("well levels start at n = 1")
    w = n * pi
    if n % 2 == 1:
        return sqrt(2.0) * np.cos(w * x), -sqrt(2.0) * w * np.sin(w * x)
    return sqrt(2.0) * np.sin(w * x), sqrt(2.0) * w * np.cos(w * x)


def eigenfunction_grid(model, n, qs):
    """Vectorized psi_n on an array of positions (no derivatives)."""
    qs = np.asarray(qs, dtype=float)
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        psi, _ = _hermite_pair(n, qs)
        return psi
    if kind == models.PENDULUM:
        sol = _pendulum_solutions(model, n + 1)[n]
        return np.asarray(sol.value(0.5 * qs)) / sqrt(pi)
    if kind == models.MORSE:
        return _morse_value(model.lambda_morse, n, qs)
    w = n * pi
    vals = (np.cos(w * qs) if n % 2 == 1 else np.sin(w * qs)) * sqrt(2.0)
    return np.where(np.abs(qs) <= 0.5, vals, 0.0)


# ---------------------------------------------------------------------------
# Morse diagonal polynomials P^n(lambda)
# ---------------------------------------------------------------------------

_MORSE_POLYS = {
    0: [Fraction(0)],
    1: [Fraction(1)],
    2: [Fraction(6), Fraction(2)],
    3: [Fraction(180), Fraction(-42), Fraction(32, 3)],
    4: [Fraction(6440), Fraction(-5828, 3), Fraction(190), Fraction(58, 3)],
    5: [Fraction(347760), Fraction(-140604), Fraction(102376, 5),
        Fraction(-4912, 5), Fraction(212, 3)],
    6: [Fraction(23617440), Fraction(-10818312), Fraction(8950344, 5),
        Fraction(-1726232, 15), Fraction(125644, 45), Fraction(380, 3)],
    7: [Fraction(1979385408), Fraction(-4965563888, 5),
        Fraction(6608820632, 35), Fraction(-5199530008, 315),
        Fraction(73504376, 105), Fraction(-553792, 45), Fraction(1192, 3)],
}


def morse_diag_polynomial(n, lam):
    """P^n(lambda), exact rational coefficients, for 0 <= n <= 7."""
    if not 0 <= n <= 7:
        raise DomainError(
            f"P^n(lambda) coefficients are tabulated for n <= 7 only, got {n}")
    total = 0.0
    power = 1.0
    for coeff in _MORSE_POLYS[n]:
        total += float(coeff) * power
        power *= lam
    return total


# ---------------------------------------------------------------------------
# sgn matrix elements
# ---------------------------------------------------------------------------

def _harmonic_sgn(indices):
    """<n|sgn(X)|n'> for harmonic/Kerr eigenstates.

    Nonzero only between opposite parities; the magnitude involves central
    binomials and is evaluated with extended-precision log-factorials so
    that truncations of several thousand levels neither overflow nor lose
    the leading digits.
    """
    ns = np.asarray(indices, dtype=int)
    n_top = int(ns.max())
    logs = np.zeros(n_top + 2, dtype=np.longdouble)
    logs[1:] = np.cumsum(np.log(np.arange(1, n_top + 2, dtype=np.longdouble)))
    even = ns[ns % 2 == 0]
    odd = ns[ns % 2 == 1]
    if len(even) == 0 or len(odd) == 0:
        return np.zeros((len(ns), len(ns)))
    e = even[:, None].astype(np.int64)
    o = odd[None, :].astype(np.int64)
    lcb_e = logs[e] - 2.0 * logs[e // 2]
    lcb_o = logs[o - 1] - 2.0 * logs[(o - 1) // 2]
    log_mag = (-(0.5 * (e + o) - 1.0) * np.log(np.longdouble(2.0))
               + 0.5 * (np.log(o.astype(np.longdouble)) - np.log(np.longdouble(pi))
                        + lcb_e + lcb_o)
               - np.log(np.abs(o - e).astype(np.longdouble)))
    k = np.where(o > e, (o - e - 1) // 2, -((e - o + 1) // 2))
    sign = np.where(k % 2 == 0, 1.0, -1.0) * np.sign(o - e)
    block = (np.exp(log_mag) * sign).astype(float)
    dim = len(ns)
    s = np.zeros((dim, dim))
    pos = {int(n): i for i, n in enumerate(ns)}
    ei = np.array([pos[int(n)] for n in even])
    oi = np.array([pos[int(n)] for n in odd])
    s[np.ix_(ei, oi)] = block
    s[np.ix_(oi, ei)] = block.T
    return s


def _pendulum_sgn(model, indices, energies):
    """4|alpha| W(ce_n, se_m) / (pi (E_n - E_m)) between even n and odd m,
    with the Wronskian W taken between u = 0 and u = pi/2."""
    ns = np.asarray(indices, dtype=int)
    es = np.asarray(energies, dtype=float)
    flat = np.flatnonzero(np.diff(es) <= 0.0)
    if len(flat):
        i = flat[0]
        raise DomainError(
            f"pendulum levels {ns[i]} and {ns[i + 1]} (E = {float(es[i])!r}, "
            f"{float(es[i + 1])!r}) are not strictly increasing: they lie "
            f"past the separatrix E = {model.energy_range()[1]!r}, where "
            "rotational pairs are degenerate to round-off; use fewer levels")
    dim = len(ns)
    s = np.zeros((dim, dim))
    ei = np.flatnonzero(ns % 2 == 0)
    oi = np.flatnonzero(ns % 2 == 1)
    if len(ei) == 0 or len(oi) == 0:
        return s
    sols = _pendulum_solutions(model, int(ns.max()) + 1)
    ends = np.array([0.0, 0.5 * pi])
    ce = np.array([sols[n].value(ends) for n in ns[ei]])
    se_d = np.array([sols[m].derivative(ends) for m in ns[oi]])
    w = np.outer(ce[:, 1], se_d[:, 1]) - np.outer(ce[:, 0], se_d[:, 0])
    block = 4.0 * abs(model.alpha) * w / (pi * (es[ei, None] - es[None, oi]))
    s[np.ix_(ei, oi)] = block
    s[np.ix_(oi, ei)] = block.T
    return s


def _morse_psi0_values(lam, n_levels):
    """psi_n(0) for n = 0..n_levels-1 (position x = 0, i.e. z = 2 lambda)."""
    z0 = 2.0 * lam
    vals = np.empty(n_levels)
    for n in range(n_levels):
        lag = laguerre(n, 2.0 * lam - 2.0 * n - 1.0, z0)
        expo = _morse_log_norm(lam, n) + (lam - n - 0.5) * log(z0) - 0.5 * z0
        vals[n] = exp(expo) * float(lag)
    return vals


def _morse_diag_quadrature(lam, n, rel_tol=1e-11):
    """<n|sgn(X)|n> = 2 P[x > 0] - 1 by quadrature in t = log z over z > 2 lam."""
    log_n2 = 2.0 * _morse_log_norm(lam, n)
    a = 2.0 * lam - 2.0 * n - 1.0

    def integrand(t):
        z = exp(t)
        lag = float(laguerre(n, a, z))
        if lag == 0.0:
            return 0.0
        expo = log_n2 + a * t - z + 2.0 * log(abs(lag))
        return exp(expo) if expo > -700.0 else 0.0

    t0 = log(2.0 * lam)
    t1 = log(2.0 * lam + 80.0 + 20.0 * sqrt(2.0 * lam))
    mass = _adaptive_simpson(integrand, t0, t1, rel_tol, 20000)
    return 2.0 * mass - 1.0


def _morse_sgn(model, indices):
    lam = model.lambda_morse
    n_levels = int(max(indices)) + 1
    psi0 = _morse_psi0_values(lam, n_levels)
    dim = len(indices)
    s = np.zeros((dim, dim))
    for i in range(dim):
        n = int(indices[i])
        if n <= 7:
            poly = morse_diag_polynomial(n, lam)
            first = 0.0
            if poly != 0.0:
                expo = (log(4.0) + (2.0 * lam - 2.0 * n - 1.0) * log(2.0 * lam)
                        - 2.0 * lam + log(abs(poly))
                        + log(2.0 * lam - 2.0 * n - 1.0)
                        - lgamma(2.0 * lam - n))
                first = exp(expo) * (1.0 if poly > 0 else -1.0)
            s[i, i] = (first
                       + 2.0 * regularized_gamma_Q(2.0 * lam - 2.0 * n - 1.0,
                                                   2.0 * lam) - 1.0)
        else:
            s[i, i] = _morse_diag_quadrature(lam, n)
        for j in range(i + 1, dim):
            m = int(indices[j])

            def coupling(k):
                return (lam / (lam - k)) * sqrt(
                    k * (2.0 * lam - k) * (lam - k - 0.5) / (lam - k + 0.5))

            pref = 2.0 / ((n - m) * (2.0 * lam - (1.0 + n + m)))
            term = -(n - m) * (1.0 + lam * lam / ((lam - n) * (lam - m))) \
                * psi0[n] * psi0[m]
            if n > 0:
                term -= coupling(n) * psi0[n - 1] * psi0[m]
            if m > 0:
                term += coupling(m) * psi0[n] * psi0[m - 1]
            val = pref * term
            s[i, j] = val
            s[j, i] = val
    return s


def _well_sgn(indices):
    ns = np.asarray(indices, dtype=int)
    n = ns[:, None].astype(float)
    m = ns[None, :].astype(float)
    opposite = (ns[:, None] % 2) != (ns[None, :] % 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (2.0 / pi) * (1.0 / (n + m)
                             + np.where(ns[:, None] % 2 == 1, -1.0, 1.0)
                             / (n - m))
    return np.where(opposite, vals, 0.0)


def sgn_quadrature(model, n, m, n_points=40001):
    """Direct quadrature of <n|sgn(Q)|m> as an independent cross-check."""
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        x_max = sqrt(2.0 * (max(n, m) + 0.5)) + 10.0
        xs = np.linspace(0.0, x_max, n_points)
        f = eigenfunction_grid(model, n, xs) * eigenfunction_grid(model, m, xs)
        plus = np.trapezoid(f, xs)
        minus = plus if n != m else None  # even potential: mirror
        xs_neg = -xs[::-1]
        fneg = (eigenfunction_grid(model, n, xs_neg)
                * eigenfunction_grid(model, m, xs_neg))
        minus = np.trapezoid(fneg, xs_neg)
        return plus - minus
    if kind == models.PENDULUM:
        xs = np.linspace(0.0, pi, n_points)
        f = eigenfunction_grid(model, n, xs) * eigenfunction_grid(model, m, xs)
        plus = np.trapezoid(f, xs)
        xs_neg = np.linspace(-pi, 0.0, n_points)
        fneg = (eigenfunction_grid(model, n, xs_neg)
                * eigenfunction_grid(model, m, xs_neg))
        return plus - np.trapezoid(fneg, xs_neg)
    if kind == models.MORSE:
        lam = model.lambda_morse
        x_hi = log(1.0 + sqrt(2.0 * max(morse_energy(lam, n), 1.0) / lam)) + 3.0
        x_lo = -(40.0 + 10.0 * sqrt(lam)) / min(lam, 40.0) - 10.0
        xs = np.linspace(0.0, x_hi, n_points)
        f = eigenfunction_grid(model, n, xs) * eigenfunction_grid(model, m, xs)
        plus = np.trapezoid(f, xs)
        xs_neg = np.linspace(x_lo, 0.0, n_points)
        fneg = (eigenfunction_grid(model, n, xs_neg)
                * eigenfunction_grid(model, m, xs_neg))
        return plus - np.trapezoid(fneg, xs_neg)
    xs = np.linspace(0.0, 0.5, n_points)
    f = eigenfunction_grid(model, n, xs) * eigenfunction_grid(model, m, xs)
    plus = np.trapezoid(f, xs)
    xs_neg = np.linspace(-0.5, 0.0, n_points)
    fneg = (eigenfunction_grid(model, n, xs_neg)
            * eigenfunction_grid(model, m, xs_neg))
    return plus - np.trapezoid(fneg, xs_neg)


_CHECK_INDEX_CAP = 300  # quadrature oracle is reliable below this index


def sgn_matrix(model, indices, energies=None, check=True):
    """Real symmetric <E_n|sgn(Q)|E_n'> on the given level indices.

    With ``check`` enabled, a handful of entries are re-derived by direct
    quadrature of sgn(q) psi_n psi_n'; disagreement beyond 1e-6 raises
    NumericalInstabilityError rather than being silently accepted.
    """
    indices = np.asarray(indices, dtype=int)
    kind = model.kind
    if kind in (models.HARMONIC, models.KERR):
        s = _harmonic_sgn(indices)
    elif kind == models.PENDULUM:
        if energies is None:
            energies = pendulum_energy(model, indices)
        s = _pendulum_sgn(model, indices, energies)
    elif kind == models.MORSE:
        s = _morse_sgn(model, indices)
    else:
        s = _well_sgn(indices)

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
        if not np.allclose(s, s.T, atol=1e-12):
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
