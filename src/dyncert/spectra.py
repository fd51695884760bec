"""Quantum side per model: energy levels, eigenfunctions and the span of
positions that holds them, and the matrix of sgn(Q) on a truncated
eigenbasis.

Energies are in hbar*omega0 and positions in each model's natural length
unit (see models module). All eigenfunctions are taken in a real gauge, so
the sgn matrix is real symmetric. The harmonic, Kerr, pendulum and well
potentials are even, so only levels of opposite index parity couple and
the matrix is held as its block of even-level rows and odd-level columns;
the Morse potential has no parity and its full matrix is held.
"""

import hashlib
import json
import threading
from dataclasses import dataclass, field
from math import pi, sqrt, log, log1p, lgamma, isinf, floor, ceil

import numpy as np

from . import models
from .errors import (DomainError, EmptySliceError, NumericalInstabilityError,
                     UnboundedSpectrumError)
from .numerics import laguerre, mathieu_eigensystem, mathieu_values

SGN_CHECK_TOL = 1e-6
SGN_QUADRATURE_POINTS = 40001  # per half-line, in sgn_quadrature
# Slices of up to this many levels are held and solved dense (parity-even
# Q3 by the SVD of a half-size block), larger ones by Lanczos, on a
# ToeplitzBlock for harmonic and Kerr. One BLAS thread, tau in {0.8, 1,
# 1.2}: Lanczos overtakes that SVD from dim ~230 on harmonic truncations
# and not below 300 on Kerr and the well, whose clustered tops need more
# vectors.
DENSE_EIG_LIMIT = 200
SCHEMA_VERSION = "dyncert.spectrum-slice.v2"


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


def _pendulum_solutions(model, n_levels):
    """(solutions, ends) of pendulum levels 0, 1, ..., at least n_levels:
    the Mathieu solutions and, per level n, its Wronskian end values
    (ce_n(0), ce_n(pi/2)) for even n or (se'(0), se'(pi/2)) for odd n.

    The first solve for an alpha covers every level below the separatrix
    E = 1/(8|alpha|), semiclassically ceil(1/(pi |alpha|)) levels, plus a
    margin. A request for more doubles the count and solves again but keeps
    the levels already held, so each level always comes from the same solve,
    whatever was asked before. A solve evaluates its new levels' ends at once.
    """
    alpha, at = model.alpha, [0.0, 0.5 * pi]
    with _MATHIEU_LOCK:
        sols, ends = entry = _MATHIEU_CACHE.get(alpha, ((), np.empty((0, 2))))
        while len(sols) < n_levels:
            count = (2 * len(sols) if sols
                     else ceil(1.0 / (pi * abs(alpha))) + _SEPARATRIX_MARGIN)
            new = tuple(mathieu_eigensystem(
                models.pendulum_q_parameter(model), count)[len(sols):])
            new_ends, first = np.empty((len(new), 2)), len(sols) % 2
            new_ends[first::2] = mathieu_values(new[first::2], at)
            new_ends[1 - first::2] = mathieu_values(new[1 - first::2], at,
                                                    derivative=True)
            sols, ends = entry = sols + new, np.concatenate((ends, new_ends))
        _MATHIEU_CACHE[alpha] = entry
    return entry


def pendulum_energy(model, n):
    """E_n = |alpha| * (Mathieu characteristic value of level n); n may be
    an array of levels."""
    n = np.asarray(n, dtype=int)
    sols = _pendulum_solutions(model, int(n.max(initial=0)) + 1)[0]
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


def level_range(model):
    """(first, last): the model's lowest level index and its highest level
    that has an energy, with last None when the spectrum is unbounded."""
    if model.kind == models.WELL:
        return 1, None
    if model.kind == models.MORSE:
        return 0, morse_level_count(model.lambda_morse) - 1
    if model.kind == models.KERR and model.alpha < 0:
        return 0, _kerr_top_level(model.alpha)
    return 0, None


def levels(model, window):
    """Level indices and energies falling inside the window.

    Energies increase with the index, so a run of levels from the first one
    doubles until its top energy passes e_max or it holds the last level;
    an unbounded spectrum needs a finite e_max. The well applies the window
    with strict inequalities (boundary levels have classical periods exactly
    at the edge of the admissible range and are excluded); all other models
    include the endpoints.
    """
    e_min, e_max = window.e_min, window.e_max
    first, last = level_range(model)
    if last is None and isinf(e_max):
        raise UnboundedSpectrumError(
            f"the {model.describe()} spectrum is unbounded: pass a window "
            "with finite e_max (or a truncation-derived window)")
    count = 1
    while True:
        ns = np.arange(first, first + count)
        if last is not None:
            ns = ns[ns <= last]
        es = level_energies(model, ns)
        if es[-1] > e_max or ns[-1] == last:
            break
        count *= 2

    if model.kind == models.WELL:  # strict truncation
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

def _morse_value(lam, n, x):
    """psi_n(x) for the Morse model (c = 1 units): with z = 2 lam e^x and
    a = 2 lam - 2n - 1, sqrt(n! a / Gamma(2 lam - n)) z^(a/2) e^(-z/2)
    times the Laguerre polynomial L_n^(a)(z)."""
    z = 2.0 * lam * np.exp(x)
    a = 2.0 * lam - 2.0 * n - 1.0
    expo = (0.5 * (lgamma(n + 1.0) + log(a) - lgamma(2.0 * lam - n))
            + (lam - n - 0.5) * np.log(z) - 0.5 * z)
    out = np.zeros_like(z)
    ok = expo > -700.0
    out[ok] = np.exp(expo[ok]) * np.asarray(laguerre(n, a, z))[ok]
    return out


def eigenfunction_grid(model, ns, qs):
    """The table of psi_n(q) for every level n in ``ns`` (any order, repeats
    allowed) at every position in ``qs``, shaped ``ns.shape + qs.shape``:
    a scalar n gives psi_n shaped like ``qs``."""
    ns, qs = np.asarray(ns, dtype=int), np.asarray(qs, dtype=float)
    out = np.empty(ns.shape + qs.shape)
    rows, flat = out.reshape((ns.size,) + qs.shape), ns.ravel()
    if model.kind in (models.HARMONIC, models.KERR):
        # one upward recurrence to the top level, copying rows on the way
        psi_prev, psi = np.zeros_like(qs), pi ** (-0.25) * np.exp(-0.5 * qs * qs)
        for k in range(int(flat.max(initial=-1)) + 1):
            if k:
                psi, psi_prev = (sqrt(2.0 / k) * qs * psi
                                 - sqrt((k - 1) / k) * psi_prev), psi
            rows[flat == k] = psi
    elif model.kind == models.PENDULUM:
        sols = _pendulum_solutions(model, int(flat.max(initial=0)) + 1)[0]
        rows[:] = mathieu_values([sols[n] for n in flat], 0.5 * qs)
        rows /= sqrt(pi)
    elif model.kind == models.MORSE:
        for i, n in enumerate(flat):
            rows[i] = _morse_value(model.lambda_morse, n, qs)
    else:
        inside = np.abs(qs) <= 0.5
        for i, n in enumerate(flat):
            trig = np.cos if n % 2 == 1 else np.sin
            rows[i] = np.where(inside, trig(n * pi * qs) * sqrt(2.0), 0.0)
    return out


def position_span(model, n):
    """Positions (lo, hi), lo < 0 < hi, holding all but < 1e-8 of the mass
    of each level 0..n.

    Spans the classical turning points of level n, widened by five decay
    lengths of the slowest-decaying tail; compact domains (pendulum angle,
    box) are covered exactly. A Morse level within 0.05 of the threshold
    index lambda - 1/2 keeps more than 1e-8 beyond the capped left reach.
    """
    kind = model.kind
    if kind == models.PENDULUM:
        return -pi, pi
    if kind == models.WELL:
        return -0.5, 0.5
    if kind in (models.HARMONIC, models.KERR):
        # Hermite functions: turning point sqrt(2n + 1), unit decay length
        lim = sqrt(2.0 * n + 1.0) + 5.0
        return -lim, lim
    # Morse: left tail decays like exp((lambda - n - 1/2) x), right tail
    # super-exponentially in z = 2 lambda e^x
    lam = model.lambda_morse
    de = models.morse_dissociation_energy(model)
    r = min(float(morse_energy(lam, n)) / de, 1.0 - 1e-12)
    kappa = max(lam - n - 0.5, 0.05)
    # |psi|^2 ~ exp(2 kappa x) to the left: reach down to e^-30 residual
    # mass; the floor caps the reach at 300 for levels just below threshold
    lo = log1p(-sqrt(r)) - 15.0 / kappa - 1.0
    hi = log1p(sqrt(r)) + 5.0 * max(1.0 / sqrt(2.0 * lam * de), 0.5)
    return lo, hi


# ---------------------------------------------------------------------------
# sgn matrix elements
# ---------------------------------------------------------------------------

class ToeplitzBlock:
    """diag(a) T diag(b) with T[i, j] = t[j - i + len(a) - 1] Toeplitz, held
    as its generator: ``@`` a real (n, k) block is one batched FFT
    convolution, and indexing by rows gives them as a dense array."""

    def __init__(self, a, b, t):
        self.a, self.b, self.t = (np.asarray(x, dtype=float) for x in (a, b, t))
        self.shape = (len(self.a), len(self.b))
        if len(self.t) != len(self.a) + len(self.b) - 1:
            raise DomainError("a Toeplitz generator needs rows + columns - 1 values")
        # a circular convolution this long reproduces every entry
        self._size = 1 << (len(self.t) - 1).bit_length()
        self._symbol = np.fft.rfft(self.t[::-1], self._size)

    @property
    def T(self):
        return ToeplitzBlock(self.b, self.a, self.t[::-1])

    def __matmul__(self, x):
        conv = np.fft.irfft(self._symbol[:, None] * np.fft.rfft(
            self.b[:, None] * x, self._size, axis=0), self._size, axis=0)
        return self.a[:, None] * conv[self.shape[1] - 1:len(self.t)]

    def __getitem__(self, rows):
        i = np.arange(self.shape[0])[rows, None]
        return self.a[i] * self.b * self.t[len(self.a) - 1 - i
                                           + np.arange(self.shape[1])]


def _harmonic_block(even, odd):
    """<e|sgn(X)|o> for harmonic/Kerr runs of even e (rows) and odd o
    (columns) levels, as a ToeplitzBlock: d is constant along a diagonal.

    a_e b_o (-1)^floor((d-1)/2) / d with d = o - e, a_e = sqrt(c_e) and
    b_o = sqrt(2 o c_(o-1) / pi), where c_k = C(k, k/2) / 2^k comes from the
    recurrence c_(k+2) = c_k (k+1)/(k+2).
    """
    if np.any(np.diff(even) != 2) or np.any(np.diff(odd) != 2):
        raise DomainError("harmonic and Kerr sgn blocks need consecutive levels")
    k = np.arange(0, max(even.max(), odd.max()), 2)
    c = np.concatenate(([1.0], np.cumprod((k + 1.0) / (k + 2.0))))  # c_(2j)
    a = np.sqrt(c[even // 2])
    b = np.sqrt(2.0 * odd / pi * c[(odd - 1) // 2])
    d = odd[0] - even[0] + 2 * np.arange(1 - len(even), len(odd))
    sign = np.where((d - 1) // 2 % 2 == 0, 1.0, -1.0)
    return ToeplitzBlock(a, b, sign / d)


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
    ends = _pendulum_solutions(model, int(ns.max()) + 1)[1]
    ce, se_d = ends[ns[even]], ends[ns[odd]]
    w = np.outer(ce[:, 1], se_d[:, 1]) - np.outer(ce[:, 0], se_d[:, 0])
    return 4.0 * abs(model.alpha) * w / (pi * (es[even, None] - es[None, odd]))


def _well_block(even, odd):
    """<n|sgn(Q)|m> for well levels n even (rows) and m odd (columns)."""
    n = even[:, None].astype(float)
    m = odd[None, :].astype(float)
    return (2.0 / pi) * (1.0 / (n + m) + 1.0 / (n - m))


def _morse_sgn(model, ns):
    """Full Morse sgn matrix. The diagonal is 2 P[x > 0] - 1 per level, by
    24-point Gauss-Legendre on 32 panels in t = log z over z > 2 lam; the
    off-diagonal entries are closed forms in the values psi_n(0)."""
    lam = model.lambda_morse
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(log(2.0 * lam),
                        log(2.0 * lam + 80.0 + 20.0 * sqrt(2.0 * lam)), 33)
    half = 0.5 * np.diff(edges)[:, None]
    t = edges[:-1, None] + half * (1.0 + nodes)
    psi_t = eigenfunction_grid(model, ns, t - log(2.0 * lam))
    s = np.diag(2.0 * np.sum(half * weights * psi_t * psi_t, axis=(1, 2)) - 1.0)
    psi = eigenfunction_grid(model, np.arange(ns.max() + 1), 0.0)
    k = np.arange(1, len(psi))
    # coupling(k) psi_(k-1)(0), zero for k = 0
    lower = np.zeros_like(psi)
    lower[1:] = ((lam / (lam - k))
                 * np.sqrt(k * (2.0 * lam - k) * (lam - k - 0.5)
                           / (lam - k + 0.5)) * psi[:-1])
    i, j = np.triu_indices(len(ns), 1)
    n, m = ns[i], ns[j]
    pref = 2.0 / ((n - m) * (2.0 * lam - (1.0 + n + m)))
    term = (-(n - m) * (1.0 + lam * lam / ((lam - n) * (lam - m)))
            * psi[n] * psi[m] - lower[n] * psi[m] + lower[m] * psi[n])
    s[i, j] = s[j, i] = pref * term
    return s


def sgn_quadrature(model, pairs):
    """Direct quadrature of <n|sgn(Q)|m> for every (n, m) in ``pairs``, as
    an independent cross-check: the trapezoid rule on 40001 points per
    half-line of position_span(model, max(n, m)). Pairs with one span share
    one ``eigenfunction_grid`` table per half-line, held one at a time."""
    refs, spans = np.zeros(len(pairs)), {}
    for k, (n, m) in enumerate(pairs):
        spans.setdefault(position_span(model, max(n, m)), []).append((k, n, m))
    for (lo, hi), group in spans.items():
        ns = sorted({level for _, n, m in group for level in (n, m)})
        for sign, xs in ((1.0, np.linspace(0.0, hi, SGN_QUADRATURE_POINTS)),
                         (-1.0, np.linspace(lo, 0.0, SGN_QUADRATURE_POINTS))):
            table = dict(zip(ns, eigenfunction_grid(model, ns, xs)))
            for k, n, m in group:
                refs[k] += sign * np.trapezoid(table[n] * table[m], xs)
            del table  # before the next half-line's table is built
    return refs


_CHECK_INDEX_CAP = 300  # quadrature oracle is reliable below this index


def sgn_positions(model, indices):
    """Positions among ``indices`` of the rows and of the columns of the sgn
    block a slice holds: the even and the odd levels in a parity-even
    model, every level for Morse."""
    indices = np.asarray(indices, dtype=int)
    if not model.is_even_potential:
        return (np.arange(len(indices)),) * 2
    return np.flatnonzero(indices % 2 == 0), np.flatnonzero(indices % 2 == 1)


def sgn_matrix(model, indices, energies=None, check=True):
    """<E_n|sgn(Q)|E_n'> on the given level indices, as a slice holds it.

    In a parity-even model only levels of opposite index parity couple, so
    this is the (even x odd) block alone: a ToeplitzBlock for harmonic and
    Kerr slices of more than DENSE_EIG_LIMIT levels, else a dense array
    (empty when every level has one parity). For Morse it is the full real
    symmetric matrix.

    With ``check`` enabled, the head entries (rows 0-2, two columns each from
    the diagonal) with no level above _CHECK_INDEX_CAP are re-derived by one
    sgn_quadrature call, one table per span, and compared in row order;
    disagreement beyond 1e-6 raises NumericalInstabilityError rather than
    being silently accepted. A slice whose head levels all lie above the cap
    (the well at tau = 0.005, levels 301-599) compares nothing.
    """
    indices = np.asarray(indices, dtype=int)
    rows, cols = sgn_positions(model, indices)
    if not model.is_even_potential:
        s = _morse_sgn(model, indices)
    elif not (len(rows) and len(cols)):
        s = np.zeros((len(rows), len(cols)))
    elif model.kind == models.PENDULUM:
        if energies is None:
            energies = pendulum_energy(model, indices)
        s = _pendulum_block(model, indices, np.asarray(energies, dtype=float),
                            rows, cols)
    elif model.kind == models.WELL:
        s = _well_block(indices[rows], indices[cols])
    else:
        s = _harmonic_block(indices[rows], indices[cols])
        if len(indices) <= DENSE_EIG_LIMIT:
            s = s[:]

    if check:
        head = s[:3]
        entries = [(i, j) for i in range(len(head))
                   for j in range(i, min(i + 2, s.shape[1]))
                   if max(indices[rows[i]], indices[cols[j]]) <= _CHECK_INDEX_CAP]
        pairs = [(int(indices[rows[i]]), int(indices[cols[j]])) for i, j in entries]
        for (i, j), (n, m), ref in zip(entries, pairs, sgn_quadrature(model, pairs)):
            if not abs(head[i, j] - ref) <= SGN_CHECK_TOL:
                raise NumericalInstabilityError(
                    f"sgn matrix entry ({n},{m}) = {head[i, j]:.9g} "
                    f"disagrees with quadrature {ref:.9g} beyond "
                    f"{SGN_CHECK_TOL}")
    return s


# ---------------------------------------------------------------------------
# spectrum slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumSlice:
    """Levels inside a window together with their sgn(Q) matrix, held as
    :func:`sgn_matrix` returns it, and ``positions``, the rows and columns
    of that matrix as :func:`sgn_positions` gives them."""

    model: models.ModelSystem
    indices: tuple
    energies: np.ndarray
    sgn: object
    positions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if len(e) != len(self.indices):
            raise DomainError("indices and energies must align")
        if np.any(np.diff(e) <= 0):
            raise DomainError("energies must be strictly increasing")
        object.__setattr__(self, "positions",
                           sgn_positions(self.model, self.indices))
        s, (rows, cols) = self.sgn, self.positions
        if s.shape != (len(rows), len(cols)):
            raise DomainError("sgn matrix shape mismatch")
        # a parity-even block is symmetric with a zero diagonal by layout;
        # s - s.T is antisymmetric, so its max is its largest magnitude,
        # and a NaN makes the max NaN and fails the test
        if (not self.model.is_even_potential
                and not np.max(s - s.T, initial=0.0) <= 1e-12):
            raise DomainError("sgn matrix must be symmetric")
        for lo in range(0, s.shape[0], 256):  # a ToeplitzBlock, in row chunks
            if not np.all(np.abs(s[lo:lo + 256]) <= 1.0 + 1e-9):
                raise DomainError(
                    "sgn matrix entries must be finite and lie in [-1, 1]")

    @property
    def dim(self):
        return len(self.indices)

    def sgn_matmul(self, x):
        """sgn(Q) @ x for a real or complex (dim, k) block x, complex."""
        x = np.ascontiguousarray(x, dtype=complex).view(float)
        if not self.model.is_even_potential:
            return (self.sgn @ x).view(complex)
        even, odd = self.positions
        y = np.empty_like(x)
        y[even] = self.sgn @ x[odd]
        y[odd] = self.sgn.T @ x[even]
        return y.view(complex)

    def to_json_dict(self):
        s = self.sgn
        return {
            "schema": SCHEMA_VERSION,
            "model": self.model.describe(),
            "indices": [int(n) for n in self.indices],
            "energies": [float(e) for e in self.energies],
            "sgn": ({"toeplitz": [s.a.tolist(), s.b.tolist(), s.t.tolist()]}
                    if isinstance(s, ToeplitzBlock) else
                    {"shape": list(s.shape), "dense": s.ravel().tolist()}),
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
        sgn = data["sgn"]
        sgn = (ToeplitzBlock(*sgn["toeplitz"]) if "toeplitz" in sgn else
               np.array(sgn["dense"], dtype=float).reshape(sgn["shape"]))
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
