"""Special functions, singular quadrature, and the Hermitian eigensolver.

Everything here is implemented at double precision on top of elementary
functions, so results are reproducible across platforms and can be
checked against independent oracles.
"""

from dataclasses import dataclass
from math import pi, sqrt, isfinite, inf

import numpy as np

from .errors import ConvergenceError, DomainError


# ---------------------------------------------------------------------------
# elliptic integral K and the Jacobi elliptic functions
# ---------------------------------------------------------------------------

def elliptic_K(m):
    """K(m) = int_0^{pi/2} (1 - m sin^2 u)^{-1/2} du via the AGM.

    Parameter convention: *m* is the squared modulus, K(0) = pi/2.
    """
    if m >= 1.0:
        raise DomainError(f"elliptic_K requires m < 1, got {m}")
    a, b = 1.0, sqrt(1.0 - m)
    for _ in range(200):
        if abs(a - b) <= 1e-17 * a:
            break
        a, b = 0.5 * (a + b), sqrt(a * b)
    return pi / (2.0 * a)


ELLIPTIC_K_INVERSE_TOL = 1e-13  # bisection stops at this relative bracket width


def elliptic_K_inverse(k):
    """Solve K(m) = k for m in [0, 1) by bracketed bisection.

    K is strictly increasing on [0, 1) with minimum K(0) = pi/2, so any
    k >= pi/2 has a unique preimage.
    """
    if k < pi / 2:
        raise DomainError(f"elliptic_K_inverse requires k >= pi/2, got {k}")
    if k == pi / 2:
        return 0.0
    lo, hi = 0.0, 1.0 - 1e-16
    while elliptic_K(hi) < k:
        # K(1-eps) ~ log(4/sqrt(eps)) covers any double k; this cannot loop forever
        hi = 1.0 - (1.0 - hi) / 16.0
        if 1.0 - hi < 1e-300:
            raise DomainError(f"elliptic_K_inverse target {k} out of reach")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if elliptic_K(mid) < k:
            lo = mid
        else:
            hi = mid
        if hi - lo <= ELLIPTIC_K_INVERSE_TOL * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


LANDEN_STEPS = 12  # cap: every double m < 1 converges within 10 steps


def jacobi_sn_cn_dn(u, m):
    """Jacobi sn, cn, dn at (u | m) by descending Landen/AGM (A&S 16.4.3).

    *m* is the parameter (squared modulus), each element in [0, 1); *u*
    broadcasts against it, and the AGM runs once on *m*'s shape.
    """
    u, m = np.asarray(u, dtype=float), np.asarray(m, dtype=float)
    if not np.all((m >= 0.0) & (m < 1.0)):
        raise DomainError("jacobi_sn_cn_dn requires 0 <= m < 1")
    a, b, c = np.ones(m.shape), np.sqrt(1.0 - m), np.sqrt(m)
    ratios = []
    for _ in range(LANDEN_STEPS):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (4.0 * a)  # c_n = (a_{n-1} - b_{n-1})/2 without cancellation
        ratios.append(c / a)
        if np.all(ratios[-1] < 1e-17):  # the next step would add nothing
            break
    phi = 2.0 ** len(ratios) * a * u
    for ratio in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(ratio * np.sin(phi)))
    sn, cn = np.sin(phi), np.cos(phi)
    # dn^2 = cn^2 + (1 - m) sn^2 keeps full relative accuracy where cn -> 0
    return sn, cn, np.sqrt(cn * cn + (1.0 - m) * sn * sn)


# ---------------------------------------------------------------------------
# generalized Laguerre polynomials
# ---------------------------------------------------------------------------

def laguerre(n, a, z):
    """L_n^{(a)}(z) by the stable upward three-term recurrence.

    Vectorized over z; scalar in, scalar out.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"laguerre requires integer n >= 0, got {n}")
    n = int(n)
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    prev = np.ones_like(z_arr)
    if n == 0:
        return float(prev[0]) if scalar else prev
    cur = 1.0 + a - z_arr
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + a - z_arr) * cur - (k - 1.0 + a) * prev) / k
    return float(cur[0]) if scalar else cur


# ---------------------------------------------------------------------------
# Mathieu functions by Fourier-matrix truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MathieuSolution:
    """One pi-normalized, pi-periodic Mathieu function ce_n or se_n (n even).

    ``coeffs[j]`` multiplies cos(2j u) for ce or sin((2j+2) u) for se.
    Normalization is the standard int_0^{2pi} f^2 du = pi.
    """

    order: int
    parity: str  # "even" -> ce, "odd" -> se
    char_value: float
    coeffs: np.ndarray

    def value(self, u):
        """f(u); a scalar for scalar u, else an array shaped like u."""
        return mathieu_values([self], u)[0][()]

    def derivative(self, u):
        """f'(u); a scalar for scalar u, else an array shaped like u."""
        return mathieu_values([self], u, derivative=True)[0][()]


_BLOCK_ELEMENTS = 1 << 18  # doubles per chunk: its basis and 4 accumulators


def mathieu_values(sols, u, derivative=False):
    """f(u), or f'(u), of every solution in ``sols`` at every point of
    ``u``, shaped ``(len(sols),) + u.shape``. Solutions of one parity and
    length share a (coefficients x points) basis, a chunk of points at a
    time, and one Kahan-compensated sum over the coefficients, which keeps
    large-|q| cancellations under control; each value sees the operations
    of its solution alone, in the same order."""
    flat = np.ravel(u).astype(float)
    out = np.empty((len(sols), flat.size))
    groups = {}
    for i, sol in enumerate(sols):
        groups.setdefault((sol.parity, len(sol.coeffs)), []).append(i)
    for (parity, size), rows in groups.items():
        coeffs = np.array([sols[i].coeffs for i in rows])
        s = (0 if parity == "even" else 2) + 2 * np.arange(size)
        step = max(1, _BLOCK_ELEMENTS // (size + 4 * len(rows)))
        for lo in range(0, flat.size, step):
            phase = np.outer(s, flat[lo:lo + step])
            cosine = (parity == "even") != derivative
            basis = np.cos(phase) if cosine else np.sin(phase)
            if derivative:
                basis = (-basis if parity == "even" else basis) * s[:, None]
            total, comp, y, t = np.zeros((4, len(rows), phase.shape[1]))
            for j in range(size):
                np.multiply(coeffs[:, j, None], basis[j], out=y)
                y -= comp
                np.add(total, y, out=t)
                np.subtract(t, total, out=comp)
                comp -= y
                total, t = t, total
            out[rows, lo:lo + step] = total
    return out.reshape((len(sols),) + np.shape(u))


def _mathieu_tridiag(q_param, base, size):
    """Symmetric matrix whose eigenvalues are the characteristic values of
    one pi-periodic class: diagonal (2j + base)^2, with base 0 and a
    sqrt(2) first coupling for ce, base 2 for se."""
    j = np.arange(size)
    m = np.diag((2.0 * j + base) ** 2)
    m[j[:-1], j[1:]] = m[j[1:], j[:-1]] = q_param
    if base == 0:
        m[0, 1] = m[1, 0] = sqrt(2.0) * q_param
    return m


def _fix_sign(parity, coeffs, strides):
    if parity == "even":
        ref = float(np.sum(coeffs))          # ce(0)
    else:
        ref = float(np.sum(coeffs * strides))  # se'(0)
    if ref < 0:
        return -coeffs
    if ref == 0.0 and coeffs[np.argmax(np.abs(coeffs))] < 0:
        return -coeffs
    return coeffs


TAIL_TOL = 1e-14
MAX_FOURIER_SIZE = 4000


def mathieu_eigensystem(q_param, n_levels):
    """The pi-periodic Mathieu solutions behind pendulum levels 0..n_levels-1.

    With u = phi/2 the 2pi-periodic pendulum states are the pi-periodic
    Mathieu functions, so level n is ce_n for even n and se_{n+1} for odd
    n; the list holds one :class:`MathieuSolution` per level, in level
    order. The Fourier truncation grows until the last retained
    coefficient of every solution is below 1e-14 of its largest one.
    """
    if n_levels < 1:
        raise DomainError("n_levels must be >= 1")
    if not isfinite(q_param):
        raise DomainError("q_param must be finite")

    size = max(16, int(2.2 * sqrt(abs(q_param))) + n_levels + 15)
    while True:
        if size > MAX_FOURIER_SIZE:
            raise ConvergenceError(
                f"Mathieu truncation exceeded ceiling {MAX_FOURIER_SIZE}")
        classes = []
        for parity, base, count in (("even", 0, (n_levels + 1) // 2),
                                    ("odd", 2, n_levels // 2)):
            w, v = np.linalg.eigh(_mathieu_tridiag(q_param, base, size))
            vecs = v[:, :count].T.copy()
            if base == 0:
                vecs[:, 0] /= sqrt(2.0)  # undo symmetrization; 2A0^2+sum=1
            tail = np.abs(vecs[:, -1])
            if np.any(tail > TAIL_TOL * np.max(np.abs(vecs), axis=1)):
                break
            strides = base + 2 * np.arange(size)
            classes.append([
                MathieuSolution(base + 2 * k, parity, float(w[k]),
                                _fix_sign(parity, vec, strides))
                for k, vec in enumerate(vecs)])
        else:
            break
        size *= 2

    ce, se = classes
    return [ce[n // 2] if n % 2 == 0 else se[n // 2] for n in range(n_levels)]


# ---------------------------------------------------------------------------
# quadrature with inverse-square-root endpoint singularities
# ---------------------------------------------------------------------------

def _adaptive_simpson(f, a, b, tol, budget):
    """Globally adaptive Simpson with a panel budget.

    A panel is accepted when the Richardson error estimate meets the local
    tolerance, when the panel hits the width floor, or when several
    consecutive subdivisions fail to shrink the estimate (rounding noise in
    the integrand dominates and further splitting cannot help).
    """
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, inf, 0)]
    total = 0.0
    used = 0
    while stack:
        a0, b0, fa0, fm0, fb0, s0, parent_err, stalls = stack.pop()
        used += 1
        if used > budget:
            raise ConvergenceError(
                "adaptive quadrature exceeded panel budget", residual=abs(s0))
        m = 0.5 * (a0 + b0)
        lm, rm = f(0.5 * (a0 + m)), f(0.5 * (m + b0))
        left = (m - a0) / 6.0 * (fa0 + 4.0 * lm + fm0)
        right = (b0 - m) / 6.0 * (fm0 + 4.0 * rm + fb0)
        err = abs(left + right - s0) / 15.0
        stalls = stalls + 1 if err > 0.25 * parent_err else 0
        if (err <= tol * max(abs(left + right), 1e-300)
                or (b0 - a0) < 1e-14 * (b - a)
                or stalls >= 3):
            total += left + right + (left + right - s0) / 15.0
        else:
            stack.append((a0, m, fa0, lm, fm0, left, err, stalls))
            stack.append((m, b0, fm0, rm, fb0, right, err, stalls))
    return total


def quad_inverse_sqrt(f, a, b, rel_tol=1e-10, panel_budget=20000):
    """Integrate f over (a, b) absorbing 1/sqrt endpoint singularities.

    The substitution x = a + (b - a) sin^2(theta) maps both endpoints to
    regular points of the transformed integrand; adaptive Simpson panels
    then finish the job. The distance to the nearer endpoint is computed
    from sin^2 or cos^2 directly, so abscissas stay accurate arbitrarily
    close to the singularities; inside the sub-ulp sliver where x rounds
    onto an endpoint, the integrand's documented C/sqrt(dist) behaviour
    is extrapolated from a nearby representable point.
    """
    if not a < b:
        raise DomainError(f"quad_inverse_sqrt requires a < b, got [{a}, {b}]")
    span = b - a
    cut = 1e-5  # theta-width of the endpoint slivers handled analytically

    def g(theta):
        s, c = np.sin(theta), np.cos(theta)
        if s * s <= 0.5:
            x = a + span * s * s
        else:
            x = b - span * c * c
        if not a < x < b:
            return 0.0
        v = f(x)
        return v * 2.0 * span * s * c if np.isfinite(v) else 0.0

    core = _adaptive_simpson(g, cut, pi / 2.0 - cut, rel_tol, panel_budget)

    # Endpoint slivers: with f ~ C/sqrt(dist), the transformed integrand is
    # ~ 2 sqrt(span) C there, giving mass 2 sqrt(span) C cut. Sampling C at
    # distance span (cut/2)^2 also reproduces the mass exactly when f is
    # regular at the endpoint.
    def sliver(at_b):
        dist = span * (0.5 * cut) ** 2
        x = b - dist if at_b else a + dist
        if not a < x < b:
            return 0.0
        v = f(x)
        if not np.isfinite(v):
            return 0.0
        return 2.0 * sqrt(span) * (v * sqrt(dist)) * cut

    return core + sliver(False) + sliver(True)


# ---------------------------------------------------------------------------
# largest eigenpair of a Hermitian operator
# ---------------------------------------------------------------------------

class HermitianOperator:
    """Matrix-free Hermitian operator: a dimension plus a matvec.

    ``matvec`` maps an (n,) vector to an (n,) vector. ``norm_bound`` is
    any upper bound on the spectral norm; it sets the residual target of
    :func:`hermitian_max_eigenpair`. No sign or ordering of the spectrum
    is assumed.
    """

    def __init__(self, dim, matvec, norm_bound):
        self.dim = dim
        self.matvec = matvec
        self.norm_bound = float(norm_bound)


def hermitian_max_eigenpair(op, max_krylov=300):
    """Largest eigenvalue and unit eigenvector of a HermitianOperator, by
    Lanczos from a fixed-seed random start vector.

    Each new Krylov vector is orthogonalised twice against the whole
    basis, so the residual estimate |beta_k y_k| of the top Ritz pair can
    be trusted, and an invariant subspace (beta_k = 0) simply ends the
    recurrence; its O(k^3) ``eigh`` runs every step up to 32 vectors, then
    every k/32 steps. The pair is returned once one explicit matvec confirms
    ||Mv - lam v|| <= 1e-10 ||M||, with ||M|| the operator's
    ``norm_bound``; a Krylov space of ``max_krylov`` vectors that falls
    short raises :class:`ConvergenceError` with the residual reached.
    """
    rng = np.random.default_rng(0)
    q = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    q /= np.linalg.norm(q)
    tol = 1e-10 * op.norm_bound
    size = min(op.dim, max_krylov)
    basis = np.empty((size, op.dim), dtype=complex)
    t = np.zeros((size, size))  # the tridiagonal projection
    next_check = 0
    for k in range(size):
        basis[k] = q
        w = op.matvec(q)
        t[k, k] = np.vdot(q, w).real
        span = basis[:k + 1]
        for _ in range(2):
            w = w - (span @ w.conj()).conj() @ span
        beta = float(np.linalg.norm(w))
        last = k + 1 == size or beta == 0.0
        if k >= next_check or last:
            next_check = k + 1 + k // 32
            _, y = np.linalg.eigh(t[:k + 1, :k + 1])
            if beta * abs(y[-1, -1]) <= tol or last:
                v = y[:, -1] @ span
                v /= np.linalg.norm(v)
                mv = op.matvec(v)
                lam = float(np.vdot(v, mv).real)
                res = float(np.linalg.norm(mv - lam * v))
                if res <= tol:
                    return lam, v
                if last:
                    raise ConvergenceError(
                        f"Lanczos did not reach residual {tol:.3e} in "
                        f"{k + 1} Krylov vectors", residual=res)
        t[k, k + 1] = t[k + 1, k] = beta
        q = w / beta
