"""Special functions, singular quadrature, and the Hermitian eigensolver.

Everything here is implemented at double precision on top of elementary
functions (plus ``math.lgamma``), so results are reproducible across
platforms and can be checked against independent oracles.
"""

from dataclasses import dataclass
from math import lgamma, log, exp, pi, sqrt, isfinite, inf

import numpy as np

from .errors import ConvergenceError, DomainError


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealGrid:
    """Real samples aligned to strictly increasing abscissae."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if points.ndim != 1 or values.shape != points.shape:
            raise DomainError("points and values must be 1-d and the same length")
        if not np.all(np.diff(points) > 0):
            raise DomainError("grid points must be strictly increasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)

    def integral(self):
        return float(np.trapezoid(self.values, self.points))


HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense Hermitian matrix with its invariants checked at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DomainError("entries must be a nonempty square matrix")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL * scale:
            raise DomainError("matrix is not Hermitian to within 1e-12")
        if np.max(np.abs(np.diag(m).imag)) > HERMITICITY_TOL * scale:
            raise DomainError("diagonal has imaginary parts above 1e-12")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self):
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# complete elliptic integral of the first kind
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


def elliptic_K_inverse(k, tol=1e-13):
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
        if hi - lo <= tol * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# regularized upper incomplete gamma function
# ---------------------------------------------------------------------------

def regularized_gamma_Q(a, x):
    """Q(a, x) = Gamma(a, x)/Gamma(a), for a > 0, x >= 0.

    Series for the lower function when x < a + 1, Lentz continued fraction
    for the upper function otherwise (the classic split, accurate to
    ~1e-14 absolute across the domain).
    """
    if a <= 0:
        raise DomainError(f"regularized_gamma_Q requires a > 0, got a={a}")
    if x < 0:
        raise DomainError(f"regularized_gamma_Q requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        # lower series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a)_{n+1}
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(10000):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        else:
            raise ConvergenceError("regularized_gamma_Q series did not converge")
        p = total * exp(-x + a * log(x) - lgamma(a))
        return 1.0 - p
    # Lentz's method on the continued fraction for Gamma(a,x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise ConvergenceError("regularized_gamma_Q continued fraction did not converge")
    return h * exp(-x + a * log(x) - lgamma(a))


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
    """One pi-normalized Mathieu function ce_n or se_n.

    ``coeffs[j]`` multiplies cos(stride(j) u) or sin(stride(j) u) where the
    harmonic stride(j) runs over the symmetry class of the order:
    2j (ce even), 2j+1 (ce/se odd), 2j+2 (se even). Normalization is the
    standard int_0^{2pi} f^2 du = pi.
    """

    order: int
    parity: str  # "even" -> ce, "odd" -> se
    char_value: float
    coeffs: np.ndarray

    def _strides(self):
        if self.parity == "even":
            base = 0 if self.order % 2 == 0 else 1
        else:
            base = 2 if self.order % 2 == 0 else 1
        return base + 2 * np.arange(len(self.coeffs))

    def value(self, u):
        """f(u); a scalar for scalar u, else an array shaped like u."""
        u = np.asarray(u, dtype=float)
        s = self._strides()
        phase = np.outer(u, s)
        basis = np.cos(phase) if self.parity == "even" else np.sin(phase)
        return _shaped(_compensated_dot(basis, self.coeffs), u.shape)

    def derivative(self, u):
        """f'(u); a scalar for scalar u, else an array shaped like u."""
        u = np.asarray(u, dtype=float)
        s = self._strides()
        if self.parity == "even":
            basis = -np.sin(np.outer(u, s)) * s
        else:
            basis = np.cos(np.outer(u, s)) * s
        return _shaped(_compensated_dot(basis, self.coeffs), u.shape)


def _shaped(flat, shape):
    return float(flat[0]) if shape == () else flat.reshape(shape)


def _compensated_dot(basis, coeffs):
    """Row-wise dot products with Kahan-compensated accumulation.

    Keeps large-|q| coefficient cancellations under control without
    resorting to arbitrary precision.
    """
    total = np.zeros(basis.shape[0])
    comp = np.zeros(basis.shape[0])
    for j in range(len(coeffs)):
        term = basis[:, j] * coeffs[j]
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _mathieu_tridiag(q_param, parity, even_order, size):
    """Symmetric matrix whose eigenvalues are the characteristic values."""
    m = np.zeros((size, size))
    if parity == "even" and even_order:
        d = (2.0 * np.arange(size)) ** 2
        np.fill_diagonal(m, d)
        m[0, 1] = m[1, 0] = sqrt(2.0) * q_param
        for j in range(1, size - 1):
            m[j, j + 1] = m[j + 1, j] = q_param
    else:
        if parity == "even":          # ce odd orders
            d = (2.0 * np.arange(size) + 1.0) ** 2
            d0_shift = q_param
        elif even_order:              # se even orders
            d = (2.0 * np.arange(size) + 2.0) ** 2
            d0_shift = 0.0
        else:                         # se odd orders
            d = (2.0 * np.arange(size) + 1.0) ** 2
            d0_shift = -q_param
        np.fill_diagonal(m, d)
        m[0, 0] += d0_shift
        for j in range(size - 1):
            m[j, j + 1] = m[j + 1, j] = q_param
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


def mathieu_eigensystem(q_param, n_max):
    """2pi-periodic-in-phi Mathieu solutions ce_0..ce_{n_max}, se_1..se_{n_max+1}.

    Returned list is ordered ce_0, se_1, ce_1, se_2, ... with each entry a
    :class:`MathieuSolution`. The Fourier truncation grows until the last
    retained coefficient of every requested solution is below 1e-14 of its
    largest one.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if not isfinite(q_param):
        raise DomainError("q_param must be finite")

    n_ce = n_max + 1
    n_se = n_max + 1  # se_1 .. se_{n_max+1}
    size = max(16, int(2.2 * sqrt(abs(q_param))) + n_max + 16)
    while True:
        if size > MAX_FOURIER_SIZE:
            raise ConvergenceError(
                f"Mathieu truncation exceeded ceiling {MAX_FOURIER_SIZE}")
        sols = {}
        ok = True
        classes = [
            ("even", True, [n for n in range(0, n_ce) if n % 2 == 0]),
            ("even", False, [n for n in range(0, n_ce) if n % 2 == 1]),
            ("odd", False, [n for n in range(1, n_se + 1) if n % 2 == 1]),
            ("odd", True, [n for n in range(1, n_se + 1) if n % 2 == 0]),
        ]
        for parity, even_order, orders in classes:
            if not orders:
                continue
            m = _mathieu_tridiag(q_param, parity, even_order, size)
            w, v = np.linalg.eigh(m)
            for n in orders:
                idx = n // 2 if (parity == "even" and even_order) else \
                    (n - 1) // 2 if parity == "even" else \
                    (n - 1) // 2 if not even_order else n // 2 - 1
                vec = v[:, idx].copy()
                if parity == "even" and even_order:
                    vec[0] /= sqrt(2.0)  # undo symmetrization; 2A0^2+sum=1
                if abs(vec[-1]) > TAIL_TOL * np.max(np.abs(vec)):
                    ok = False
                    break
                sol = MathieuSolution(n, parity, float(w[idx]), vec)
                vec = _fix_sign(parity, vec, sol._strides())
                sols[(parity, n)] = MathieuSolution(n, parity, float(w[idx]), vec)
            if not ok:
                break
        if ok:
            break
        size *= 2

    out = []
    for n in range(0, n_max + 1):
        out.append(sols[("even", n)])
        out.append(sols[("odd", n + 1)])
    return out


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
# largest eigenpair of a Hermitian matrix / operator
# ---------------------------------------------------------------------------

# Dense eigh up to this dimension, Lanczos above it. One BLAS thread, tau
# in {0.8, 1, 1.2}: Lanczos wins from dim ~100 on harmonic and Kerr
# truncations and from ~130 on the well at tau = 1 (a well at tau = 0.8,
# with its clustered top, needs 100+ Krylov vectors and favours eigh).
DENSE_EIG_LIMIT = 128


class HermitianOperator:
    """Matrix-free Hermitian operator: a dimension plus a matvec.

    ``norm_bound`` is any upper bound on the spectral norm; it sets the
    residual target of :func:`hermitian_max_eigenpair`. No sign or
    ordering of the spectrum is assumed.
    """

    def __init__(self, dim, matvec, norm_bound):
        self.dim = dim
        self.matvec = matvec
        self.norm_bound = float(norm_bound)


def hermitian_max_eigenpair(m, max_krylov=300, seed=0):
    """Largest eigenvalue and unit eigenvector.

    Dense decomposition for a matrix of dim <= DENSE_EIG_LIMIT. Above it,
    and for any :class:`HermitianOperator`, Lanczos from a seeded random
    start vector: each new Krylov vector is orthogonalised twice against
    the whole basis, so the residual estimate |beta_k y_k| of the top Ritz
    pair can be trusted, and an invariant subspace (beta_k = 0) simply ends
    the recurrence. The pair is returned once one explicit matvec confirms
    ||Mv - lam v|| <= 1e-10 ||M||, with ||M|| the operator's
    ``norm_bound`` (Frobenius norm for a matrix); a Krylov space of
    ``max_krylov`` vectors that falls short raises
    :class:`ConvergenceError` with the residual reached.
    """
    if not isinstance(m, HermitianOperator):
        mat = m.entries if isinstance(m, HermitianMatrix) else \
            HermitianMatrix(np.asarray(m)).entries
        if mat.shape[0] <= DENSE_EIG_LIMIT:
            w, v = np.linalg.eigh(mat)
            return float(w[-1]), v[:, -1]
        m = HermitianOperator(mat.shape[0], lambda x: mat @ x,
                              np.linalg.norm(mat, ord="fro"))

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(m.dim) + 1j * rng.standard_normal(m.dim)
    q /= np.linalg.norm(q)
    tol = 1e-10 * m.norm_bound
    size = min(m.dim, max_krylov)
    basis = np.empty((size, m.dim), dtype=complex)
    t = np.zeros((size, size))  # the tridiagonal projection
    for k in range(size):
        basis[k] = q
        w = m.matvec(q)
        t[k, k] = np.vdot(q, w).real
        span = basis[:k + 1]
        for _ in range(2):
            w = w - (span @ w.conj()).conj() @ span
        beta = float(np.linalg.norm(w))
        _, y = np.linalg.eigh(t[:k + 1, :k + 1])
        last = k + 1 == size or beta == 0.0
        if beta * abs(y[-1, -1]) <= tol or last:
            v = y[:, -1] @ span
            v /= np.linalg.norm(v)
            mv = m.matvec(v)
            lam = float(np.vdot(v, mv).real)
            res = float(np.linalg.norm(mv - lam * v))
            if res <= tol:
                return lam, v
            if last:
                raise ConvergenceError(
                    f"Lanczos did not reach residual {tol:.3e} in {k + 1} "
                    "Krylov vectors", residual=res)
        t[k, k + 1] = t[k + 1, k] = beta
        q = w / beta
