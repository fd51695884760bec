"""Classical side of the protocol: trapping times, energy windows, exact
trajectory positions, and a sampling oracle for the classical score bound 2/3.

Times are in units of 2*pi/omega0 and energies in hbar*omega0 throughout.
"""

from dataclasses import dataclass
from math import pi, sqrt, acos, acosh, ceil, inf, isfinite, isinf

import numpy as np

from . import models
from .errors import (DomainError, EmptyWindowError, LibrationError,
                     NumericalInstabilityError, UnsupportedTauError,
                     check_integer)
from .numerics import elliptic_K, elliptic_K_inverse, jacobi_sn_cn_dn
from .numerics import quad_inverse_sqrt  # noqa: F401  perfbench traces it here

POS_BOUNDARY_TOL = 1e-12


def pos(q):
    """pos(q) = [1 + sgn(q)]/2 with the sgn(0) = 0 convention."""
    q = np.asarray(q, dtype=float)
    out = np.where(q > POS_BOUNDARY_TOL, 1.0,
                   np.where(q < -POS_BOUNDARY_TOL, 0.0, 0.5))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TrappingTimes:
    """Longest contiguous time with q >= 0 and shortest with q < 0.

    Infinite values are represented by ``math.inf`` explicitly.
    """

    dt_plus: float
    dt_minus: float

    def __post_init__(self):
        for v in (self.dt_plus, self.dt_minus):
            if not (v >= 0.0):
                raise DomainError("trapping times must be nonnegative")


@dataclass(frozen=True)
class EnergyWindow:
    e_min: float
    e_max: float

    def __post_init__(self):
        if not self.e_min <= self.e_max:
            raise EmptyWindowError(
                f"empty window: e_min={self.e_min} > e_max={self.e_max}")


# ---------------------------------------------------------------------------
# trapping times
# ---------------------------------------------------------------------------

def trapping_times(model, e):
    """Delta t_+/-(E) from the model's closed form."""
    kind = model.kind
    if kind == models.HARMONIC:
        if e <= 0:
            raise DomainError("harmonic trajectories require E > 0")
        return TrappingTimes(0.5, 0.5)

    if kind == models.KERR:
        lo, hi = model.energy_range()
        if not lo <= e <= hi:
            raise DomainError(f"Kerr energy {e} outside [{lo}, {hi}]")
        disc = 1.0 + 2.0 * model.alpha * e
        if disc <= 0.0:
            return TrappingTimes(inf, inf)
        half = 0.5 / sqrt(disc)
        return TrappingTimes(half, half)

    if kind == models.PENDULUM:
        a = abs(model.alpha)
        s = 8.0 * a * e
        if s < -1.0:
            raise DomainError("pendulum energy below the potential minimum")
        if s >= 1.0:
            raise LibrationError(
                "librating pendulum trajectories are excluded from the protocol")
        half = elliptic_K(0.5 * (s + 1.0)) / pi
        return TrappingTimes(half, half)

    if kind == models.MORSE:
        if e < 0:
            raise DomainError("Morse energies are nonnegative")
        de = models.morse_dissociation_energy(model)
        r = e / de
        if r < 1.0:
            root = sqrt(1.0 - r)
            dt_plus = 2.0 * acos(sqrt(r)) / (2.0 * pi * root)
            dt_minus = (2.0 * pi - 2.0 * acos(sqrt(r))) / (2.0 * pi * root)
        elif r == 1.0:
            dt_plus = 2.0 / (2.0 * pi)
            dt_minus = inf
        else:
            dt_plus = 2.0 * acosh(sqrt(r)) / (2.0 * pi * sqrt(r - 1.0))
            dt_minus = inf
        return TrappingTimes(dt_plus, dt_minus)

    # infinite well
    if e <= 0:
        raise DomainError("well trajectories require E > 0")
    half = 0.5 / sqrt(e)
    return TrappingTimes(half, half)


# ---------------------------------------------------------------------------
# energy windows
# ---------------------------------------------------------------------------

TAU_LO, TAU_HI = 0.75, 1.5


def _check_tau_range(tau):
    if not TAU_LO <= tau <= TAU_HI:
        raise UnsupportedTauError(
            f"probing ratio {tau} outside admissible range [{TAU_LO}, {TAU_HI}]")


def energy_window(model, tau):
    """Widest [e_min, e_max] keeping the classical bound at 2/3 for tau."""
    kind = model.kind
    if kind == models.HARMONIC:
        _check_tau_range(tau)
        return EnergyWindow(0.0, inf)

    if kind == models.KERR:
        _check_tau_range(tau)
        alpha = model.alpha
        if alpha == 0.0:
            return EnergyWindow(0.0, inf)
        lo_expr = 9.0 / (16.0 * tau * tau) - 1.0
        hi_expr = 9.0 / (4.0 * tau * tau) - 1.0
        if alpha > 0:
            e_min = lo_expr / (2.0 * alpha)
            e_max = hi_expr / (2.0 * alpha)
        else:
            e_min = hi_expr / (2.0 * alpha)
            e_max = lo_expr / (2.0 * alpha)
        rng_lo, rng_hi = model.energy_range()
        e_min = max(e_min, rng_lo)
        e_max = min(e_max, rng_hi)
        if e_min > e_max:
            raise EmptyWindowError(f"Kerr window empty at tau={tau}, alpha={alpha}")
        return EnergyWindow(e_min, e_max)

    if kind == models.PENDULUM:
        _check_tau_range(tau)
        a = abs(model.alpha)
        k_lo = pi * tau / 3.0
        k_hi = 2.0 * pi * tau / 3.0
        m_min = elliptic_K_inverse(k_lo) if k_lo > pi / 2 else 0.0
        m_max = elliptic_K_inverse(k_hi)
        e_min = (2.0 * m_min - 1.0) / (8.0 * a)
        e_max = (2.0 * m_max - 1.0) / (8.0 * a)
        if e_min > e_max:
            raise EmptyWindowError(f"pendulum window empty at tau={tau}")
        return EnergyWindow(e_min, e_max)

    if kind == models.MORSE:
        if not abs(tau - 1.0) <= 1e-12:
            raise UnsupportedTauError(
                "the Morse protocol runs at tau = 1 only (harmonic trapping times)")
        return EnergyWindow(0.0, inf)

    # infinite well
    if not 0.0 < tau < inf:
        raise UnsupportedTauError("well probing ratio must be positive and finite")
    return EnergyWindow(9.0 / (16.0 * tau * tau), 9.0 / (4.0 * tau * tau))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------
#
# Phase-space conventions (position q, reduced momentum p):
#   harmonic/Kerr : q + ip = sqrt(2 H0) e^(2 pi i theta) in sqrt(hbar/m omega0)
#                   units, theta in turns, eps = H0 (+ alpha H0^2/2 Kerr term)
#   pendulum      : q = phi in (-pi, pi], p = l/hbar, eps = 4|a|p^2 - cos(q)/(8|a|)
#   Morse         : q = c x, p scaled so eps = p^2/(2 lambda) + (lambda/2)(1-e^q)^2
#   well          : q in L units in [-1/2, 1/2], p = velocity dq/dt, eps = (p/2)^2
# Each pair is canonical up to a constant rescaling of p, and dq dp =
# 2 pi dH0 dtheta, so uniform sampling in (q, p) or (H0, theta) is uniform
# in canonical phase-space area. Every model's flow is closed form; in the
# raw time s = 2*pi*t (a prime is d/ds):
#   harmonic/Kerr : theta turns at omega = 1 + alpha H0 (harmonic: alpha = 0)
#   pendulum : q'' = -sin q with q' = 8|a|p; sin(q/2) = k sn(u0 + s | m) for
#              m = k^2 = sin^2(q0/2) + (q0'/2)^2 < 1, expanded by the
#              addition theorem so sn, cn, dn are taken at (s | m) alone
#   Morse    : y = e^-q obeys the linear y'' = (r - 1) y + 1 with
#              r = E/De = (p/lambda)^2 + (1 - e^q)^2, so y = y0 C + y0' S + D
#              on bound (r < 1), threshold (r = 1) and open (r > 1) orbits


def _pendulum_flow(model, q0, p0, times, out):
    a = abs(model.alpha)
    sin0, cos0 = np.sin(0.5 * q0), np.cos(0.5 * q0)
    v0 = 4.0 * a * p0  # q0'/2
    m = sin0 * sin0 + v0 * v0
    if not np.all(m < 1.0):
        raise LibrationError(
            "pendulum states at or past the separatrix have no trapped flow")
    s = 2.0 * pi * np.asarray(times, dtype=float)
    sn, cn, dn = jacobi_sn_cn_dn(s.reshape(-1, 1), m)  # one row per time
    den = 1.0 - (sin0 * sn) ** 2
    sin_half = (sin0 * cn * dn + v0 * cos0 * sn) / den
    cos_half = (cos0 * dn - sin0 * v0 * sn * cn) / den
    np.multiply(2.0, np.arctan2(sin_half, cos_half), out=out)


def _morse_flow(model, q0, p0, times, out):
    lam = model.lambda_morse
    y0 = np.exp(-q0)
    dy0 = -p0 / lam * y0  # y' = -q' y with q' = p/lambda
    w2 = 1.0 - (p0 / lam) ** 2 - (1.0 - np.exp(q0)) ** 2  # omega^2 = 1 - E/De
    w = np.sqrt(np.abs(w2))
    bound, still = w2 > 0.0, w == 0.0
    for row, t in zip(out, times):
        half = pi * t * w  # omega s / 2
        # h = sin(omega s/2)/omega (sinh when open, s/2 at omega = 0) gives
        # S = sin(omega s)/omega = 2 h cos(omega s/2), D = 2 h^2, C = 1 - omega^2 D
        h = np.where(still, pi * t, np.where(bound, np.sin(half), np.sinh(half))
                     / np.where(still, 1.0, w))
        sc = 2.0 * h * np.where(bound, np.cos(half), np.cosh(half))
        d = 2.0 * h * h
        c = 1.0 - w2 * d
        np.negative(np.log(y0 * c + dy0 * sc + d), out=row)


def _rotation_flow(model, h0, theta, times, out=None):
    """Fill ``out`` (default: a new array), a row at t = 0 and at each of
    ``times``, with a signed distance d for harmonic or Kerr states of
    action h0 and angle theta: with y = frac(theta - omega t), q(t) =
    r cos(2 pi y) for r = sqrt(2 h0), and d = 2 pi r (|y - 1/2| - 1/4) has
    its sign and equals it to first order where it vanishes."""
    out = np.empty((1 + len(times), len(h0))) if out is None else out
    scale, whole = 2.0 * pi * np.sqrt(2.0 * h0), np.empty_like(h0)
    omega = 1.0 + model.alpha * h0 if model.alpha else 1.0  # harmonic: None
    for y, t in zip(out, (0.0, *times)):
        np.subtract(theta, omega * t, out=y)
        y -= np.floor(y, out=whole)
        np.abs(np.subtract(y, 0.5, out=y), out=y)
        np.multiply(np.subtract(y, 0.25, out=y), scale, out=y)
    return out


def _flow(model, q0, p0, times, out=None):
    """Fill ``out`` (default: a new array), a row at t = 0 and at each of
    ``times``, with the exact positions q of well, pendulum or Morse initial
    states: the well reflects off its walls (L = 1), the pendulum and Morse
    follow the closed forms above, and pendulum states at or past the
    separatrix raise ``LibrationError``. p is not evolved."""
    out = np.empty((1 + len(times), len(q0))) if out is None else out
    out[0] = q0
    if model.kind != models.WELL:
        (_pendulum_flow if model.kind == models.PENDULUM
         else _morse_flow)(model, q0, p0, times, out[1:])
        return out
    if not np.all((q0 >= -0.5) & (q0 <= 0.5)):
        raise DomainError("well position outside [-1/2, 1/2]")
    for y, t in zip(out[1:], times):
        # y = x mod 2 as x - 2 floor(x/2), rounded once as by np.mod; then
        # min(y - 1/2, 3/2 - y) is exactly y - 1/2 for y <= 1, 3/2 - y above
        np.add(q0, p0 * t, out=y)
        y += 0.5
        y -= 2.0 * np.floor(0.5 * y)
        np.minimum(y - 0.5, 1.5 - y, out=y)
    return out


# ---------------------------------------------------------------------------
# classical score oracle
# ---------------------------------------------------------------------------

ENERGY_CAP = 50.0  # finite sampling cap when the window is unbounded above
DIRECT_BATCH = 1 << 13  # caps batch_size for direct draws: arrays stay in cache


def _direct_sampler(model, window, rng, times):
    """draw(out): fill the (3, n) array ``out``, n <= DIRECT_BATCH, with the
    positions at t = 0 and at each of ``times`` of n states drawn uniformly
    in phase-space area inside the window, from one ``rng.random`` fill of
    a reused buffer mapped in place: the doubles of two ``uniform`` calls."""
    e_lo, e_hi = model.energy_range()
    e_lo = min(max(window.e_min, e_lo), e_hi)
    e_hi = max(min(ENERGY_CAP if isinf(window.e_max) else window.e_max, e_hi), e_lo)
    raw = np.empty(2 * DIRECT_BATCH)
    if model.kind == models.WELL:
        lo, hi = 2.0 * sqrt(e_lo), 2.0 * sqrt(e_hi)

        def draw(out):
            q, w = rng.random(out=raw[:2 * out.shape[1]]).reshape(2, -1)
            q -= 0.5  # uniform(-1/2, 1/2)
            w *= 2.0
            w -= 1.0  # uniform(-1, 1): sgn v and |v| from one draw
            return _flow(model, q, np.copysign(lo, w) + (hi - lo) * w, times, out)
    else:
        alpha = model.alpha or 0.0  # harmonic: None
        # the edges' actions; the Kerr alpha < 0 energy range caps them at 1/|alpha|
        lo, hi = (2.0 * e / (1.0 + sqrt(max(1.0 + 2.0 * alpha * e, 0.0)))
                  for e in (e_lo, e_hi))

        def draw(out):  # uniform(lo, hi), then random
            h0, theta = rng.random(out=raw[:2 * out.shape[1]]).reshape(2, -1)
            h0 *= hi - lo
            h0 += lo
            return _rotation_flow(model, h0, theta, times, out)
    if not lo < hi:
        raise EmptyWindowError(f"no phase-space area in {window} below the cap")
    return draw


def _rejection_sampler(model, window, rng, times):
    """``_direct_sampler``'s draw(out) for the pendulum and Morse: oversample
    a (q, p) box covering the window, reject, and top up from the stream."""
    if model.kind == models.PENDULUM:
        a = abs(model.alpha)
        e_hi = ENERGY_CAP if isinf(window.e_max) else window.e_max
        q_lo, q_hi = -pi, pi
        p_max = sqrt(max(e_hi + 1.0 / (8.0 * a), 0.0) / (4.0 * a))

        def energy(q, p):
            return 4.0 * a * p * p - np.cos(q) / (8.0 * a)
    else:
        lam, de = model.lambda_morse, models.morse_dissociation_energy(model)
        e_hi = min(window.e_max, 2.0 * de)
        # q_hi solves V = e_hi on the steep side; open side capped at q = -10
        q_lo, q_hi = -10.0, np.log(1.0 + sqrt(min(e_hi / de, 4.0)))
        p_max = sqrt(2.0 * lam * e_hi)

        def energy(q, p):
            return p * p / (2.0 * lam) + 0.5 * lam * (1.0 - np.exp(q)) ** 2

    def draw(out):
        n = out.shape[1]
        qs, ps, have, drawn, size = [], [], 0, 0, 2 * n
        while have < n:
            q = rng.uniform(q_lo, q_hi, size=size)
            p = rng.uniform(-p_max, p_max, size=size)
            e = energy(q, p)
            keep = (e >= window.e_min) & (e <= e_hi)
            if not keep.any() and size == 2 * n:
                raise EmptyWindowError(f"no phase-space area found in {window}")
            qs.append(q[keep])
            ps.append(p[keep])
            have, drawn = have + len(qs[-1]), drawn + size
            # top up with twice the draws the acceptance so far predicts
            size = min(2 * n, 2 * ceil((n - have) * drawn / have))
        if len(qs) > 1:  # a single draw is returned uncopied
            qs, ps = [np.concatenate(qs)], [np.concatenate(ps)]
        return _flow(model, qs[0][:n], ps[0][:n], times, out)
    return draw


def classical_score_oracle(model, window, tau, n_samples, seed,
                           batch_size=100_000):
    """Maximum P3 over classical states drawn uniformly in phase-space area
    inside the window, its top capped at 2 De for Morse and at ``ENERGY_CAP``
    if unbounded: directly in action and angle for harmonic and Kerr and in
    position and speed for the well, by rejection from a (q, p) box for the
    pendulum and Morse. A state scores the mean of pos(q) at t = 0, tau/3 and
    2 tau/3 on its exact trajectory: each batch's flow fills one (3, n) array
    held by the call (concurrent calls share none), read in one pass as int8
    half-counts 2 pos(q). Deterministic given *seed*, which seeds an SFC64
    stream through numpy's SeedSequence."""
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0)
    check_integer("batch_size", batch_size, 1)
    if not isfinite(tau):
        raise DomainError(f"probing ratio {tau} is not finite")
    rng = np.random.Generator(np.random.SFC64(seed))
    rejection = model.kind in (models.PENDULUM, models.MORSE)
    draw = (_rejection_sampler if rejection else _direct_sampler)(
        model, window, rng, [tau / 3.0, 2.0 * tau / 3.0])
    step = min(batch_size, n_samples, batch_size if rejection else DIRECT_BATCH)
    buffers = [np.empty((3, step), dtype=t) for t in (float, np.int8, bool)]
    best = 0.0
    for start in range(0, n_samples, step):
        q, halves, flags = (b[:, :min(step, n_samples - start)] for b in buffers)
        draw(q)
        if not np.isfinite(q, out=flags).all():
            raise NumericalInstabilityError("non-finite classical trajectory")
        np.greater(q, POS_BOUNDARY_TOL, out=halves.view(bool))
        halves += np.greater_equal(q, -POS_BOUNDARY_TOL, out=flags)  # 2 pos(q)
        best = max(best, int((halves[0] + halves[1] + halves[2]).max()) / 6.0)
    return best
