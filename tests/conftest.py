"""Shared fixtures and independent oracles: overlap and trapping-time
quadratures, a serial golden-section search for the lockstep tau search,
a fine-step trajectory integrator, the position CDF of a state on a grid,
one Mathieu solution at a time from its own basis and the pendulum sgn
block from those values, and per-round reference reductions: Monte Carlo
rounds sampled to a position by inverse CDF, and oracle positions, both
scored by pos(). The classical oracle's direct samplers are checked
against a (q, p) box rejection and the float (q, p) rotation."""

from math import inf, isinf, pi, sqrt

import numpy as np
import pytest

from dyncert import classical, models, protocol, simulate, spectra
from dyncert.classical import TrappingTimes, pos
from dyncert.numerics import quad_inverse_sqrt


@pytest.fixture(scope="session")
def harmonic_slice6():
    return protocol.truncated_slice(models.harmonic(), 6, check=False)


@pytest.fixture(scope="session")
def pendulum_model():
    return models.pendulum(-0.02)


@pytest.fixture(scope="session")
def morse_model():
    return models.morse(8.0)


def full_sgn(model, indices, energies=None):
    """The dense sgn(Q) matrix on ``indices``: for a parity-even model the
    even x odd block of ``sgn_matrix`` is placed with its transpose."""
    indices = np.asarray(indices)
    s = spectra.sgn_matrix(model, indices, energies=energies, check=False)
    return expand_sgn(model, indices, s)


def expand_sgn(model, indices, s):
    """The dense sgn(Q) matrix from the form a slice holds it in."""
    if not model.is_even_potential:
        return np.asarray(s)
    even, odd = spectra.sgn_positions(model, indices)
    full = np.zeros((len(indices), len(indices)))
    full[np.ix_(even, odd)] = s[:]
    full[np.ix_(odd, even)] = s[:].T
    return full


def sgn_overlap_oracle(model, n, m, n_points=300001):
    """High-accuracy <n| sgn(q) |m> by composite quadrature (scipy-free
    trapezoid on a dense grid chosen per model)."""

    def grid(lo, hi, n):
        # keep q = 0 as a knot: sign(q) has a kink there
        n_left = max(int(round(n * (-lo) / (hi - lo))), 2)
        return np.concatenate([np.linspace(lo, 0.0, n_left),
                               np.linspace(0.0, hi, n - n_left + 1)[1:]])

    if model.kind == models.WELL:
        qs = grid(-0.5, 0.5, n_points)
    elif model.kind == models.PENDULUM:
        qs = grid(-np.pi, np.pi, min(n_points, 80001))
    elif model.kind == models.MORSE:
        # weakly bound levels decay slowly to the left: reach x = -40
        qs = grid(-40.0, 5.0, max(n_points, 1000001))
    else:
        qs = grid(-15.0, 15.0, n_points)
    a, b = spectra.eigenfunction_grid(model, [n, m], qs)
    return float(np.trapezoid(np.sign(qs) * a * b, qs))


def mathieu_reference(sol, u, derivative=False):
    """One Mathieu solution, or its derivative, at the points ``u`` from its
    own (points x coefficients) basis and a Kahan loop over its
    coefficients: the per-level evaluation that batched tables must match
    bit for bit."""
    u = np.asarray(u, dtype=float)
    s = (0 if sol.parity == "even" else 2) + 2 * np.arange(len(sol.coeffs))
    phase = np.outer(u, s)
    if not derivative:
        basis = np.cos(phase) if sol.parity == "even" else np.sin(phase)
    elif sol.parity == "even":
        basis = -np.sin(phase) * s
    else:
        basis = np.cos(phase) * s
    total = np.zeros(basis.shape[0])
    comp = np.zeros(basis.shape[0])
    for j in range(len(sol.coeffs)):
        y = basis[:, j] * sol.coeffs[j] - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total.reshape(u.shape)


def pendulum_sgn_reference(model, indices):
    """The pendulum's even x odd sgn block from per-level Wronskians
    4|alpha| W(ce_n, se_m) / (pi (E_n - E_m)) between u = 0 and pi/2."""
    indices = np.asarray(indices)
    es = spectra.pendulum_energy(model, indices)
    sols = spectra._pendulum_solutions(model, int(indices.max()) + 1)[0]
    ends = np.array([0.0, 0.5 * pi])
    even, odd = spectra.sgn_positions(model, indices)
    ce = np.array([mathieu_reference(sols[n], ends) for n in indices[even]])
    se_d = np.array([mathieu_reference(sols[m], ends, derivative=True)
                     for m in indices[odd]])
    w = np.outer(ce[:, 1], se_d[:, 1]) - np.outer(ce[:, 0], se_d[:, 0])
    return 4.0 * abs(model.alpha) * w / (pi * (es[even, None] - es[None, odd]))


# ---------------------------------------------------------------------------
# serial tau search
# ---------------------------------------------------------------------------

def golden_max_reference(f, lo, hi):
    """Golden-section maximization of a scalar f on [lo, hi] to
    protocol.TAU_SEARCH_TOL, one point at a time: the serial search that
    ``protocol.maximize_over_tau`` runs in lockstep over its sub-intervals."""
    golden = protocol._GOLDEN
    a, b = lo, hi
    x1 = b - golden * (b - a)
    x2 = a + golden * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > protocol.TAU_SEARCH_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


# ---------------------------------------------------------------------------
# turning-point quadrature for the closed-form trapping times
# ---------------------------------------------------------------------------

def trapping_times_quadrature(potential, e, mass=1.0, search=(-50.0, 50.0),
                              rel_tol=1e-10):
    """Generic turning-point quadrature for Delta t_+/-.

    ``potential`` maps position to energy (same units as *e*); the result
    is in the same time unit as sqrt(mass * length^2 / energy). Used to
    cross-check the closed forms; accepts any smooth potential with
    turning points inside ``search``.
    """
    lo, hi = search

    def root_between(x0, x1):
        f0, f1 = e - potential(x0), e - potential(x1)
        if f0 == 0.0:
            return x0
        if f1 == 0.0:
            return x1
        if f0 * f1 > 0:
            return None
        for _ in range(200):
            xm = 0.5 * (x0 + x1)
            fm = e - potential(xm)
            if fm == 0.0 or (x1 - x0) < 1e-15 * max(1.0, abs(xm)):
                return xm
            if f0 * fm < 0:
                x1, f1 = xm, fm
            else:
                x0, f0 = xm, fm
        return 0.5 * (x0 + x1)

    # locate q_{-1} (first root below 0) and q_{+1} (first root above 0)
    xs = np.linspace(lo, hi, 4001)
    vals = e - potential(xs)
    q_neg = q_pos = None
    for i in range(len(xs) - 1):
        if xs[i + 1] <= 0 and vals[i] * vals[i + 1] <= 0:
            q_neg = root_between(xs[i], xs[i + 1])  # keep the closest to 0
        if xs[i] >= 0 and vals[i] * vals[i + 1] <= 0 and q_pos is None:
            q_pos = root_between(xs[i], xs[i + 1])

    def dwell_time(a, b):
        # twice the turning-point-to-origin transit: the trajectory enters
        # the half-plane, reaches the turning point, and retraces its path
        f = lambda x: 1.0 / sqrt(max(e - potential(x), 1e-300))
        return 2.0 * sqrt(mass / 2.0) * quad_inverse_sqrt(f, a, b, rel_tol=rel_tol)

    eps = 1e-7

    def slope(x):
        return -(potential(x + eps) - potential(x - eps)) / (2 * eps)

    if q_neg is not None and slope(q_neg) > 0:
        dt_minus = dwell_time(q_neg, 0.0)
    elif q_neg is None and q_pos is not None and slope(q_pos) >= 0:
        dt_minus = 0.0
    else:
        dt_minus = inf
    if q_pos is not None and slope(q_pos) < 0:
        dt_plus = dwell_time(0.0, q_pos)
    elif q_pos is None and q_neg is not None and slope(q_neg) <= 0:
        dt_plus = 0.0
    else:
        dt_plus = inf
    return TrappingTimes(dt_plus, dt_minus)


# ---------------------------------------------------------------------------
# fine-step trajectory reference for the exact pendulum and Morse flows
# ---------------------------------------------------------------------------

_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1
_YOSHIDA_C = np.array([_YOSHIDA_W1 / 2, (_YOSHIDA_W0 + _YOSHIDA_W1) / 2,
                       (_YOSHIDA_W0 + _YOSHIDA_W1) / 2, _YOSHIDA_W1 / 2])
_YOSHIDA_D = np.array([_YOSHIDA_W1, _YOSHIDA_W0, _YOSHIDA_W1])
_YOSHIDA_STEPS_PER_UNIT = 65536  # per time unit 2*pi/omega0


def _yoshida4(q, p, inv_mass, force, s_total, n_steps):
    """Fourth-order symplectic composition for H = p^2/(2m) + V(q)."""
    h = s_total / n_steps
    q = np.array(q, dtype=float, copy=True)
    p = np.array(p, dtype=float, copy=True)
    for _ in range(n_steps):
        q += _YOSHIDA_C[0] * h * inv_mass * p
        for i in range(3):
            p += _YOSHIDA_D[i] * h * force(q)
            q += _YOSHIDA_C[i + 1] * h * inv_mass * p
    return q, p


def _pendulum_force_and_mass(model):
    a = abs(model.alpha)
    return (lambda q: -np.sin(q) / (8.0 * a)), 1.0 / (8.0 * a)


def _morse_force_and_mass(model):
    lam = model.lambda_morse

    def force(q):
        eq = np.exp(q)
        return lam * (1.0 - eq) * eq

    return force, lam


def yoshida_trajectory(model, q0, p0, t):
    """(q, p) of a batch of pendulum or Morse states after time t (units
    2*pi/omega0, either sign) by fine Yoshida steps; pendulum q unwrapped."""
    force, mass = (_pendulum_force_and_mass(model) if model.kind == models.PENDULUM
                   else _morse_force_and_mass(model))
    n = int(np.ceil(_YOSHIDA_STEPS_PER_UNIT * abs(t)))
    return _yoshida4(q0, p0, 1.0 / mass, force, 2.0 * pi * t, n)


# ---------------------------------------------------------------------------
# position-space references for the Monte Carlo rounds
# ---------------------------------------------------------------------------

def span_grid(state, n_points):
    """Evenly spaced positions over the span of the state's levels."""
    return np.linspace(*spectra.position_span(state.slice.model,
                                              max(state.slice.indices)),
                       n_points)


def _grid_cdfs(state, tau, n_points):
    """Positions qs of ``span_grid`` and the trapezoid CDF of the evolved
    density on them at each probing time, checked to cover all but 1e-8
    of the mass."""
    qs = span_grid(state, n_points)
    model = state.slice.model
    table = spectra.eigenfunction_grid(model, state.slice.indices, qs)
    energies = np.asarray(state.slice.energies)
    cdfs = []
    for k in range(3):
        phases = np.exp(-1j * energies * k * tau * 2.0 * pi / 3.0)
        dens = np.abs((state.amplitudes * phases) @ table) ** 2
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(qs))])
        assert cum[-1] >= 1.0 - 1e-8, f"grid covers only {cum[-1]} of the mass"
        cdfs.append(cum / cum[-1])
    return qs, cdfs


def grid_cdf_bounds(state, tau, n_points):
    """(F(-tol), F(tol)) at each probing time, shape (2, 3): the position
    CDF at q = -/+ POS_BOUNDARY_TOL, from eigenfunctions on a grid alone."""
    qs, cdfs = _grid_cdfs(state, tau, n_points)
    tol = classical.POS_BOUNDARY_TOL
    return np.array([[np.interp(q, qs, cdf) for cdf in cdfs]
                     for q in (-tol, tol)])


def cdf_samplers_reference(state, tau, n_points):
    """Inverse-CDF samplers (cdf, qs) at the three probing times, flat CDF
    stretches dropped so the knots increase."""
    qs, cdfs = _grid_cdfs(state, tau, n_points)
    samplers = []
    for cdf in cdfs:
        keep = np.concatenate([[True], np.diff(cdf) > 0])
        samplers.append((cdf[keep], qs[keep]))
    return samplers


def chunk_count_reference(samplers, seed, chunk, m):
    """Rounds of one Monte Carlo chunk that score 1 when every round is
    sampled to a position by np.interp and scored by the float pos()."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, chunk], dtype=np.uint64)))
    ks = rng.integers(0, 3, size=m)
    us = rng.random(size=m)
    scores = np.empty(m)
    for k, (cdf, qs) in enumerate(samplers):
        mask = ks == k
        scores[mask] = pos(np.interp(us[mask], cdf, qs))
    return float(np.sum(scores))


def run_protocol_reference(monkeypatch, samplers, state, tau, n_rounds, seed):
    """``simulate.run_protocol`` with every round sampled to a position."""
    with monkeypatch.context() as mp:
        mp.setattr(simulate, "_chunk_count",
                   lambda probs, seed, chunk, m:
                   chunk_count_reference(samplers, seed, chunk, m))
        return simulate.run_protocol(state, tau, n_rounds, seed)


# ---------------------------------------------------------------------------
# classical oracle references
# ---------------------------------------------------------------------------

def rotation_reference(model, q0, p0, times):
    """Harmonic or Kerr positions q at t = 0 and at each of ``times`` by the
    float (q, p) rotation at omega = 1 + alpha H0."""
    h0 = 0.5 * (q0 * q0 + p0 * p0)
    omega = 1.0 if model.kind == models.HARMONIC else 1.0 + model.alpha * h0
    yield q0
    for t in times:
        phase = 2.0 * pi * omega * t
        yield q0 * np.cos(phase) + p0 * np.sin(phase)


def rejection_states_reference(model, window, n, seed):
    """Energies and positions of n harmonic, Kerr or well states drawn
    uniformly from a bounding (q, p) box and kept when their energy lies in
    the window, capped at ENERGY_CAP when unbounded (and Kerr alpha < 0
    actions at 1/|alpha|)."""
    e_hi = classical.ENERGY_CAP if isinf(window.e_max) else window.e_max
    alpha = model.alpha or 0.0
    if model.kind == models.WELL:
        q_max, p_max = 0.5, 2.0 * sqrt(e_hi)
    else:
        h_max = 2.0 * e_hi / (1.0 + sqrt(max(1.0 + 2.0 * alpha * e_hi, 0.0)))
        q_max = p_max = sqrt(2.0 * h_max)
    rng = np.random.default_rng(seed)
    energies, positions = [], []
    while sum(map(len, positions)) < n:
        q = rng.uniform(-q_max, q_max, n)
        p = rng.uniform(-p_max, p_max, n)
        h0 = 0.5 * (q * q + p * p)
        e = (0.25 * p * p if model.kind == models.WELL
             else h0 + 0.5 * alpha * h0 * h0)
        keep = (e >= window.e_min) & (e <= e_hi)
        if alpha < 0.0:
            keep &= h0 <= 1.0 / abs(alpha)
        energies.append(e[keep])
        positions.append(q[keep])
    return np.concatenate(energies)[:n], np.concatenate(positions)[:n]


def recorded_oracle(monkeypatch, model, window, tau, n_samples, seed,
                    batch_size=100_000):
    """The oracle's value and, per batch, the flow it called, the states it
    drew (action and angle, or position and momentum) and the positions it
    read at t = 0, tau/3 and 2 tau/3. The oracle reuses its buffers from
    batch to batch, so each batch's states and rows are copied."""
    batches = []

    def recording(name, flow):
        def recorded(model, a, b, times, out):
            states = np.array(a, dtype=float), np.array(b, dtype=float)
            flow(model, a, b, times, out)
            batches.append((name, *states, [row.copy() for row in out]))
            return out
        return recorded

    with monkeypatch.context() as mp:
        for name in ("_rotation_flow", "_flow"):
            mp.setattr(classical, name, recording(name, getattr(classical, name)))
        value = classical.classical_score_oracle(model, window, tau, n_samples,
                                                 seed, batch_size=batch_size)
    return value, batches


def oracle_states(monkeypatch, model, window, tau, n_samples, seed):
    """Energies and initial positions of the states the oracle drew."""
    _, batches = recorded_oracle(monkeypatch, model, window, tau, n_samples,
                                 seed)
    energies, positions = [], []
    for name, a, b, _ in batches:
        if name == "_rotation_flow":
            energies.append(a + 0.5 * (model.alpha or 0.0) * a * a)
            positions.append(np.sqrt(2.0 * a) * np.cos(2.0 * pi * b))
        else:
            energies.append(0.25 * b * b)  # the well: b is the velocity
            positions.append(a)
    return np.concatenate(energies), np.concatenate(positions)


def oracle_with_reference(monkeypatch, model, window, tau, n_samples, seed,
                          batch_size=100_000):
    """The oracle's value and, per sample, the float-pos reduction
    [pos(q(0)) + pos(q(tau/3)) + pos(q(2tau/3))]/3 of the positions the
    oracle read and of reference positions of the same states. For harmonic
    and Kerr the reference maps each (H0, theta) back to (q0, p0) and moves
    it by ``rotation_reference``; other models are their own reference."""
    value, batches = recorded_oracle(monkeypatch, model, window, tau,
                                     n_samples, seed, batch_size)
    times = [tau / 3.0, 2.0 * tau / 3.0]
    scores, ref_scores = [], []
    for name, a, b, positions in batches:
        ref = positions
        if name == "_rotation_flow":
            r = np.sqrt(2.0 * a)
            ref = rotation_reference(model, r * np.cos(2.0 * pi * b),
                                     r * np.sin(2.0 * pi * b), times)
        scores.append(sum(pos(q) for q in positions) / 3.0)
        ref_scores.append(sum(pos(q) for q in ref) / 3.0)
    return value, np.concatenate(scores), np.concatenate(ref_scores)
