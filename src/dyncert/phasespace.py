"""Wavefunctions in position space: position densities at the probing
times, and Wigner-function grids for visual diagnostics.

Cartesian models get the standard Wigner transform; the pendulum gets a
discrete angular-momentum Wigner kernel whose position and momentum
marginals are exact by construction.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from . import models, spectra
from .errors import DomainError

NORMALIZATION_TOL = 1e-3
WIGNER_Y_POINTS = 1001  # nodes in y >= 0 of the Cartesian Wigner integral
FOURIER_SAMPLES = 2048  # angle samples for a pendulum state's Fourier modes


@dataclass(frozen=True)
class WignerGrid:
    """Real phase-space samples; p_discrete marks integer-momentum axes."""

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray
    p_discrete: bool = False

    def __post_init__(self):
        q = np.asarray(self.q_axis, dtype=float)
        p = np.asarray(self.p_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (q.size, p.size):
            raise DomainError("values must be shaped (len(q), len(p))")
        if not (np.all(np.diff(q) > 0) and np.all(np.diff(p) > 0)):
            raise DomainError("axes must be strictly increasing")
        object.__setattr__(self, "q_axis", q)
        object.__setattr__(self, "p_axis", p)
        object.__setattr__(self, "values", v)
        total = self.integral()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise DomainError(
                f"Wigner grid integrates to {total}, expected 1 within 1e-3; "
                "the axes do not cover the state's phase-space support")

    def integral(self):
        return float(np.trapezoid(self.marginal_q(), self.q_axis))

    def marginal_q(self):
        if self.p_discrete:
            return self.values.sum(axis=1)
        return np.trapezoid(self.values, self.p_axis, axis=1)


def wavefunction(state, pts, k_tau=0.0):
    """psi(q, t) = sum_n c_n e^{-i E_n t} psi_n(q) at the probing time
    t = k tau T/3, given as ``k_tau`` = k tau, at arbitrary points ``pts``
    of any shape (zero outside a box), from one eigenfunction table."""
    phases = np.exp(-1j * np.asarray(state.slice.energies)
                    * k_tau * 2.0 * pi / 3.0)
    table = spectra.eigenfunction_grid(state.slice.model, state.slice.indices,
                                       np.ravel(pts))
    return ((state.amplitudes * phases) @ table).reshape(np.shape(pts))


def marginal_density(state, t_fraction, tau, qs):
    """Position density |<q|psi(k tau T/3)>|^2 at the positions ``qs``."""
    k = {0.0: 0, 1.0 / 3.0: 1, 2.0 / 3.0: 2}.get(float(t_fraction))
    if k is None:
        raise DomainError("t_fraction must be one of 0, 1/3, 2/3")
    if not np.isfinite(tau):
        raise DomainError(f"probing ratio {tau} is not finite")
    return np.abs(wavefunction(state, qs, k * tau)) ** 2


def _span(state):
    return spectra.position_span(state.slice.model, max(state.slice.indices))


def default_axes(state, n_q=201, n_p=201):
    """Axes generously covering the state's phase-space support."""
    model = state.slice.model
    q_axis = np.linspace(*_span(state), n_q)
    e_hi = float(max(state.slice.energies))
    if model.kind == models.WELL:
        n_hi = max(state.slice.indices)
        p_max = n_hi * pi + 1000.0  # box edges give slow 1/p^2 tails
        n_p = max(n_p, 2401)
    elif model.kind == models.MORSE:
        p_max = sqrt(2.0 * model.lambda_morse * max(e_hi, 1.0)) + 10.0
    else:
        p_max = sqrt(2.0 * max(abs(e_hi), 1.0)) + 6.0
    p_axis = np.linspace(-p_max, p_max, n_p)
    return q_axis, p_axis


def wigner_cartesian(state, q_axis, p_axis):
    """W(q, p) = (1/pi) int dy psi*(q+y) psi(q-y) exp(2ipy), hbar = 1. The
    integrand at -y is the conjugate of the one at y, so the trapezoid rule
    runs over y >= 0 (y = 0 counted once) and W is two real products."""
    model = state.slice.model
    if model.kind == models.PENDULUM:
        raise DomainError("pendulum states require the angular Wigner kernel")
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    lo, hi = _span(state)
    ys = np.linspace(0.0, 0.5 * (hi - lo), WIGNER_Y_POINTS)
    plus = wavefunction(state, q_axis[:, None] + ys[None, :])
    corr = np.conj(plus) * wavefunction(state, q_axis[:, None] - ys[None, :])
    weights = np.full((WIGNER_Y_POINTS, 1), 2.0 * (ys[1] - ys[0]))
    weights[0] = weights[-1] = ys[1] - ys[0]
    phase = 2.0 * np.outer(ys, p_axis)
    values = (corr.real @ (weights * np.cos(phase))
              - corr.imag @ (weights * np.sin(phase))) / pi
    return WignerGrid(q_axis, p_axis, values)


def _fourier_modes(state):
    """Integer-harmonic coefficients a_l with psi(phi) = sum a_l e^{il phi}."""
    phis = -pi + 2.0 * pi * np.arange(FOURIER_SAMPLES) / FOURIER_SAMPLES
    psi = wavefunction(state, phis)
    raw = np.fft.fft(psi) / FOURIER_SAMPLES
    ls = np.fft.fftfreq(FOURIER_SAMPLES, d=1.0 / FOURIER_SAMPLES).astype(int)
    coeffs = raw * np.exp(1j * ls * pi)  # undo the -pi grid offset
    keep = np.abs(coeffs) > 1e-13
    return ls[keep], coeffs[keep]


def _m_range(ls):
    return int(ls.min()) - 1, int(ls.max()) + 1


def default_m_range(state):
    """Integer momentum interval carrying all but ~1e-13 of the weight."""
    return _m_range(_fourier_modes(state)[0])


def wigner_angular(state, phi_axis, m_range=None):
    """Discrete-m angular Wigner function of a pendulum state.

    W(phi, m) = (1/2pi) int_{-pi}^{pi} dtheta e^{-im theta}
                psi(phi + theta/2) psi*(phi - theta/2),
    evaluated exactly through the state's integer Fourier modes. Summing
    over all integers m returns |psi(phi)|^2 and integrating over phi
    returns the weight of angular momentum m, both exactly. ``m_range``
    defaults to :func:`default_m_range`, taken from the same modes.
    """
    model = state.slice.model
    if model.kind != models.PENDULUM:
        raise DomainError("angular Wigner kernel applies to pendulum states")
    phi_axis = np.asarray(phi_axis, dtype=float)
    ls, al = _fourier_modes(state)
    m_lo, m_hi = _m_range(ls) if m_range is None else m_range
    ms = np.arange(int(m_lo), int(m_hi) + 1)
    values = _angular_kernel(ls, al, phi_axis, ms)
    return WignerGrid(phi_axis, ms.astype(float), values, p_discrete=True)


def _angular_kernel(ls, al, phi_axis, ms):
    """sum over mode pairs (l1, l2) of Re(a_l1 conj(a_l2) K(l1 + l2 - 2m)
    e^{i(l1 - l2)phi}) / 2pi, with K(s) = 2pi at s = 0 and 4 sin(s pi/2)/s
    elsewhere. Each pair is its own cell (d, s) = (l1 - l2, l1 + l2) of one
    table, which one product with K(s - 2m) and one with e^{i d phi} finish."""
    d_min, s_min = int(ls.min()) - int(ls.max()), 2 * int(ls.min())
    table = np.zeros((1 - 2 * d_min, 1 - 2 * d_min), dtype=complex)
    table[ls[:, None] - ls - d_min, ls[:, None] + ls - s_min] = (
        al[:, None] * np.conj(al))
    s = np.arange(s_min, s_min + len(table))[:, None] - 2 * ms
    k = np.where(s == 0, 2.0 * pi,
                 4.0 * np.sin(np.where(s == 0, 1, s) * pi / 2.0)
                 / np.where(s == 0, 1, s))
    phases = np.exp(1j * np.outer(phi_axis, np.arange(d_min, 1 - d_min)))
    return np.real(phases @ (table @ k)) / (2.0 * pi)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def wigner_to_csv(grid):
    """CSV matrix with the p axis as the header row and q as first column."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["q\\p"] + grid.p_axis.tolist())  # csv writes floats by repr
    for q, row in zip(grid.q_axis.tolist(), grid.values.tolist()):
        writer.writerow([q] + row)
    return buf.getvalue()


def state_hash(state):
    payload = json.dumps({
        "model": state.slice.model.describe(),
        "indices": [int(n) for n in state.slice.indices],
        "amplitudes": [[float(a.real), float(a.imag)]
                       for a in state.amplitudes],
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sidecar_json(state, tau, kind):
    model = state.slice.model
    return json.dumps({
        "model": model.kind,
        "alpha": model.alpha,
        "lambda": model.lambda_morse,
        "tau": tau,
        "kind": kind,
        "state_hash": state_hash(state),
    }, indent=2)
