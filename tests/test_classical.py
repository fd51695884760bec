"""Trapping times, energy windows, trajectories, and the sampling oracle."""

from math import pi, sqrt

import numpy as np
import pytest
import scipy.special as sps

from dyncert import classical, models
from dyncert.classical import (EnergyWindow, classical_score_oracle,
                               energy_window, hamiltonian_value,
                               integrate_trajectory, morse_bound_position,
                               pos, trapping_times,
                               trapping_times_quadrature)
from dyncert.errors import (DomainError, EmptyWindowError, LibrationError,
                            UnsupportedTauError)


class TestPos:
    def test_values(self):
        assert np.allclose(pos(np.array([-2.0, 0.0, 3.0])), [0.0, 0.5, 1.0])

    def test_boundary_tolerance(self):
        assert pos(1e-13) == 0.5


class TestTrappingTimes:
    def test_harmonic_half_period(self):
        ts = trapping_times(models.harmonic(), 3.7)
        assert abs(ts.dt_plus - 0.5) < 1e-14
        assert abs(ts.dt_minus - 0.5) < 1e-14

    @pytest.mark.parametrize("alpha,e", [(0.1, 2.0), (-0.05, 3.0)])
    def test_kerr_closed_form(self, alpha, e):
        ts = trapping_times(models.kerr(alpha), e)
        ref = 1.0 / (2.0 * sqrt(1.0 + 2.0 * alpha * e))
        assert abs(ts.dt_plus - ref) < 1e-14
        assert abs(ts.dt_minus - ref) < 1e-14

    def test_pendulum_vs_elliptic(self):
        alpha, e = -0.05, 1.0
        ts = trapping_times(models.pendulum(alpha), e)
        m = (8.0 * abs(alpha) * e + 1.0) / 2.0
        ref = sps.ellipk(m) / pi
        assert abs(ts.dt_plus - ref) < 1e-12
        assert abs(ts.dt_minus - ref) < 1e-12

    def test_pendulum_libration(self):
        with pytest.raises(LibrationError):
            trapping_times(models.pendulum(-0.05), 3.0)

    def test_morse_below_dissociation(self):
        lam = 10.0
        de = lam / 2.0
        ts = trapping_times(models.morse(lam), 0.3 * de)
        r = 0.3
        assert abs(ts.dt_plus
                   - 2.0 * np.arccos(sqrt(r)) / (2 * pi * sqrt(1 - r))) < 1e-12
        assert abs(ts.dt_minus
                   - (2 * pi - 2 * np.arccos(sqrt(r)))
                   / (2 * pi * sqrt(1 - r))) < 1e-12

    def test_morse_above_dissociation_unbounded(self):
        ts = trapping_times(models.morse(10.0), 8.0)
        assert np.isinf(ts.dt_minus)

    def test_well(self):
        ts = trapping_times(models.infinite_well(), 4.0)
        assert abs(ts.dt_plus - 0.25) < 1e-14
        assert abs(ts.dt_minus - 0.25) < 1e-14

    @pytest.mark.parametrize("model,e,mass,potential", [
        (models.harmonic(), 1.3, 1.0, lambda q: 0.5 * q * q),
        (models.kerr(0.1), 2.0, None, None),
        (models.pendulum(-0.05), 0.8, 1.0 / 0.4,
         lambda q: -np.cos(q) / 0.4),
        (models.morse(8.0), 2.5, 8.0,
         lambda q: 4.0 * (1.0 - np.exp(q)) ** 2),
    ])
    def test_quadrature_consistency(self, model, e, mass, potential):
        if potential is None:
            alpha = model.alpha
            h0 = 2.0 * e / (1.0 + sqrt(1.0 + 2.0 * alpha * e))

            def potential(q):
                return 0.5 * q * q * (1.0 + alpha * h0)
            mass = 1.0 / (1.0 + alpha * h0)
        closed = trapping_times(model, e)
        quad = trapping_times_quadrature(potential, e, mass=mass)
        # quadrature works in raw time; closed forms in natural periods
        assert abs(quad.dt_plus / (2 * pi) - closed.dt_plus) < 1e-7
        if np.isfinite(closed.dt_minus):
            assert abs(quad.dt_minus / (2 * pi) - closed.dt_minus) < 1e-7


class TestEnergyWindow:
    def test_rejects_empty(self):
        with pytest.raises(EmptyWindowError):
            EnergyWindow(2.0, 1.0)

    def test_harmonic_tau_range(self):
        with pytest.raises(UnsupportedTauError):
            energy_window(models.harmonic(), 0.5)
        w = energy_window(models.harmonic(), 1.0)
        assert w.e_min == 0.0 and np.isinf(w.e_max)

    def test_well_window(self):
        w = energy_window(models.infinite_well(), 1.0)
        assert abs(w.e_min - 0.5625) < 1e-12
        assert abs(w.e_max - 2.25) < 1e-12

    def test_kerr_window_contains_valid_taus_only(self):
        w = energy_window(models.kerr(0.02), 1.0)
        # every energy in the window satisfies the trapping inequality
        for e in np.linspace(w.e_min + 1e-9, w.e_max - 1e-9, 7):
            ts = trapping_times(models.kerr(0.02), e)
            assert 1.5 * ts.dt_plus <= 1.0 + 1e-9
            assert 1.0 <= 3.0 * ts.dt_minus + 1e-9

    def test_pendulum_window_consistent(self):
        mdl = models.pendulum(-0.05)
        w = energy_window(mdl, 1.0)
        for e in np.linspace(w.e_min + 1e-6, w.e_max - 1e-6, 7):
            ts = trapping_times(mdl, e)
            assert 1.5 * ts.dt_plus <= 1.0 + 1e-9
            assert 1.0 <= 3.0 * ts.dt_minus + 1e-9

    def test_morse_tau_one_only(self):
        w = energy_window(models.morse(10.0), 1.0)
        assert w.e_min == 0.0 and np.isinf(w.e_max)
        with pytest.raises(UnsupportedTauError):
            energy_window(models.morse(10.0), 1.1)


class TestTrajectories:
    def test_harmonic_rotation(self):
        q, p = integrate_trajectory(models.harmonic(), 1.0, 0.0, 0.25)
        assert abs(q) < 1e-12              # quarter period
        q, p = integrate_trajectory(models.harmonic(), 1.0, 0.0, 0.5)
        assert abs(q + 1.0) < 1e-12        # half period

    def test_well_reflection(self):
        mdl = models.infinite_well()
        e = 2.0  # speed 2*sqrt(e); period 2/(2 sqrt e) in t-tilde units
        v = 2.0 * sqrt(e)
        period = 2.0 / v
        q, p = integrate_trajectory(mdl, 0.25, v, period)
        assert abs(q - 0.25) < 1e-12
        assert abs(p - v) < 1e-12

    def test_pendulum_energy_conserved(self):
        mdl = models.pendulum(-0.05)
        q0, p0 = 1.2, 0.3
        e0 = hamiltonian_value(mdl, q0, p0)
        for t in np.linspace(0.1, 2.0, 5):
            q, p = integrate_trajectory(mdl, q0, p0, float(t))
            assert abs(q) <= np.pi + 1e-12
            assert abs(hamiltonian_value(mdl, q, p) - e0) < 1e-8 * abs(e0)

    @pytest.mark.parametrize("mdl,q0,p0", [
        (models.pendulum(-0.05), 1.2, 0.3),
        (models.morse(8.0), 0.3, 0.2),
        (models.kerr(-0.1), 1.0, -0.4),
        (models.infinite_well(), 0.25, 1.7),
    ])
    def test_scalar_is_one_sample_of_the_batch(self, mdl, q0, p0):
        rng = np.random.default_rng(3)
        qs = np.concatenate([rng.uniform(-0.5, 0.5, 4), [q0]])
        ps = np.concatenate([rng.uniform(-1.0, 1.0, 4), [p0]])
        for t in (0.0, 0.4, 1.3):
            (q, p), = classical._flow(mdl, qs, ps, [t])
            assert integrate_trajectory(mdl, q0, p0, t) == (q[-1], p[-1])

    def test_well_rejects_position_outside(self):
        with pytest.raises(DomainError):
            integrate_trajectory(models.infinite_well(), 0.6, 1.0, 0.1)

    def test_morse_matches_closed_form(self):
        mdl = models.morse(8.0)
        e = 2.0
        q0 = morse_bound_position(mdl, e, 0.0)
        for t in np.linspace(0.0, 1.5, 7):
            q, _ = integrate_trajectory(mdl, q0, 0.0, float(t))
            assert abs(q - morse_bound_position(mdl, e, float(t))) < 1e-7


class TestClassicalOracle:
    @pytest.mark.parametrize("mdl,tau", [
        (models.harmonic(), 1.0),
        (models.kerr(-0.1), 1.0),
        (models.pendulum(-0.05), 1.0),
        (models.morse(8.0), 1.0),
        (models.infinite_well(), 0.4),
    ])
    def test_bound_inside_window(self, mdl, tau):
        w = energy_window(mdl, tau)
        p = classical_score_oracle(mdl, w, tau, 20000, seed=1)
        assert p <= 2.0 / 3.0 + 1e-9

    def test_violation_outside_window(self):
        # tau = 3 makes every harmonic trajectory return to its sign
        w = EnergyWindow(0.1, 5.0)
        p = classical_score_oracle(models.harmonic(), w, 3.0, 20000, seed=2)
        assert p == 1.0
