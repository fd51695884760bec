"""Trapping times, energy windows, trajectories, and the sampling oracle."""

from math import pi, sqrt

import numpy as np
import pytest
import scipy.special as sps

from dyncert import classical, models
from dyncert.classical import (EnergyWindow, classical_score_oracle,
                               energy_window, pos, trapping_times)
from dyncert.errors import (DomainError, EmptyWindowError, LibrationError,
                            NumericalInstabilityError, UnsupportedTauError)
from conftest import (oracle_with_reference, trapping_times_quadrature,
                      yoshida_trajectory)


def morse_bound_position(model, e, t):
    """Closed-form bound Morse trajectory from the inner turning point
    (p(0) = 0 on the positive-q side) at energy 0 <= e < De."""
    r = e / models.morse_dissociation_energy(model)
    period = 1.0 / sqrt(1.0 - r)
    return float(np.log((1.0 - r) / (1.0 - sqrt(r) * np.cos(2.0 * pi * t / period))))


def position(model, q0, p0, t):
    """q after time t (units 2*pi/omega0): a one-sample ``_flow`` call."""
    (q,), = classical._flow(model, q0, p0, [t])
    return float(q)


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

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    @pytest.mark.parametrize("mdl", [models.morse(10.0),
                                     models.infinite_well()],
                             ids=["morse", "well"])
    def test_non_finite_tau_rejected(self, mdl, tau):
        with pytest.raises(UnsupportedTauError):
            energy_window(mdl, tau)


class TestTrajectories:
    def test_harmonic_rotation(self):
        q = position(models.harmonic(), 1.0, 0.0, 0.25)
        assert abs(q) < 1e-12              # quarter period
        q = position(models.harmonic(), 1.0, 0.0, 0.5)
        assert abs(q + 1.0) < 1e-12        # half period

    def test_well_reflection(self):
        mdl = models.infinite_well()
        e = 2.0  # speed 2*sqrt(e); period 2/(2 sqrt e) in t-tilde units
        v = 2.0 * sqrt(e)
        period = 2.0 / v
        assert abs(position(mdl, 0.25, v, period) - 0.25) < 1e-12
        assert abs(position(mdl, 0.25, v, 0.5 * period) + 0.25) < 1e-12

    def test_well_fold_is_np_mod(self):
        # x - 2 floor(x/2) rounds once, as np.mod(x, 2) does: bit-identical
        rng = np.random.default_rng(5)
        x = np.concatenate([
            [-0.0, 0.0, 2.0, -2.0, 4.0, -4.0, 3.0, -3.0, 1e300, -1e300,
             2.0 ** 53, -(2.0 ** 53 - 1.0), np.nextafter(2.0, 0.0),
             np.nextafter(-2.0, 0.0), -1e-300, 1e-300],
            rng.uniform(-1e6, 1e6, 1000), rng.uniform(-3.0, 3.0, 1000)])
        assert (x - 2.0 * np.floor(0.5 * x)).tobytes() == np.mod(x, 2.0).tobytes()
        q0 = rng.uniform(-0.5, 0.5, 1000)
        p0 = np.concatenate([[-0.0, 0.0, 1e12, -1e12],
                             rng.uniform(-50.0, 50.0, 996)])
        times = [0.3, 1.0, 7.25]
        for t, q in zip(times, classical._flow(models.infinite_well(),
                                               q0, p0, times)):
            y = np.mod(q0 + p0 * t + 0.5, 2.0)
            assert q.tobytes() == np.where(y <= 1.0, y - 0.5, 1.5 - y).tobytes()

    def test_well_rejects_position_outside(self):
        with pytest.raises(DomainError):
            position(models.infinite_well(), 0.6, 1.0, 0.1)

    def test_morse_matches_closed_form(self):
        mdl = models.morse(8.0)
        e = 2.0
        q0 = morse_bound_position(mdl, e, 0.0)
        for t in np.linspace(0.0, 1.5, 7):
            q = position(mdl, q0, 0.0, float(t))
            assert abs(q - morse_bound_position(mdl, e, float(t))) < 1e-12

    def test_pendulum_at_or_past_separatrix_raises(self):
        mdl = models.pendulum(-0.05)
        for q0, p0 in ((pi, 0.0), (0.0, 6.0), (0.3, -8.0)):
            with pytest.raises(LibrationError):
                position(mdl, q0, p0, 0.4)


PENDULUM_M_VALUES = (0.05, 0.5, 0.9, 0.98)
MORSE_LAMBDA = 8.0
# bound (r < 1) states on both sides of the well, then exactly r = 1 and
# open r = 1.5 and r ~ 1.26 orbits; r = (p/lambda)^2 + (1 - e^q)^2
MORSE_Q0 = np.array([0.3, -0.5, -1.0, 0.0, 0.0, 0.0, 0.2])
MORSE_P0 = MORSE_LAMBDA * np.array([0.025, 0.375, -0.25, 1.0, -1.0,
                                    sqrt(1.5), -1.1])


def _pendulum_states(alpha):
    """Eight phases on each orbit m = sin^2(q/2) + (q'/2)^2 in
    PENDULUM_M_VALUES, with q' = 8|alpha| p."""
    theta = np.linspace(0.0, 2.0 * pi, 8, endpoint=False)
    k = np.sqrt(np.repeat(PENDULUM_M_VALUES, theta.size))
    theta = np.tile(theta, len(PENDULUM_M_VALUES))
    return (2.0 * np.arcsin(k * np.sin(theta)),
            2.0 * k * np.cos(theta) / (8.0 * abs(alpha)))


class TestExactFlows:
    """The closed-form pendulum and Morse flows against fine Yoshida steps."""

    @pytest.mark.parametrize("t", [0.9, -0.6])
    def test_pendulum_matches_fine_reference(self, t):
        mdl = models.pendulum(-0.05)
        q0, p0 = _pendulum_states(mdl.alpha)
        q, = classical._flow(mdl, q0, p0, [t])
        q_ref, _ = yoshida_trajectory(mdl, q0, p0, t)
        assert np.all(np.abs(np.angle(np.exp(1j * (q - q_ref)))) <= 1e-11)

    @pytest.mark.parametrize("t", [0.9, -0.6])
    def test_morse_matches_fine_reference(self, t):
        mdl = models.morse(MORSE_LAMBDA)
        r = (MORSE_P0 / MORSE_LAMBDA) ** 2 + (1.0 - np.exp(MORSE_Q0)) ** 2
        assert np.any(r < 1.0) and np.any(r == 1.0) and np.any(r > 1.0)
        q, = classical._flow(mdl, MORSE_Q0, MORSE_P0, [t])
        q_ref, _ = yoshida_trajectory(mdl, MORSE_Q0, MORSE_P0, t)
        assert np.all(np.abs(q - q_ref) <= 1e-11)


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

    @pytest.mark.parametrize("mdl,tau", [
        (models.pendulum(-0.02), 1.0),
        (models.infinite_well(), 0.4),
    ])
    def test_every_batch_evaluates_its_full_count(self, mdl, tau, monkeypatch):
        # rejection keeps under half of a 2n draw here, so batches top up
        flowed = []
        flow = classical._flow

        def counting_flow(model, q0, p0, times):
            flowed.append(len(q0))
            return flow(model, q0, p0, times)

        monkeypatch.setattr(classical, "_flow", counting_flow)
        classical_score_oracle(mdl, energy_window(mdl, tau), tau, 25_000,
                               seed=0, batch_size=10_000)
        assert flowed == [10_000, 10_000, 5_000]

    @pytest.mark.parametrize("mdl,window,tau,n", [
        (models.harmonic(), EnergyWindow(0.0, 50.0), 1.0, 50_000),
        (models.harmonic(), EnergyWindow(0.1, 5.0), 3.0, 50_000),
        (models.kerr(-0.1), energy_window(models.kerr(-0.1), 1.0), 1.0, 50_000),
        (models.pendulum(-0.05), energy_window(models.pendulum(-0.05), 1.0),
         1.0, 10_000),
        (models.morse(8.0), EnergyWindow(0.0, 50.0), 1.0, 50_000),
        (models.infinite_well(), energy_window(models.infinite_well(), 0.4),
         0.4, 50_000),
        (models.infinite_well(), EnergyWindow(0.5, 30.0), 0.4, 50_000),
    ])
    def test_half_counts_match_float_pos(self, mdl, window, tau, n,
                                         monkeypatch):
        value, ref = oracle_with_reference(monkeypatch, mdl, window, tau, n,
                                           seed=3, batch_size=n // 2 - 1)
        assert value == ref

    @pytest.mark.parametrize("c1,c2", [
        (-1.0, -1.0), (-1e-12, 1e-12), (0.0, -2e-12), (2e-12, -0.0),
        (1e-12, 1.0), (-1e-12, -1.0)])
    def test_boundary_positions_match_float_pos(self, c1, c2, monkeypatch):
        def fixed_flow(model, q0, p0, times):
            yield np.full_like(q0, c1)
            yield np.full_like(q0, c2)

        monkeypatch.setattr(classical, "_flow", fixed_flow)
        mdl = models.harmonic()
        value, ref = oracle_with_reference(monkeypatch, mdl,
                                           energy_window(mdl, 1.0), 1.0,
                                           1000, seed=0)
        assert value == ref == (1.0 + pos(c1) + pos(c2)) / 3.0

    def test_non_finite_position_raises(self, monkeypatch):
        flow = classical._flow

        def nan_flow(model, q0, p0, times):
            for q in flow(model, q0, p0, times):
                q = q.copy()
                q[-1] = np.nan
                yield q

        monkeypatch.setattr(classical, "_flow", nan_flow)
        with pytest.raises(NumericalInstabilityError):
            classical_score_oracle(models.harmonic(),
                                   energy_window(models.harmonic(), 1.0),
                                   1.0, 1000, seed=0)

    def test_window_with_no_area_raises(self):
        with pytest.raises(EmptyWindowError):
            classical_score_oracle(models.harmonic(), EnergyWindow(1.0, 1.0),
                                   1.0, 100, seed=0)

    def test_violation_outside_window(self):
        # tau = 3 makes every harmonic trajectory return to its sign
        w = EnergyWindow(0.1, 5.0)
        p = classical_score_oracle(models.harmonic(), w, 3.0, 20000, seed=2)
        assert p == 1.0
