"""Trapping times, energy windows, trajectories, and the sampling oracle."""

import threading
from concurrent.futures import ThreadPoolExecutor
from math import inf, pi, sqrt

import numpy as np
import pytest
import scipy.special as sps
from scipy.stats import ks_2samp

from dyncert import classical, models
from dyncert.classical import (EnergyWindow, classical_score_oracle,
                               energy_window, pos, trapping_times)
from dyncert.errors import (DomainError, EmptyWindowError, LibrationError,
                            NumericalInstabilityError, UnsupportedTauError)
from conftest import (oracle_states, oracle_with_reference, recorded_oracle,
                      rejection_states_reference, trapping_times_quadrature,
                      yoshida_trajectory)


def morse_bound_position(model, e, t):
    """Closed-form bound Morse trajectory from the inner turning point
    (p(0) = 0 on the positive-q side) at energy 0 <= e < De."""
    r = e / models.morse_dissociation_energy(model)
    period = 1.0 / sqrt(1.0 - r)
    return float(np.log((1.0 - r) / (1.0 - sqrt(r) * np.cos(2.0 * pi * t / period))))


def position(model, q0, p0, t):
    """q after time t (units 2*pi/omega0): a one-sample ``_flow`` call."""
    _, (q,) = classical._flow(model, np.array([q0]), np.array([p0]), [t])
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
        # q0 = r > 0 at theta = 0; q = 0 after a quarter period, -r after half
        h0 = np.array([0.5, 8.0])
        d = list(classical._rotation_flow(models.harmonic(), h0,
                                          np.zeros(2), [0.25, 0.5]))
        r = np.sqrt(2.0 * h0)
        assert np.array_equal(d[0], 0.5 * pi * r)
        assert np.array_equal(d[1], np.zeros(2))
        assert np.array_equal(d[2], -0.5 * pi * r)

    @pytest.mark.parametrize("mdl", [models.harmonic(), models.kerr(0.02)],
                             ids=["harmonic", "kerr"])
    def test_rotation_distance_is_q_near_zero(self, mdl):
        # eps turns past a zero crossing, d = q (1 + (2 pi eps)^2/6 + ...)
        eps = np.array([1e-2, -1e-3, 1e-4])
        h0, t = 3.0, 0.4
        omega = 1.0 + (mdl.alpha or 0.0) * h0
        for crossing in (0.25, 0.75):
            theta = crossing + eps + omega * t
            _, d = classical._rotation_flow(mdl, np.full(3, h0), theta, [t])
            q = sqrt(2.0 * h0) * np.cos(2.0 * pi * (crossing + eps))
            assert np.all(np.abs(d / q - 1.0) <= 7.0 * eps * eps)

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
        start, *qs = classical._flow(models.infinite_well(), q0, p0, times)
        assert start.tobytes() == q0.tobytes()
        for t, q in zip(times, qs):
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
        _, q = classical._flow(mdl, q0, p0, [t])
        q_ref, _ = yoshida_trajectory(mdl, q0, p0, t)
        assert np.all(np.abs(np.angle(np.exp(1j * (q - q_ref)))) <= 1e-11)

    @pytest.mark.parametrize("t", [0.9, -0.6])
    def test_morse_matches_fine_reference(self, t):
        mdl = models.morse(MORSE_LAMBDA)
        r = (MORSE_P0 / MORSE_LAMBDA) ** 2 + (1.0 - np.exp(MORSE_Q0)) ** 2
        assert np.any(r < 1.0) and np.any(r == 1.0) and np.any(r > 1.0)
        _, q = classical._flow(mdl, MORSE_Q0, MORSE_P0, [t])
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
        # pendulum rejection keeps under half of a 2n draw here, so its
        # batches top up; the well draws each batch directly (batch_size is
        # below DIRECT_BATCH, which would cap the well's batches)
        flowed = []
        flow = classical._flow

        def counting_flow(model, q0, p0, times, out):
            flowed.append(len(q0))
            return flow(model, q0, p0, times, out)

        monkeypatch.setattr(classical, "_flow", counting_flow)
        classical_score_oracle(mdl, energy_window(mdl, tau), tau, 12_500,
                               seed=0, batch_size=5_000)
        assert flowed == [5_000, 5_000, 2_500]

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
        (models.kerr(0.02), energy_window(models.kerr(0.02), 1.0), 1.0, 50_000),
        (models.kerr(0.01), energy_window(models.kerr(0.01), 1.2), 1.2, 50_000),
    ])
    def test_half_counts_match_float_pos(self, mdl, window, tau, n,
                                         monkeypatch):
        # per sample: the kernel's positions score as the reference's do
        value, scores, ref_scores = oracle_with_reference(
            monkeypatch, mdl, window, tau, n, seed=3, batch_size=n // 2 - 1)
        assert len(scores) == n
        assert np.array_equal(scores, ref_scores)
        assert value == scores.max()

    @pytest.mark.parametrize("c1,c2", [
        (-1.0, -1.0), (-1e-12, 1e-12), (0.0, -2e-12), (2e-12, -0.0),
        (1e-12, 1.0), (-1e-12, -1.0)])
    def test_boundary_positions_match_float_pos(self, c1, c2, monkeypatch):
        def fixed_flow(model, q0, p0, times, out):
            out[:] = q0, np.full_like(q0, c1), np.full_like(q0, c2)
            return out

        monkeypatch.setattr(classical, "_flow", fixed_flow)
        mdl = models.infinite_well()
        value, scores, _ = oracle_with_reference(
            monkeypatch, mdl, energy_window(mdl, 0.4), 0.4, 1000, seed=0)
        assert value == scores.max() == (1.0 + pos(c1) + pos(c2)) / 3.0

    def test_non_finite_position_raises(self, monkeypatch):
        flow = classical._rotation_flow

        def nan_flow(model, h0, theta, times, out):
            flow(model, h0, theta, times, out)
            out[:, -1] = np.nan
            return out

        monkeypatch.setattr(classical, "_rotation_flow", nan_flow)
        with pytest.raises(NumericalInstabilityError):
            classical_score_oracle(models.harmonic(),
                                   energy_window(models.harmonic(), 1.0),
                                   1.0, 1000, seed=0)

    @pytest.mark.parametrize("mdl,tau", [
        (models.harmonic(), 1.0),
        (models.kerr(0.02), 1.0),
        (models.infinite_well(), 0.4),
    ], ids=["harmonic", "kerr", "well"])
    def test_first_batch_draws_match_uniform_calls(self, mdl, tau, monkeypatch):
        # one rng.random fill per batch, mapped in place, gives the doubles
        # of rng.uniform(lo, hi, n) then rng.random(n), or of the well's two
        # uniform calls, on the same SFC64 stream
        window = energy_window(mdl, tau)
        _, batches = recorded_oracle(monkeypatch, mdl, window, tau, 20_000,
                                     seed=4)
        _, a, b, _ = batches[0]
        n = classical.DIRECT_BATCH
        rng = np.random.Generator(np.random.SFC64(4))
        e_hi = min(window.e_max, classical.ENERGY_CAP)
        if mdl.kind == models.WELL:
            lo, hi = 2.0 * sqrt(window.e_min), 2.0 * sqrt(e_hi)
            q = rng.uniform(-0.5, 0.5, n)
            w = rng.uniform(-1.0, 1.0, n)
            ref = q, np.copysign(lo, w) + (hi - lo) * w
        else:
            alpha = mdl.alpha or 0.0
            lo, hi = (2.0 * e / (1.0 + sqrt(1.0 + 2.0 * alpha * e))
                      for e in (window.e_min, e_hi))
            ref = rng.uniform(lo, hi, n), rng.random(n)
        assert len(a) == len(b) == n
        assert np.array_equal(a, ref[0]) and np.array_equal(b, ref[1])

    @pytest.mark.parametrize("mdl,window,tau,value", [
        (models.harmonic(), energy_window(models.harmonic(), 1.0), 1.0, 2 / 3),
        *[(models.kerr(a), energy_window(models.kerr(a), t), t, 2 / 3)
          for a, t in [(0.02, 1.0), (-0.02, 1.0), (0.01, 1.2)]],
        *[(models.infinite_well(), energy_window(models.infinite_well(), t),
           t, 2 / 3) for t in (0.1, 0.15, 0.4)],
        (models.harmonic(), EnergyWindow(0.1, 5.0), 3.0, 1.0),
    ], ids=["harmonic", "kerr+0.02", "kerr-0.02", "kerr+0.01@1.2",
            "well@0.1", "well@0.15", "well@0.4", "harmonic-outside@3"])
    def test_direct_oracle_values_unchanged(self, mdl, window, tau, value):
        # the maximum does not depend on the stream: some drawn state
        # scores 2/3 inside each window, and at tau = 3 outside it some
        # state returns to its sign at every probe
        assert [classical_score_oracle(mdl, window, tau, 10 ** 5, seed)
                for seed in range(5)] == [value] * 5

    def test_concurrent_calls_match_serial(self, monkeypatch):
        # each call holds its own batch buffers: in two threads, every
        # batch's flow waits until the other call's batch has flowed too,
        # and each call still gets the values it gets alone
        calls = [(models.harmonic(), EnergyWindow(0.1, 5.0), 0.3),
                 (models.infinite_well(), EnergyWindow(0.5, 30.0), 0.4)]

        def run(call):
            return [classical_score_oracle(*call, 2, seed, batch_size=1)
                    for seed in range(100)]

        serial = list(map(run, calls))
        both_flowed = threading.Barrier(2, timeout=30)
        for name in ("_rotation_flow", "_flow"):
            def flow_then_wait(*args, flow=getattr(classical, name)):
                out = flow(*args)
                both_flowed.wait()
                return out
            monkeypatch.setattr(classical, name, flow_then_wait)
        with ThreadPoolExecutor(2) as pool:
            assert list(pool.map(run, calls)) == serial

    def test_window_with_no_area_raises(self):
        with pytest.raises(EmptyWindowError, match="no phase-space area"):
            classical_score_oracle(models.harmonic(), EnergyWindow(1.0, 1.0),
                                   1.0, 100, seed=0)

    @pytest.mark.parametrize("mdl,window", [
        (models.infinite_well(), EnergyWindow(2.0, 2.0)),
        (models.harmonic(), EnergyWindow(60.0, inf)),
        (models.kerr(-0.02), EnergyWindow(30.0, 40.0)),
        (models.kerr(-0.02), EnergyWindow(26.0, inf)),
        (models.pendulum(-0.05), EnergyWindow(1.0, 1.0)),
    ], ids=["well-zero-area", "harmonic-above-cap", "kerr-above-range",
            "kerr-above-range-unbounded", "pendulum-zero-area"])
    def test_empty_windows_raise(self, mdl, window):
        with pytest.raises(EmptyWindowError, match="no phase-space area"):
            classical_score_oracle(mdl, window, 1.0, 100, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0}, {"batch_size": -5}, {"batch_size": 2.0},
        {"n_samples": 1000.5}, {"n_samples": 0},
        {"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.5},
        {"tau": float("nan")}, {"tau": inf},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_invalid_arguments_raise_before_any_draw(self, kwargs, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the oracle drew states")

        monkeypatch.setattr(classical, "_direct_sampler", no_draw)
        args = {"tau": 1.0, "n_samples": 1000, "seed": 0} | kwargs
        with pytest.raises(DomainError):
            classical_score_oracle(models.harmonic(), EnergyWindow(0.0, 5.0),
                                   **args)

    def test_violation_outside_window(self):
        # tau = 3 makes every harmonic trajectory return to its sign
        w = EnergyWindow(0.1, 5.0)
        p = classical_score_oracle(models.harmonic(), w, 3.0, 20000, seed=2)
        assert p == 1.0


class TestDirectSampling:
    """The direct samplers draw the distribution of the (q, p) box
    rejection: energies and initial sgn q agree by a two-sample KS test."""

    @pytest.mark.parametrize("mdl,tau", [
        (models.harmonic(), 1.0),
        (models.kerr(0.02), 1.0),
        (models.kerr(-0.02), 1.0),
        (models.infinite_well(), 0.1),
        (models.infinite_well(), 0.4),
    ], ids=["harmonic", "kerr+0.02", "kerr-0.02", "well-0.1", "well-0.4"])
    def test_matches_box_rejection(self, mdl, tau, monkeypatch):
        n = 100_000
        window = energy_window(mdl, tau)
        e, q = oracle_states(monkeypatch, mdl, window, tau, n, seed=5)
        e_ref, q_ref = rejection_states_reference(mdl, window, n, seed=6)
        assert len(e) == len(e_ref) == n
        assert ks_2samp(e, e_ref).pvalue > 1e-3
        assert ks_2samp(np.sign(q), np.sign(q_ref)).pvalue > 1e-3
