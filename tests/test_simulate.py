"""Monte Carlo protocol simulation: determinism, calibration, sampling."""

import numpy as np
import pytest

from dyncert import models, protocol, simulate, spectra
from dyncert.classical import POS_BOUNDARY_TOL, energy_window
from dyncert.errors import DomainError
from conftest import (cdf_samplers_reference, chunk_stats_reference,
                      run_protocol_reference)


@pytest.fixture(scope="module")
def psi6():
    slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
    return protocol.reference_state("psi6", slc)


class TestRunProtocol:
    def test_deterministic_given_seed(self, psi6):
        a = simulate.run_protocol(psi6, 1.0, 200000, seed=42)
        b = simulate.run_protocol(psi6, 1.0, 200000, seed=42)
        assert a.p3_hat == b.p3_hat and a.stderr == b.stderr

    def test_workers_bit_identical(self, psi6):
        a = simulate.run_protocol(psi6, 1.0, 300000, seed=9, workers=1)
        b = simulate.run_protocol(psi6, 1.0, 300000, seed=9, workers=8)
        assert a.p3_hat == b.p3_hat

    def test_matches_exact_score(self, psi6):
        exact = protocol.score_state(psi6, 1.0)
        est = simulate.run_protocol(psi6, 1.0, 200000, seed=3)
        assert abs(est.p3_hat - exact) < 4 * est.stderr

    @pytest.mark.parametrize("lam", [5.0, 10.0])
    def test_morse_optimal_state_matches_exact(self, lam):
        # a step change at q = 0 in the Morse grid would cost the
        # trapezoid rule more mass than the coverage check allows
        mdl = models.morse(lam)
        win = energy_window(mdl, 1.0)
        slc = spectra.spectrum_slice(mdl, win, check=False)
        best = protocol.max_score(slc, 1.0, window=win)
        est = simulate.run_protocol(best.state, 1.0, 100000, seed=3)
        assert abs(est.p3_hat - best.p3_max) < 4 * est.stderr

    def test_stationary_state_half(self):
        slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
        ground = protocol.QuantumState(slc, np.eye(7)[0].astype(complex))
        est = simulate.run_protocol(ground, 1.0, 100000, seed=5)
        assert abs(est.p3_hat - 0.5) < 4 * est.stderr

    def test_rejects_zero_rounds(self, psi6):
        with pytest.raises(DomainError):
            simulate.run_protocol(psi6, 1.0, 0, seed=1)

    def test_calibration_over_seeds(self, psi6):
        exact = protocol.score_state(psi6, 1.0)
        bad = 0
        for seed in range(50):
            est = simulate.run_protocol(psi6, 1.0, 10000, seed=seed)
            if abs(est.p3_hat - exact) > 4 * est.stderr:
                bad += 1
        assert bad == 0  # 4-sigma misses are ~6e-5 likely per seed

    def test_json(self, psi6):
        est = simulate.run_protocol(psi6, 1.0, 1000, seed=1)
        import json
        d = json.loads(est.to_json())
        assert set(d) == {"seed", "n_rounds", "p3_hat", "stderr"}


def _optimal_state(mdl, tau):
    win = energy_window(mdl, tau)
    slc = spectra.spectrum_slice(mdl, win, check=False)
    return protocol.max_score(slc, tau, window=win).state


class TestSignOnlyKernel:
    """Scoring each round by its CDF value against F(-tol) and F(tol) must
    reproduce, bit for bit, every round sampled to a position and scored
    by pos()."""

    @pytest.fixture(scope="class", params=[
        "harmonic-psi6", "kerr+0.02", "kerr-0.02", "well", "morse5", "morse20"])
    def state_tau(self, request):
        name = request.param
        if name == "harmonic-psi6":
            slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
            return protocol.reference_state("psi6", slc), 1.0
        mdl, tau = {"kerr+0.02": (models.kerr(0.02), 1.0),
                    "kerr-0.02": (models.kerr(-0.02), 1.0),
                    "well": (models.infinite_well(), 0.4),
                    "morse5": (models.morse(5.0), 1.0),
                    "morse20": (models.morse(20.0), 1.0)}[name]
        return _optimal_state(mdl, tau), tau

    def test_morse_grid_has_a_knot_at_zero(self):
        state = _optimal_state(models.morse(5.0), 1.0)
        assert np.any(simulate.position_grid(state) == 0.0)

    @pytest.mark.parametrize("seed", [4, 2**40 + 7])
    def test_chunk_stats_match_reference(self, state_tau, seed):
        state, tau = state_tau
        samplers = cdf_samplers_reference(state, tau)
        bounds = simulate._sign_cdf(state, tau)
        for chunk, m in [(0, simulate.CHUNK_ROUNDS), (3, 1000)]:
            assert (simulate._chunk_stats(bounds, seed, chunk, m)
                    == chunk_stats_reference(samplers, seed, chunk, m))

    @pytest.mark.parametrize("seed", [4, 2**40 + 7])
    def test_estimate_matches_reference(self, state_tau, seed, monkeypatch):
        state, tau = state_tau
        n = 2 * simulate.CHUNK_ROUNDS + 999
        ref = run_protocol_reference(monkeypatch, state, tau, n, seed)
        assert simulate.run_protocol(state, tau, n, seed) == ref

    def test_rounds_inside_the_band_fall_back(self):
        # knots at and within the boundary tolerance of q = 0 put 40% of
        # the rounds between F(-tol) and F(tol), to be scored 1/2; one
        # sampler lies all above q = 0, one all below
        tol = POS_BOUNDARY_TOL
        cdf = np.linspace(0.0, 1.0, 11)
        samplers = [
            (cdf, np.array([-2.0, -1.0, -10 * tol, -tol, -0.5 * tol, 0.0,
                            0.5 * tol, tol, 10 * tol, 1.0, 2.0])),
            (cdf, np.linspace(0.5, 1.0, 11)),
            (cdf, np.linspace(-1.0, 0.0, 11)),
        ]
        bounds = np.array([[np.interp(q, qs, c) for c, qs in samplers]
                           for q in (-tol, tol)])
        assert list(bounds[:, 0]) == [cdf[3], cdf[7]]
        assert list(bounds[:, 1]) == [0.0, 0.0]
        assert 1.0 - 1e-11 < bounds[0, 2] < bounds[1, 2] == 1.0
        for seed in (0, 1):
            stats = simulate._chunk_stats(bounds, seed, 0, 50_000)
            assert stats == chunk_stats_reference(samplers, seed, 0, 50_000)


class TestSampler:
    def test_grid_mass_coverage(self, psi6):
        qs = simulate.position_grid(psi6)
        dens = simulate.marginal_density(psi6, 0.0, 1.0, qs)
        assert np.trapezoid(dens, qs) >= 1.0 - 1e-8


class TestMarginalDensity:
    def test_normalized(self, psi6):
        qs = simulate.position_grid(psi6, 20001)
        for frac in (0.0, 1.0 / 3.0, 2.0 / 3.0):
            dens = simulate.marginal_density(psi6, frac, 1.0, qs)
            assert abs(np.trapezoid(dens, qs) - 1.0) < 1e-6

    def test_stationary_state_time_independent(self):
        slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
        ground = protocol.QuantumState(slc, np.eye(7)[0].astype(complex))
        qs = np.linspace(-6, 6, 2001)
        d0 = simulate.marginal_density(ground, 0.0, 1.0, qs)
        d1 = simulate.marginal_density(ground, 2.0 / 3.0, 1.0, qs)
        assert np.max(np.abs(d0 - d1)) < 1e-14

    def test_psi6_three_time_symmetry(self, psi6):
        qs = np.linspace(-8, 8, 2001)
        d0 = simulate.marginal_density(psi6, 0.0, 1.0, qs)
        d1 = simulate.marginal_density(psi6, 1.0 / 3.0, 1.0, qs)
        d2 = simulate.marginal_density(psi6, 2.0 / 3.0, 1.0, qs)
        assert np.max(np.abs(d0 - d1)) < 1e-12
        assert np.max(np.abs(d0 - d2)) < 1e-12

    def test_rejects_other_fractions(self, psi6):
        with pytest.raises(DomainError):
            simulate.marginal_density(psi6, 0.5, 1.0, np.linspace(-1, 1, 11))


class TestDeterministicCrossCheck:
    @pytest.mark.parametrize("mdl,n_hat,tau", [
        (models.harmonic(), 6, 1.0),
        (models.kerr(0.02), 10, 1.0),
        (models.pendulum(-0.02), 6, 1.0),
        (models.morse(8.0), 5, 1.0),
        (models.infinite_well(), 5, 0.4),
    ])
    def test_grid_integration_matches_exact(self, mdl, n_hat, tau):
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        result = protocol.max_score(slc, tau)
        det = simulate.deterministic_score(result.state, tau)
        assert abs(det - result.p3_max) < 1e-6
