"""Monte Carlo protocol simulation: Born probabilities, determinism,
calibration; the position densities the grid oracle integrates."""

from math import sqrt

import numpy as np
import pytest

from dyncert import models, phasespace, protocol, simulate, spectra
from dyncert.classical import energy_window
from dyncert.errors import DomainError
from conftest import (cdf_samplers_reference, grid_cdf_bounds,
                      run_protocol_reference, span_grid)

# grid of the position-space oracle: 5.3e-7 from the Born probabilities
# on the Morse lambda = 20 optimal state, 6.0e-6 at 40001 points
ORACLE_POINTS = 160001


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

    def test_chunk_count_deterministic(self, psi6):
        probs = protocol.round_probabilities(psi6, 0.8)
        for chunk, m in [(0, simulate.CHUNK_ROUNDS), (3, 1000)]:
            assert (simulate._chunk_count(probs, 2**40 + 7, chunk, m)
                    == simulate._chunk_count(probs, 2**40 + 7, chunk, m))

    @pytest.mark.parametrize("workers", [2, 3, 40])
    def test_uneven_worker_shares_bit_identical(self, psi6, workers):
        # 7 chunks, the last one short: each worker counts its strided
        # share of them, every chunk from its own (seed, chunk) stream
        n = 6 * simulate.CHUNK_ROUNDS + 12345
        a = simulate.run_protocol(psi6, 1.0, n, seed=11, workers=1)
        b = simulate.run_protocol(psi6, 1.0, n, seed=11, workers=workers)
        assert a == b

    def test_matches_exact_score(self, psi6):
        exact = protocol.score_state(psi6, 1.0)
        est = simulate.run_protocol(psi6, 1.0, 200000, seed=3)
        assert abs(est.p3_hat - exact) < 4 * est.stderr

    @pytest.mark.parametrize("lam", [5.0, 10.0])
    def test_morse_optimal_state_matches_exact(self, lam):
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_philox_key(self, psi6, seed):
        # seed -1 would otherwise key the same stream as 2**64 - 1
        with pytest.raises(DomainError):
            simulate.run_protocol(psi6, 1.0, 1000, seed=seed)

    @pytest.mark.parametrize("name,value", [
        ("seed", 7.9), ("seed", 1.5), ("n_rounds", 1000.5), ("workers", 2.0)])
    def test_rejects_non_integer_arguments(self, psi6, monkeypatch, name,
                                           value):
        # a float seed would key the Philox stream of its integer part
        def no_draw(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr(simulate, "_chunk_count", no_draw)
        args = {"n_rounds": 1000, "seed": 7, "workers": 1, name: value}
        with pytest.raises(DomainError, match="is not an integer"):
            simulate.run_protocol(psi6, 1.0, **args)

    def test_accepts_largest_seed(self, psi6):
        est = simulate.run_protocol(psi6, 1.0, 1000, seed=2**64 - 1)
        assert est.seed == 2**64 - 1

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
    """A round at probing time k scores 1 with the Born probability P_k of
    q > 0 then, and the times are uniform, so a chunk of m rounds scores
    Binomial(m, p_bar), p_bar the mean P_k. The position-space oracle must
    give the same P_k, and the count kernel must follow that law against
    the oracle's P_k and agree with rounds sampled to a position by inverse
    CDF on its grid. Every bound is fixed in advance and no count is
    pinned: numpy releases may differ in their binomial streams."""

    @pytest.fixture(scope="class", params=[
        "harmonic-psi6", "kerr+0.02", "kerr-0.02", "well", "morse5", "morse20",
        "psi6-tau0.8"])
    def state_tau(self, request):
        name = request.param
        if name in ("harmonic-psi6", "psi6-tau0.8"):
            # at tau = 0.8 the P_k of psi6 differ (0.687, 0.558, 0.349),
            # so a wrong split of the rounds over the times moves the mean
            slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
            return (protocol.reference_state("psi6", slc),
                    1.0 if name == "harmonic-psi6" else 0.8)
        mdl, tau = {"kerr+0.02": (models.kerr(0.02), 1.0),
                    "kerr-0.02": (models.kerr(-0.02), 1.0),
                    "well": (models.infinite_well(), 0.4),
                    "morse5": (models.morse(5.0), 1.0),
                    "morse20": (models.morse(20.0), 1.0)}[name]
        return _optimal_state(mdl, tau), tau

    @pytest.fixture(scope="class")
    def samplers(self, state_tau):
        return cdf_samplers_reference(*state_tau, ORACLE_POINTS)

    @pytest.fixture(scope="class")
    def oracle_p_bar(self, state_tau):
        """Mean P_k from the grid CDFs alone, within 1e-6 of the exact one
        (the test below): 67 rounds over CHUNKS full chunks, under 0.02 of
        the binomial standard deviation of their sum."""
        return float(np.mean(1.0 - grid_cdf_bounds(*state_tau,
                                                   ORACLE_POINTS)[1]))

    def test_round_probabilities_match_score_and_grid_oracle(self, state_tau):
        state, tau = state_tau
        probs = protocol.round_probabilities(state, tau)
        assert abs(np.mean(probs) - protocol.score_state(state, tau)) < 1e-12
        f_pos = grid_cdf_bounds(state, tau, ORACLE_POINTS)[1]
        assert np.max(np.abs(np.array(probs) - (1.0 - f_pos))) < 1e-6

    CHUNKS = 1024  # (seed, chunk) keys per seed in the law test
    Z_MAX = 5.0

    @pytest.mark.parametrize("seed", [4, 2**40 + 7])
    def test_chunk_stats_match_reference(self, state_tau, oracle_p_bar, seed):
        # chunk counts are i.i.d. Binomial(m, p_bar): their sum is
        # Binomial(K m, p_bar), and their sample variance over m p_bar
        # (1 - p_bar) is chi2(K - 1)/(K - 1), of sd sqrt(2/(K - 1)) = 0.044
        state, tau = state_tau
        probs = protocol.round_probabilities(state, tau)
        m, k = simulate.CHUNK_ROUNDS, self.CHUNKS
        counts = np.array([simulate._chunk_count(probs, seed, c, m)
                           for c in range(k)])
        assert np.all((counts >= 0) & (counts <= m))
        var = m * oracle_p_bar * (1.0 - oracle_p_bar)
        z = (counts.sum() - k * m * oracle_p_bar) / sqrt(k * var)
        assert abs(z) <= self.Z_MAX
        ratio = np.var(counts, ddof=1) / var
        assert abs(ratio - 1.0) <= self.Z_MAX * sqrt(2.0 / (k - 1))

    @pytest.mark.parametrize("seed", [4, 2**40 + 7])
    def test_estimate_matches_reference(self, state_tau, samplers, seed,
                                        monkeypatch):
        # the two estimates share the Philox keys but not the draws, so
        # the sd of their difference is at most the sum of their sds
        state, tau = state_tau
        n = 2 * simulate.CHUNK_ROUNDS + 999
        ref = run_protocol_reference(monkeypatch, samplers, state, tau, n, seed)
        est = simulate.run_protocol(state, tau, n, seed)
        assert (est.n_rounds, est.seed) == (ref.n_rounds, ref.seed)
        assert (abs(est.p3_hat - ref.p3_hat)
                <= self.Z_MAX * (est.stderr + ref.stderr))


class TestSampler:
    def test_grid_mass_coverage(self, psi6):
        qs = span_grid(psi6, 4001)
        dens = phasespace.marginal_density(psi6, 0.0, 1.0, qs)
        assert np.trapezoid(dens, qs) >= 1.0 - 1e-8


class TestMarginalDensity:
    def test_normalized(self, psi6):
        qs = span_grid(psi6, 20001)
        for frac in (0.0, 1.0 / 3.0, 2.0 / 3.0):
            dens = phasespace.marginal_density(psi6, frac, 1.0, qs)
            assert abs(np.trapezoid(dens, qs) - 1.0) < 1e-6

    def test_stationary_state_time_independent(self):
        slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
        ground = protocol.QuantumState(slc, np.eye(7)[0].astype(complex))
        qs = np.linspace(-6, 6, 2001)
        d0 = phasespace.marginal_density(ground, 0.0, 1.0, qs)
        d1 = phasespace.marginal_density(ground, 2.0 / 3.0, 1.0, qs)
        assert np.max(np.abs(d0 - d1)) < 1e-14

    def test_psi6_three_time_symmetry(self, psi6):
        qs = np.linspace(-8, 8, 2001)
        d0 = phasespace.marginal_density(psi6, 0.0, 1.0, qs)
        d1 = phasespace.marginal_density(psi6, 1.0 / 3.0, 1.0, qs)
        d2 = phasespace.marginal_density(psi6, 2.0 / 3.0, 1.0, qs)
        assert np.max(np.abs(d0 - d1)) < 1e-12
        assert np.max(np.abs(d0 - d2)) < 1e-12

    def test_rejects_other_fractions(self, psi6):
        with pytest.raises(DomainError):
            phasespace.marginal_density(psi6, 0.5, 1.0, np.linspace(-1, 1, 11))


class TestDeterministicCrossCheck:
    """The exact mean round score of the grid CDF, 1 - (F(-tol) + F(tol))/2
    over the three probing times, against the maximum quantum score."""

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
        f_neg, f_pos = grid_cdf_bounds(result.state, tau, 40001)
        assert abs(np.mean(1.0 - 0.5 * (f_neg + f_pos)) - result.p3_max) < 1e-6
        probs = protocol.round_probabilities(result.state, tau)
        assert (abs(np.mean(probs) - protocol.score_state(result.state, tau))
                < 1e-12)

    def test_morse20_optimal_state_matches_exact(self):
        win = energy_window(models.morse(20.0), 1.0)
        slc = spectra.spectrum_slice(models.morse(20.0), win, check=False)
        result = protocol.max_score(slc, 1.0, window=win)
        f_neg, f_pos = grid_cdf_bounds(result.state, 1.0, ORACLE_POINTS)
        assert abs(np.mean(1.0 - 0.5 * (f_neg + f_pos)) - result.p3_max) < 1e-6
