"""Monte Carlo protocol simulation: Born probabilities, determinism,
calibration; the position densities the grid oracle integrates."""

import numpy as np
import pytest

from dyncert import models, phasespace, protocol, simulate, spectra
from dyncert.classical import energy_window
from dyncert.errors import DomainError
from conftest import (cdf_samplers_reference, chunk_count_reference,
                      grid_cdf_bounds, run_protocol_reference, span_grid)

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

    @pytest.mark.parametrize("workers", [2, 3, 40])
    def test_uneven_worker_shares_bit_identical(self, psi6, workers):
        # 7 chunks, the last one short: each worker draws its share of them
        # into its own buffers, sized by its first (full) chunk
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
    """Each round scores 1 when its uniform exceeds 1 - P_k, P_k the Born
    probability of q > 0 at its probing time. The position-space oracle
    must give the same P_k, and rounds sampled to a position by inverse
    CDF on its grid must score the same."""

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

    @pytest.fixture(scope="class")
    def samplers(self, state_tau):
        return cdf_samplers_reference(*state_tau, ORACLE_POINTS)

    def test_round_probabilities_match_score_and_grid_oracle(self, state_tau):
        state, tau = state_tau
        probs = protocol.round_probabilities(state, tau)
        assert abs(np.mean(probs) - protocol.score_state(state, tau)) < 1e-12
        f_pos = grid_cdf_bounds(state, tau, ORACLE_POINTS)[1]
        assert np.max(np.abs(np.array(probs) - (1.0 - f_pos))) < 1e-6

    # A round scores differently from its position-sampled reference only
    # when its uniform falls between 1 - P_k and the grid's F(tol): with
    # probability 2.6e-7 for Morse lambda = 20 and below 1.5e-8 for the
    # other states. The two tests below draw 4e5 rounds per state, so
    # 0.11 differing rounds are expected in all, nearly all for Morse 20.
    @pytest.mark.parametrize("seed", [4, 2**40 + 7])
    def test_chunk_stats_match_reference(self, state_tau, samplers, seed):
        state, tau = state_tau
        thresholds = 1.0 - np.array(protocol.round_probabilities(state, tau))
        for chunk, m in [(0, simulate.CHUNK_ROUNDS), (3, 1000)]:
            assert (simulate._chunk_count(thresholds, seed, chunk, m)
                    == chunk_count_reference(samplers, seed, chunk, m))

    @pytest.mark.parametrize("seed", [4, 2**40 + 7])
    def test_estimate_matches_reference(self, state_tau, samplers, seed,
                                        monkeypatch):
        state, tau = state_tau
        n = 2 * simulate.CHUNK_ROUNDS + 999
        ref = run_protocol_reference(monkeypatch, samplers, state, tau, n, seed)
        assert simulate.run_protocol(state, tau, n, seed) == ref


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
