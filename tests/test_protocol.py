"""Q3 assembly, score maximization, tau scans, scenario comparisons."""

import dataclasses
import json
import re
from math import sqrt

import numpy as np
import pytest

from dyncert import models, protocol, spectra
from dyncert.classical import TAU_HI, TAU_LO, energy_window
from dyncert.errors import (ConvergenceError, DomainError,
                            NumericalInstabilityError, UnboundedSpectrumError)
from dyncert.numerics import hermitian_max_eigenpair
from conftest import expand_sgn, golden_max_reference


class TestQuantumState:
    def test_norm_enforced(self, harmonic_slice6):
        with pytest.raises(DomainError):
            protocol.QuantumState(harmonic_slice6,
                                  np.ones(7, dtype=complex))

    def test_shape_enforced(self, harmonic_slice6):
        with pytest.raises(DomainError):
            protocol.QuantumState(harmonic_slice6,
                                  np.array([1.0 + 0j, 0.0]))

    def test_nan_amplitude_rejected(self, harmonic_slice6):
        amps = np.eye(7)[0].astype(complex)
        amps[3] = np.nan
        with pytest.raises(DomainError):
            protocol.QuantumState(harmonic_slice6, amps)


FIVE_MODELS = [(models.harmonic(), 40), (models.kerr(0.02), 20),
               (models.pendulum(-0.02), 20), (models.morse(8.0), 6),
               (models.infinite_well(), 30)]


def _direct_q3(slc, tau):
    """Q3[i,j] = delta_ij/2 + sgn[i,j]/6 sum_k exp(i k tau theta_ij)."""
    es = np.asarray(slc.energies)
    theta = 2 * np.pi * (es[:, None] - es[None, :]) / 3.0
    phases = sum(np.exp(1j * k * tau * theta) for k in range(3))
    s = expand_sgn(slc.model, slc.indices, slc.sgn)
    return 0.5 * np.eye(slc.dim) + s / 6.0 * phases


def _q3_columns(slc, tau):
    """Q3 as a dense matrix, built by build_q3's matvec one column at a
    time."""
    op = protocol.build_q3(slc, tau)
    return np.column_stack([op.matvec(e)
                            for e in np.eye(slc.dim, dtype=complex)])


class TestBuildQ3:
    def test_hermitian_and_bounded(self, harmonic_slice6):
        q = _q3_columns(harmonic_slice6, 1.3)
        assert np.max(np.abs(q - q.conj().T)) < 1e-14
        eigs = np.linalg.eigvalsh(q)
        assert eigs[0] >= -1e-12 and eigs[-1] <= 1.0 + 1e-12

    def test_matches_direct_formula(self):
        for mdl, n_hat in FIVE_MODELS:
            slc = protocol.truncated_slice(mdl, n_hat, check=False)
            q = _q3_columns(slc, 0.9)
            assert np.max(np.abs(q - _direct_q3(slc, 0.9))) < 1e-14


class TestMaxScore:
    def test_harmonic_six(self, harmonic_slice6):
        r = protocol.max_score(harmonic_slice6, 1.0)
        assert abs(r.p3_max - 0.687) < 1e-3

    def test_matrix_free_matches_dense(self, harmonic_slice6):
        dense = protocol.max_score(harmonic_slice6, 1.0).p3_max
        val, _ = hermitian_max_eigenpair(
            protocol.build_q3(harmonic_slice6, 1.0))
        assert abs(val - dense) < 1e-9

    @pytest.mark.parametrize("mdl,n_hat", FIVE_MODELS)
    def test_packed_matvec_matches_dense(self, mdl, n_hat):
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        rng = np.random.default_rng(n_hat)
        for tau in (0.75, 1.0, 1.3):
            v = np.array([1.0, 1j]) @ rng.standard_normal((2, slc.dim))
            got = protocol.build_q3(slc, tau).matvec(v)
            ref = _direct_q3(slc, tau) @ v
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_degenerate_top_at_boundary_taus(self):
        # at tau = 3/4 and 3/2 the harmonic top eigenvalue 2/3 is ~93-fold
        # degenerate at n_hat = 200; Lanczos still stops early on it
        slc = protocol.truncated_slice(models.harmonic(), 200, check=False)
        assert slc.dim > spectra.DENSE_EIG_LIMIT
        for tau in (0.75, 1.5):
            op = protocol.build_q3(slc, tau)
            calls = []
            matvec = op.matvec
            op.matvec = lambda v: calls.append(1) or matvec(v)
            val, _ = hermitian_max_eigenpair(op)
            assert abs(val - 2.0 / 3.0) < 1e-9
            assert len(calls) < 40
            assert abs(protocol.max_score(slc, tau).p3_max - 2.0 / 3.0) < 1e-9

    @pytest.mark.parametrize("mdl,n_hat", [
        (m, n) for m, n in FIVE_MODELS if m.is_even_potential]
        + [(models.morse(8.0), 6)])
    def test_bipartite_score_matches_full_eigvalsh(self, mdl, n_hat):
        # 1/2 + sigma_max of the half-size block is the top of the full Q3;
        # Morse, with no parity, takes eigh of its full dense block
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        for tau in (0.75, 0.9, 1.0, 1.3, 1.5):
            r = protocol.max_score(slc, tau)
            q = _direct_q3(slc, tau)
            assert abs(r.p3_max - np.linalg.eigvalsh(q)[-1]) < 1e-12
            psi = r.state.amplitudes
            assert np.linalg.norm(q @ psi - r.p3_max * psi) <= 1e-10
            top = psi[np.argmax(np.abs(psi))]
            assert top.real > 0 and abs(top.imag) <= 1e-15

    @pytest.mark.parametrize("mdl,n_hat,limit", [
        (models.harmonic(), 300, None), (models.kerr(0.02), 300, None),
        (models.kerr(-0.02), 49, 16)])
    def test_fft_matvec_matches_dense_block(self, monkeypatch, mdl, n_hat,
                                            limit):
        # Kerr alpha = -0.02 holds 50 levels, so its limit is lowered
        if limit is not None:
            monkeypatch.setattr(spectra, "DENSE_EIG_LIMIT", limit)
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        assert isinstance(slc.sgn, spectra.ToeplitzBlock)
        dense = dataclasses.replace(slc, sgn=slc.sgn[:])
        rng = np.random.default_rng(n_hat)
        v = np.array([1.0, 1j]) @ rng.standard_normal((2, slc.dim))
        for tau in (0.75, 1.0, 1.3):
            got = protocol.build_q3(slc, tau).matvec(v)
            ref = protocol.build_q3(dense, tau).matvec(v)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            probs = protocol.round_probabilities(
                protocol.QuantumState(slc, v / np.linalg.norm(v)), tau)
            ref_probs = protocol.round_probabilities(
                protocol.QuantumState(dense, v / np.linalg.norm(v)), tau)
            assert np.allclose(probs, ref_probs, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.02, 0.01])
    @pytest.mark.parametrize("n_hat", [800, 1000])
    def test_large_kerr_slice_scores_one(self, alpha, n_hat):
        # Lanczos runs short on Kerr(0.02) here (300 vectors) and the SVD
        # of the densified block takes over; Kerr(0.01) converges
        slc = protocol.truncated_slice(models.kerr(alpha), n_hat, check=False)
        r = protocol.max_score(slc, 1.0)
        assert abs(r.p3_max - 1.0) <= 1e-10
        v = r.state.amplitudes
        mv = protocol.build_q3(slc, 1.0).matvec(v)
        assert np.linalg.norm(mv - r.p3_max * v) <= 1e-8
        assert abs(protocol.score_state(r.state, 1.0) - r.p3_max) <= 1e-10

    def test_dense_fallback_limited_to_stated_size(self, monkeypatch):
        slc = protocol.truncated_slice(models.kerr(0.02), 800, check=False)
        monkeypatch.setattr(protocol, "DENSE_FALLBACK_LIMIT", slc.dim - 1)
        with pytest.raises(ConvergenceError):
            protocol.max_score(slc, 1.0)

    def test_one_parity_slice_scores_half(self):
        # the well's tau = 1.2 window holds only n = 2, where Q3 = I/2
        mdl = models.infinite_well()
        win = energy_window(mdl, 1.2)
        slc = spectra.spectrum_slice(mdl, win)
        assert slc.indices == (2,)
        r = protocol.max_score(slc, 1.2, window=win)
        assert r.p3_max == 0.5
        assert np.array_equal(r.state.amplitudes, [1.0])

    def test_score_state_consistent(self, harmonic_slice6):
        r = protocol.max_score(harmonic_slice6, 1.0)
        assert abs(protocol.score_state(r.state, 1.0) - r.p3_max) < 1e-12

    def test_corrupted_sgn_raises(self, harmonic_slice6):
        # an all-ones even x odd block has entries in [-1, 1], so the slice
        # accepts it; its singular value sqrt(12) puts Q3 outside [0, 1]
        bad = dataclasses.replace(harmonic_slice6, sgn=np.ones((4, 3)))
        with pytest.raises(NumericalInstabilityError):
            protocol.max_score(bad, 1.0)
        state = protocol.QuantumState(bad, np.full(7, 1.0 / sqrt(7.0)))
        with pytest.raises(NumericalInstabilityError):
            protocol.score_state(state, 1.0)

    def test_round_off_clipped(self):
        assert protocol._in_unit_range(1.0 + 5e-13) == 1.0
        assert protocol._in_unit_range(-5e-13) == 0.0
        with pytest.raises(NumericalInstabilityError):
            protocol._in_unit_range(float("nan"))

    def test_score_at_least_half_for_even_models(self, harmonic_slice6):
        for tau in (0.8, 1.0, 1.3):
            assert protocol.max_score(harmonic_slice6, tau).p3_max \
                >= 0.5 - 1e-12

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, harmonic_slice6, tau):
        state = protocol.reference_state("psi6", harmonic_slice6)
        for call in (lambda: protocol.max_score(harmonic_slice6, tau),
                     lambda: protocol.score_state(state, tau),
                     lambda: protocol.round_probabilities(state, tau),
                     lambda: protocol.p3_max(harmonic_slice6, [1.0, tau]),
                     lambda: protocol.score_state(state, [1.0, tau])):
            with pytest.raises(DomainError):
                call()


TAUS = np.linspace(0.75, 1.5, 41)


class TestBatchedScores:
    """p3_max and score_state over an array of taus against one scalar
    call per tau."""

    @pytest.mark.parametrize("mdl,n_hat", FIVE_MODELS + [
        (models.kerr(-0.02), 20), (models.morse(5.0), 4),
        (models.morse(20.0), 19)])
    def test_p3_max_bits_match_max_score(self, mdl, n_hat):
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        scalar = [protocol.max_score(slc, t).p3_max for t in TAUS]
        assert protocol.p3_max(slc, TAUS).tolist() == scalar

    def test_one_parity_slice(self):
        mdl = models.infinite_well()
        slc = spectra.spectrum_slice(mdl, energy_window(mdl, 1.2))
        assert slc.indices == (2,)
        assert protocol.p3_max(slc, [1.2, 1.2, 1.3]).tolist() == [0.5] * 3

    def test_lanczos_slice(self):
        slc = protocol.truncated_slice(models.harmonic(), 250, check=False)
        assert slc.dim > spectra.DENSE_EIG_LIMIT
        taus = [0.8, 1.0, 1.3]
        scalar = [protocol.max_score(slc, t).p3_max for t in taus]
        assert protocol.p3_max(slc, taus).tolist() == scalar

    @pytest.mark.parametrize("mdl,n_hat", FIVE_MODELS)
    def test_score_state_matches_scalar_calls(self, mdl, n_hat):
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        state = protocol.max_score(slc, 1.1).state
        scores = protocol.score_state(state, TAUS)
        probs = protocol.round_probabilities(state, TAUS)
        assert scores.shape == TAUS.shape and probs.shape == TAUS.shape + (3,)
        for t, score, row in zip(TAUS, scores, probs):
            assert abs(score - protocol.score_state(state, t)) <= 1e-15
            assert np.max(np.abs(
                row - protocol.round_probabilities(state, t))) <= 1e-15

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1),
                                       (2, 1, 0)])
    def test_range_check_names_the_first_bad_value(self, order):
        bad = np.array([np.nan, -2e-12, 1.0 + 2e-12])[list(order)]
        values = np.insert(bad, [0, 1, 3], [0.25, 1.0, 0.0])
        with pytest.raises(NumericalInstabilityError,
                           match=re.escape(f"Q3 value {float(bad[0])!r} ")):
            protocol._in_unit_range(values)
        assert protocol._in_unit_range([]).shape == (0,)

    def test_one_value_out_of_range_raises(self, harmonic_slice6):
        # with an all-ones sgn block, tau = 1.35 and 0.75 still score
        # inside [0, 1] and tau = 1.0 does not
        bad = dataclasses.replace(harmonic_slice6, sgn=np.ones((4, 3)))
        assert protocol.max_score(bad, 1.35).p3_max <= 1.0
        with pytest.raises(NumericalInstabilityError):
            protocol.p3_max(bad, [1.35, 1.0])
        amps = np.zeros(7, dtype=complex)
        amps[:3] = np.exp(0.25j * np.pi * np.arange(3)) / sqrt(3.0)
        state = protocol.QuantumState(bad, amps)
        assert protocol.score_state(state, 0.75) <= 1.0
        with pytest.raises(NumericalInstabilityError):
            protocol.score_state(state, [0.75, 1.0])


SEARCH_CASES = ([(models.kerr(a), n) for n in (4, 6)
                 for a in (-0.02, -0.01, 0.0, 0.01, 0.02)]
                + [(models.harmonic(), 4)])


def _serial_maximum(f):
    """The best of the serial golden searches on the sub-intervals, first
    of equal values."""
    edges = np.linspace(TAU_LO, TAU_HI, protocol.TAU_SEARCH_STARTS + 1)
    best = (None, -np.inf)
    for a, b in zip(edges[:-1], edges[1:]):
        x, v = golden_max_reference(f, float(a), float(b))
        if v > best[1]:
            best = (x, v)
    return best


class TestLockstepSearch:
    @pytest.mark.parametrize("mdl,n_hat", SEARCH_CASES, ids=[
        f"{m.describe()}-n{n}" for m, n in SEARCH_CASES])
    def test_matches_serial_search(self, mdl, n_hat):
        # scenarios (i) and (ii); kerr(-0.01) at n_hat = 4 has its maximum
        # on the interval end 0.75, where both searches stop short alike
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        ref = protocol.reference_state("psi6" if n_hat == 6 else "psi4", slc)
        for batched, scalar in [
                (lambda t: protocol.p3_max(slc, t),
                 lambda t: protocol.max_score(slc, t).p3_max),
                (lambda t: protocol.score_state(ref, t),
                 lambda t: protocol.score_state(ref, t))]:
            assert (protocol.maximize_over_tau(batched)
                    == _serial_maximum(scalar))

    def test_one_call_per_step(self, harmonic_slice6):
        calls = []

        def f(taus):
            calls.append(len(taus))
            return protocol.p3_max(harmonic_slice6, taus)

        protocol.maximize_over_tau(f)
        starts = protocol.TAU_SEARCH_STARTS
        assert calls[0] == 2 * starts and calls[-1] == starts
        assert all(0 < n <= starts for n in calls[1:])
        assert len(calls) < 30


class TestReferenceStates:
    def test_psi6_is_q3_eigenvector(self, harmonic_slice6):
        ref = protocol.reference_state("psi6", harmonic_slice6)
        r = protocol.max_score(harmonic_slice6, 1.0)
        overlap = abs(np.vdot(ref.amplitudes, r.state.amplitudes))
        assert overlap > 0.9999

    def test_psi4_moduli(self):
        slc = protocol.truncated_slice(models.harmonic(), 4, check=False)
        ref = protocol.reference_state("psi4", slc)
        assert np.allclose(np.abs(ref.amplitudes) ** 2,
                           [0.279, 0.191, 0.121, 0.309, 0.100], atol=1e-9)

    def test_unknown_kind(self, harmonic_slice6):
        with pytest.raises(DomainError):
            protocol.reference_state("psi5", harmonic_slice6)


class TestScan:
    def test_collects_errors_without_aborting(self):
        pts = protocol.scan_tau(models.infinite_well(), [0.4, -1.0, 0.5])
        assert pts[0].error is None
        assert pts[1].error is not None
        assert pts[2].error is None

    def test_fixed_window_policy(self):
        mdl = models.kerr(0.02)
        w = energy_window(mdl, 1.0)
        pts = protocol.scan_tau(mdl, [0.9, 1.0, 1.1], window=w)
        assert all(p.error is None for p in pts)
        assert abs(pts[1].p3_max - 0.6969) < 1e-3

    def test_fixed_truncation(self):
        pts = protocol.scan_tau(models.harmonic(), [0.9, 1.0], n_hat=6)
        assert all(p.error is None for p in pts)
        assert abs(pts[1].p3_max - 0.687) < 1e-3

    @pytest.mark.parametrize("mdl,n_hat", [(models.infinite_well(), 0),
                                           (models.harmonic(), -1)])
    def test_truncation_below_first_level(self, mdl, n_hat):
        with pytest.raises(DomainError, match="below the first"):
            protocol.truncated_slice(mdl, n_hat)
        with pytest.raises(DomainError, match="below the first"):
            protocol.scan_tau(mdl, [0.9, 1.0], n_hat=n_hat)

    def test_unbounded_spectrum_raises(self):
        # the harmonic window is [0, inf) at every tau: no point can score
        with pytest.raises(UnboundedSpectrumError):
            protocol.scan_tau(models.harmonic(), [0.9, 1.0])

    def test_csv(self):
        pts = protocol.scan_tau(models.infinite_well(), [0.4])
        text = protocol.scan_to_csv(pts)
        assert text.splitlines()[0] == "tau,p3_max,error"
        assert "0.4" in text


class TestScenarios:
    def test_ordering_and_json(self):
        mdl = models.kerr(0.01)
        res = protocol.scenario_compare(mdl, 6)
        assert [r.scenario for r in res] == ["i", "ii", "iii"]
        assert res[0].p3 >= res[1].p3 - 1e-10 >= res[2].p3 - 1e-10
        data = json.loads(protocol.scenarios_to_json(mdl, 6, res))
        assert data["n_hat"] == 6 and len(data["scenarios"]) == 3

    def test_harmonic_limit_tau(self):
        assert protocol.harmonic_limit_tau(6) == 1.0
        t4 = protocol.harmonic_limit_tau(4)
        assert abs(t4 - 1.1775) < 1e-3

    @pytest.mark.xfail(strict=True, reason="the tau search never scores "
                       "its interval ends, and this optimum lies at 0.75")
    def test_optimal_tau_at_interval_end(self):
        mdl = models.kerr(-0.01)
        at_end = protocol.max_score(protocol.truncated_slice(mdl, 4), 0.75)
        res = protocol.scenario_compare(mdl, 4)
        assert res[0].p3 >= at_end.p3_max - 1e-12

    def test_warns_on_strong_anharmonicity(self):
        with pytest.warns(UserWarning):
            protocol.scenario_compare(models.kerr(0.05), 6)

    def test_rejects_other_truncations(self):
        with pytest.raises(DomainError):
            protocol.scenario_compare(models.kerr(0.01), 5)


class TestSerialization:
    def test_score_result_json(self, harmonic_slice6):
        r = protocol.max_score(harmonic_slice6, 1.0)
        d = r.to_json_dict()
        assert d["model"] == "harmonic"
        assert len(d["amplitudes"]) == 7
        json.dumps(d)  # strictly serializable
