"""Q3 assembly, score maximization, tau scans, scenario comparisons."""

import dataclasses
import json
from math import sqrt

import numpy as np
import pytest

from dyncert import models, protocol
from dyncert.classical import energy_window
from dyncert.errors import DomainError, NumericalInstabilityError
from dyncert.numerics import DENSE_EIG_LIMIT, hermitian_max_eigenpair


class TestQuantumState:
    def test_norm_enforced(self, harmonic_slice6):
        with pytest.raises(DomainError):
            protocol.QuantumState(harmonic_slice6,
                                  np.ones(7, dtype=complex))

    def test_shape_enforced(self, harmonic_slice6):
        with pytest.raises(DomainError):
            protocol.QuantumState(harmonic_slice6,
                                  np.array([1.0 + 0j, 0.0]))


class TestBuildQ3:
    def test_hermitian_and_bounded(self, harmonic_slice6):
        q = protocol.build_q3(harmonic_slice6, 1.3).entries
        assert np.max(np.abs(q - q.conj().T)) < 1e-14
        eigs = np.linalg.eigvalsh(q)
        assert eigs[0] >= -1e-12 and eigs[-1] <= 1.0 + 1e-12

    def test_matches_direct_formula(self, harmonic_slice6):
        tau = 0.9
        slc = harmonic_slice6
        q = protocol.build_q3(slc, tau).entries
        es = np.asarray(slc.energies)
        for i in range(slc.dim):
            for j in range(slc.dim):
                theta = 2 * np.pi * (es[i] - es[j]) / 3.0
                ref = (0.5 if i == j else 0.0)
                ref += slc.sgn[i, j] / 6.0 * sum(
                    np.exp(1j * k * tau * theta) for k in range(3))
                assert abs(q[i, j] - ref) < 1e-14


class TestMaxScore:
    def test_harmonic_six(self, harmonic_slice6):
        r = protocol.max_score(harmonic_slice6, 1.0)
        assert abs(r.p3_max - 0.687) < 1e-3

    def test_matrix_free_matches_dense(self, harmonic_slice6):
        dense = protocol.max_score(harmonic_slice6, 1.0).p3_max
        from dyncert.numerics import hermitian_max_eigenpair
        op = protocol._q3_operator(harmonic_slice6, 1.0)
        val, _ = hermitian_max_eigenpair(op)
        assert abs(val - dense) < 1e-9

    @pytest.mark.parametrize("mdl,n_hat", [
        (models.harmonic(), 40), (models.kerr(0.02), 20),
        (models.pendulum(-0.02), 20), (models.morse(8.0), 6),
        (models.infinite_well(), 30)])
    def test_packed_matvec_matches_dense(self, mdl, n_hat):
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        rng = np.random.default_rng(n_hat)
        for tau in (0.75, 1.0, 1.3):
            v = np.array([1.0, 1j]) @ rng.standard_normal((2, slc.dim))
            got = protocol._q3_operator(slc, tau).matvec(v)
            ref = protocol.build_q3(slc, tau).entries @ v
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_degenerate_top_at_boundary_taus(self):
        # at tau = 3/4 and 3/2 the harmonic top eigenvalue 2/3 is ~93-fold
        # degenerate at n_hat = 200; Lanczos still stops early on it
        slc = protocol.truncated_slice(models.harmonic(), 200, check=False)
        assert slc.dim > DENSE_EIG_LIMIT
        for tau in (0.75, 1.5):
            op = protocol._q3_operator(slc, tau)
            calls = []
            matvec = op.matvec
            op.matvec = lambda v: calls.append(1) or matvec(v)
            val, _ = hermitian_max_eigenpair(op)
            assert abs(val - 2.0 / 3.0) < 1e-9
            assert len(calls) < 40
            assert abs(protocol.max_score(slc, tau).p3_max - 2.0 / 3.0) < 1e-9

    def test_score_state_consistent(self, harmonic_slice6):
        r = protocol.max_score(harmonic_slice6, 1.0)
        assert abs(protocol.score_state(r.state, 1.0) - r.p3_max) < 1e-12

    def test_corrupted_sgn_raises(self, harmonic_slice6):
        # symmetric, zero diagonal and entries in [-1, 1], so the slice
        # accepts it; its spectrum (6 and -1) puts Q3 outside [0, 1]
        bad = dataclasses.replace(harmonic_slice6,
                                  sgn=np.ones((7, 7)) - np.eye(7))
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
        pts = protocol.scan_tau(mdl, [0.9, 1.0, 1.1],
                                window_policy="fixed", window=w)
        assert all(p.error is None for p in pts)
        assert abs(pts[1].p3_max - 0.6969) < 1e-3

    def test_fixed_truncation(self):
        pts = protocol.scan_tau(models.harmonic(), [0.9, 1.0], n_hat=6)
        assert all(p.error is None for p in pts)
        assert abs(pts[1].p3_max - 0.687) < 1e-3

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
