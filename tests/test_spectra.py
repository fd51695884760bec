"""Spectra: energies, eigenfunctions, sgn matrix elements vs oracles."""

import concurrent.futures
import json
import sys
import threading
import warnings
from fractions import Fraction
from math import pi, sqrt

import mpmath
import numpy as np
import pytest
import scipy.integrate as spi
import scipy.special as sps

from dyncert import models, protocol, spectra
from dyncert.classical import EnergyWindow, energy_window
from dyncert.errors import DomainError, EmptySliceError
from conftest import sgn_overlap_oracle


class TestEnergies:
    def test_harmonic(self):
        assert spectra.kerr_energy(0.0, 3) == 3.5

    def test_kerr_window_example(self):
        # tau = 1, alpha = 0.02: seven levels retained
        w = energy_window(models.kerr(0.02), 1.0)
        ns, es = spectra.levels(models.kerr(0.02), w)
        assert list(ns)[0] == 0
        assert all(w.e_min - 1e-12 <= e <= w.e_max + 1e-12 for e in es)

    def test_morse_levels(self):
        lam = 10.0
        assert spectra.morse_level_count(lam) == 10
        es = spectra.morse_energy(lam, np.arange(10))
        assert np.all(np.diff(es) > 0)
        assert es[-1] <= lam / 2.0  # all below dissociation

    def test_morse_threshold_level_is_not_bound(self):
        # at half-integer lambda the level n = lambda - 1/2 sits at E = De
        assert spectra.morse_level_count(1.5) == 1
        assert spectra.morse_level_count(5.5) == 5
        mdl = models.morse(5.5)
        slc = spectra.spectrum_slice(mdl, energy_window(mdl, 1.0))
        assert slc.indices == (0, 1, 2, 3, 4)
        assert 0.0 <= protocol.max_score(slc, 1.0).p3_max <= 1.0

    def test_pendulum_energy_vs_scipy(self):
        mdl = models.pendulum(-0.05)
        q = -1.0 / (4.0 * mdl.alpha) ** 2
        for n, (kind, order) in enumerate([("a", 0), ("b", 2), ("a", 2),
                                           ("b", 4)]):
            ref = (sps.mathieu_a(order, q) if kind == "a"
                   else sps.mathieu_b(order, q)) * abs(mdl.alpha)
            assert abs(spectra.pendulum_energy(mdl, n) - ref) < 1e-10

    def test_kerr_truncation_past_cap_names_the_level(self):
        # alpha = -0.002: the H0 <= 1/|alpha| cap keeps levels 0..499
        mdl = models.kerr(-0.002)
        assert protocol.truncated_slice(mdl, 499, check=False).dim == 500
        with pytest.raises(DomainError, match=r"Kerr level 500 lies past"):
            protocol.truncated_slice(mdl, 500, check=False)

    def test_morse_truncation_past_bound_states(self):
        mdl = models.morse(8.0)  # bound levels 0..7
        assert protocol.truncated_slice(mdl, 7, check=False).dim == 8
        with pytest.raises(DomainError, match=r"Morse level 8 is not bound"):
            protocol.truncated_slice(mdl, 8, check=False)

    def test_well_truncation_strict(self):
        w = energy_window(models.infinite_well(), 1.0)
        ns, _ = spectra.levels(models.infinite_well(), w)
        assert list(ns) == [2]

    def test_empty_slice(self):
        with pytest.raises(EmptySliceError):
            spectra.levels(models.infinite_well(), EnergyWindow(0.26, 0.27))


class TestEigenfunctions:
    @pytest.mark.parametrize("mdl,domain", [
        (models.harmonic(), (-12.0, 12.0)),
        (models.kerr(0.05), (-12.0, 12.0)),
        (models.pendulum(-0.05), (-np.pi, np.pi)),
        (models.morse(8.0), (-10.0, 4.0)),
        (models.infinite_well(), (-0.5, 0.5)),
    ])
    def test_normalization(self, mdl, domain):
        qs = np.linspace(domain[0], domain[1], 40001)
        n0 = 1 if mdl.kind == models.WELL else 0
        for n in range(n0, n0 + 5):
            v = spectra.eigenfunction_grid(mdl, n, qs)
            assert abs(np.trapezoid(v * v, qs) - 1.0) < 1e-7

    def test_harmonic_values_vs_scipy(self):
        xs = np.linspace(-4, 4, 9)
        for n in (0, 3, 6):
            ref = (sps.eval_hermite(n, xs) * np.exp(-xs * xs / 2)
                   / sqrt(2.0 ** n * sps.factorial(n) * sqrt(pi)))
            got = spectra.eigenfunction_grid(models.harmonic(), n, xs)
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_morse_values_vs_mpmath(self):
        lam, n = 8.0, 3
        a = 2 * lam - 2 * n - 1
        norm = mpmath.sqrt(mpmath.factorial(n) * a / mpmath.gamma(2 * lam - n))
        for x in (-2.0, -0.5, 0.0, 1.0):
            z = 2 * lam * mpmath.e ** x
            ref = float(norm * z ** (lam - n - 0.5) * mpmath.e ** (-z / 2)
                        * mpmath.laguerre(n, a, z))
            got = spectra.eigenfunction_grid(models.morse(lam), n, x)
            assert abs(got - abs(ref) * np.sign(ref)) < 1e-10 * max(1, abs(ref))


class TestMorsePolynomials:
    @pytest.mark.parametrize("lam", [5.0, 10.0, 20.0])
    def test_diag_closed_form_vs_mpmath(self, lam):
        # Pr[x > 0] = N^2 int_{2 lam}^inf z^(a-1) e^-z L_n^(a)(z)^2 dz with
        # z = 2 lam e^x; evaluated in high precision, this pins every bound
        # level's diagonal, polynomial (n <= 7) and quadrature, to ~1e-12.
        mdl = models.morse(lam)
        idx = np.arange(spectra.morse_level_count(lam))
        s = spectra.sgn_matrix(mdl, idx, check=False)
        with mpmath.workdps(40):
            for n in idx:
                n = int(n)
                a = 2 * lam - 2 * n - 1
                norm2 = (mpmath.factorial(n) * a
                         / mpmath.gamma(2 * lam - n))
                tail = mpmath.quad(
                    lambda z: z ** (a - 1) * mpmath.e ** (-z)
                    * mpmath.laguerre(n, a, z) ** 2,
                    [2 * lam, mpmath.inf])
                ref = float(2 * norm2 * tail - 1)
                assert abs(s[n, n] - ref) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            spectra.morse_diag_polynomial(8, 10.0)


class TestSgn:
    def test_harmonic_vs_mpmath_quadrature(self):
        s = spectra.sgn_matrix(models.harmonic(), np.arange(8), check=False)

        def psi(n, x):
            norm = mpmath.sqrt(2 ** n * mpmath.factorial(n)
                               * mpmath.sqrt(mpmath.pi))
            return mpmath.hermite(n, x) * mpmath.e ** (-x * x / 2) / norm

        for n, m in [(0, 1), (0, 3), (2, 5), (3, 6), (1, 6)]:
            ref = float(2 * mpmath.quad(lambda x: psi(n, x) * psi(m, x),
                                        [0, mpmath.inf]))
            assert abs(s[n, m] - ref) < 1e-12

    @pytest.mark.parametrize("e,o", [(0, 2049), (1024, 1025), (2000, 6001)])
    def test_harmonic_far_levels_vs_exact_binomials(self, e, o):
        # a_e b_o (-1)^floor((d-1)/2) / d, d = o - e, c_k = C(k, k/2) / 2^k
        with mpmath.workdps(40):
            c_e = mpmath.binomial(e, e // 2) / mpmath.mpf(2) ** e
            c_o = (mpmath.binomial(o - 1, (o - 1) // 2)
                   / mpmath.mpf(2) ** (o - 1))
            d = o - e
            ref = float((-1) ** ((d - 1) // 2)
                        * mpmath.sqrt(c_e * 2 * o / mpmath.pi * c_o) / d)
        s = spectra.sgn_matrix(models.harmonic(), [e, o], check=False)
        assert s[0, 1] == s[1, 0]
        assert abs(s[0, 1] - ref) <= 1e-13 * abs(ref)

    def test_harmonic_offset_window_is_a_sub_block(self):
        full = spectra.sgn_matrix(models.harmonic(), np.arange(120),
                                  check=False)
        part = spectra.sgn_matrix(models.harmonic(), np.arange(37, 120),
                                  check=False)
        assert np.array_equal(part, full[37:, 37:])

    def test_even_models_zero_diagonal(self):
        for mdl in (models.harmonic(), models.pendulum(-0.05),
                    models.infinite_well()):
            idx = (np.arange(1, 6) if mdl.kind == models.WELL
                   else np.arange(5))
            s = spectra.sgn_matrix(mdl, idx, check=False)
            assert np.max(np.abs(np.diag(s))) < 1e-12

    def test_morse_diag_vs_quadrature(self):
        for lam in (5.0, 10.0, 20.0):
            mdl = models.morse(lam)
            count = spectra.morse_level_count(lam)
            idx = np.arange(min(8, count))
            s = spectra.sgn_matrix(mdl, idx, check=False)
            for n in idx:
                ref = sgn_overlap_oracle(mdl, int(n), int(n))
                assert abs(s[n, n] - ref) < 1e-8

    @pytest.mark.parametrize("mdl,pairs", [
        (models.pendulum(-0.05), [(0, 1), (1, 2), (0, 3), (2, 3)]),
        (models.morse(8.0), [(0, 1), (1, 3), (2, 4), (0, 5)]),
        (models.infinite_well(), [(1, 2), (2, 3), (1, 4), (3, 4)]),
        (models.kerr(0.05), [(0, 1), (1, 2), (2, 5), (0, 3)]),
    ])
    def test_offdiag_vs_quadrature(self, mdl, pairs):
        nmax = max(max(p) for p in pairs)
        idx = (np.arange(1, nmax + 1) if mdl.kind == models.WELL
               else np.arange(nmax + 1))
        s = spectra.sgn_matrix(mdl, idx, check=False)
        pos_of = {int(n): i for i, n in enumerate(idx)}
        for n, m in pairs:
            ref = sgn_overlap_oracle(mdl, n, m)
            assert abs(s[pos_of[n], pos_of[m]] - ref) < 1e-8

    def test_builtin_check_passes(self):
        spectra.sgn_matrix(models.morse(8.0), np.arange(6), check=True)


class TestSpectrumSlice:
    def test_roundtrip(self, tmp_path):
        mdl = models.kerr(0.02)
        w = energy_window(mdl, 1.0)
        slc = spectra.spectrum_slice(mdl, w, check=False)
        path = tmp_path / "slice.json"
        slc.save(path)
        loaded = spectra.SpectrumSlice.load(path, mdl)
        assert loaded.indices == slc.indices
        assert np.allclose(loaded.energies, slc.energies)
        assert np.allclose(loaded.sgn, slc.sgn)

    def test_model_mismatch(self, tmp_path):
        mdl = models.kerr(0.02)
        slc = spectra.spectrum_slice(mdl, energy_window(mdl, 1.0),
                                     check=False)
        path = tmp_path / "slice.json"
        slc.save(path)
        with pytest.raises(DomainError):
            spectra.SpectrumSlice.load(path, models.kerr(0.03))

    def test_cache_key_distinct(self):
        w1 = EnergyWindow(0.0, 7.0)
        w2 = EnergyWindow(0.0, 7.5)
        k1 = spectra.slice_cache_key(models.harmonic(), w1)
        k2 = spectra.slice_cache_key(models.harmonic(), w2)
        assert k1 != k2

    def test_load_rejects_asymmetric_sgn(self, tmp_path):
        mdl = models.kerr(0.02)
        slc = spectra.spectrum_slice(mdl, energy_window(mdl, 1.0),
                                     check=False)
        data = slc.to_json_dict()
        data["sgn_matrix"][1] += 1e-6  # entry (0, 1) only
        path = tmp_path / "slice.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DomainError, match="symmetric"):
            spectra.SpectrumSlice.load(path, mdl)

    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            spectra.SpectrumSlice(models.harmonic(), (0, 1),
                                  np.array([0.5, 1.5]),
                                  np.array([[0.0, 2.0], [2.0, 0.0]]))


@pytest.fixture
def counted_mathieu(monkeypatch):
    """Empty the pendulum Mathieu cache and count the solves behind it."""
    calls = []
    solve = spectra.mathieu_eigensystem

    def counting(q_param, n_max):
        calls.append((q_param, n_max))
        return solve(q_param, n_max)

    monkeypatch.setattr(spectra, "mathieu_eigensystem", counting)
    monkeypatch.setattr(spectra, "_MATHIEU_CACHE", {})
    return calls


class TestPendulumMathieu:
    def test_grid_matches_pointwise_value(self):
        mdl = models.pendulum(-0.02)
        sol = spectra._pendulum_solutions(mdl, 6)[5]
        qs = np.linspace(-np.pi, np.pi, 2048)
        ref = np.array([sol.value(0.5 * phi) for phi in qs]) / sqrt(pi)
        got = spectra.eigenfunction_grid(mdl, 5, qs)
        assert got.shape == qs.shape
        assert np.array_equal(got, ref)
        point = spectra.eigenfunction_grid(mdl, 5, np.array(0.3))
        assert point.shape == ()
        assert point == sol.value(0.15) / sqrt(pi)

    def test_sgn_matches_pointwise_wronskian(self):
        mdl = models.pendulum(-0.05)
        idx = np.arange(9)
        es = spectra.pendulum_energy(mdl, idx)
        sols = spectra._pendulum_solutions(mdl, len(idx))
        ref = np.zeros((len(idx), len(idx)))
        for n in idx[::2]:
            for m in idx[1::2]:
                w = (sols[n].value(0.5 * pi) * sols[m].derivative(0.5 * pi)
                     - sols[n].value(0.0) * sols[m].derivative(0.0))
                ref[n, m] = ref[m, n] = (4.0 * abs(mdl.alpha) * w
                                         / (pi * (es[n] - es[m])))
        got = spectra.sgn_matrix(mdl, idx, energies=es, check=False)
        assert np.array_equal(got, ref)

    def test_one_solve_per_model(self, counted_mathieu):
        mdl = models.pendulum(-0.005)
        spectra.levels(mdl, energy_window(mdl, 1.0))
        protocol.truncated_slice(mdl, 40, check=False)
        spectra.eigenfunction_grid(mdl, 7, np.linspace(-1.0, 1.0, 11))
        spectra.pendulum_energy(mdl, 60)
        assert len(counted_mathieu) == 1

    def test_same_bytes_after_larger_truncation(self, counted_mathieu):
        mdl = models.pendulum(-0.02)
        window = energy_window(mdl, 1.0)

        def slice_bytes():
            slc = spectra.spectrum_slice(mdl, window, check=False)
            return json.dumps(slc.to_json_dict())

        cold = slice_bytes()
        spectra._MATHIEU_CACHE.clear()
        # n_hat = 28 reaches past the first solve's 20 levels; from n_hat =
        # 30 on, rotational pairs split by less than an ulp of their energy
        protocol.truncated_slice(mdl, 28, check=False)
        assert slice_bytes() == cold
        assert len(counted_mathieu) == 3  # cold, then base and grown solves

    def test_truncation_past_separatrix_names_the_pair(self):
        mdl = models.pendulum(-0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert protocol.truncated_slice(mdl, 28, check=False).dim == 29
            for n_hat in (30, 32, 40):
                with pytest.raises(DomainError, match=r"levels 29 and 30 .*"
                                   r"past the separatrix E = 6\.25"):
                    protocol.truncated_slice(mdl, n_hat, check=False)

    def test_threads_share_one_solve(self, counted_mathieu):
        mdl = models.pendulum(-0.01)
        start = threading.Barrier(8)

        def fill():
            start.wait(timeout=30)
            return spectra._pendulum_solutions(mdl, 20)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
                futures = [ex.submit(fill) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(counted_mathieu) == 1
        assert all(r is results[0] for r in results)
