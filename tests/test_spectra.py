"""Spectra: energies, eigenfunctions, sgn matrix elements vs oracles."""

import concurrent.futures
import json
import sys
import threading
import tracemalloc
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
from dyncert.errors import (DomainError, EmptySliceError,
                            NumericalInstabilityError)
from conftest import (full_sgn, mathieu_reference, pendulum_sgn_reference,
                      sgn_overlap_oracle)


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
        # level n is ce_n for even n and se_(n+1) for odd n
        mdl = models.pendulum(-0.05)
        q = -1.0 / (4.0 * mdl.alpha) ** 2
        for n in range(12):
            ref = (sps.mathieu_a(n, q) if n % 2 == 0
                   else sps.mathieu_b(n + 1, q)) * abs(mdl.alpha)
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

    @pytest.mark.parametrize("mdl", [
        models.harmonic(), models.kerr(0.02), models.pendulum(-0.05),
        models.infinite_well()], ids=lambda m: m.describe())
    def test_unbounded_spectrum_needs_finite_e_max(self, mdl):
        with pytest.raises(DomainError, match="unbounded"):
            spectra.levels(mdl, EnergyWindow(0.0, float("inf")))

    @pytest.mark.parametrize("mdl,e_min,e_max", [
        (models.harmonic(), 2.5, 40.5), (models.kerr(0.02), 0.0, 9.0),
        (models.kerr(-0.02), 3.0, float("inf")),
        (models.pendulum(-0.02), -6.25, 2.0), (models.morse(8.0), 1.0, 4.0),
        (models.infinite_well(), 0.25, 16.0)],
        ids=lambda v: v.describe() if isinstance(v, models.ModelSystem) else None)
    def test_levels_match_filtered_range(self, mdl, e_min, e_max):
        # every level from level_range that the window holds, and no other;
        # the well's edges 0.25 and 16.0 are levels 1 and 8, kept out
        first, last = spectra.level_range(mdl)
        ns = np.arange(first, 50 if last is None else last + 1)
        es = spectra.level_energies(mdl, ns)
        strict = mdl.kind == models.WELL
        keep = ((es > e_min) & (es < e_max) if strict
                else (es >= e_min) & (es <= e_max))
        got_ns, got_es = spectra.levels(mdl, EnergyWindow(e_min, e_max))
        assert np.array_equal(got_ns, ns[keep])
        assert np.array_equal(got_es, es[keep])

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

    @pytest.mark.parametrize("mdl", [
        models.harmonic(), models.kerr(0.05), models.pendulum(-0.05),
        models.morse(8.0), models.infinite_well()])
    @pytest.mark.parametrize("shape", [(41,), (5, 7)])
    def test_table_matches_scalar_calls(self, mdl, shape):
        # unsorted, repeated levels; points on either side of a box edge
        ns = np.array([5, 0, 3, 3]) + (1 if mdl.kind == models.WELL else 0)
        lo, hi = spectra.position_span(mdl, 6)
        qs = np.linspace(1.1 * lo, 1.1 * hi, np.prod(shape)).reshape(shape)
        ref = np.stack([spectra.eigenfunction_grid(mdl, int(n), qs)
                        for n in ns])
        for levels in (ns, ns.reshape(2, 2)):
            got = spectra.eigenfunction_grid(mdl, levels, qs)
            assert got.shape == levels.shape + qs.shape
            assert np.array_equal(got, ref.reshape(got.shape))

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


# The paper's Morse diagonal, a reference for the quadrature at n <= 7:
# <n|sgn(X)|n> = 4 a P^n(lam) (2 lam)^a e^(-2 lam) / Gamma(2 lam - n)
#                + 2 Q(a, 2 lam) - 1, a = 2 lam - 2n - 1,
# with exact rational coefficients of P^n, lowest power first.
MORSE_POLYS = {
    0: [Fraction(0)],
    1: [Fraction(1)],
    2: [Fraction(6), Fraction(2)],
    3: [Fraction(180), Fraction(-42), Fraction(32, 3)],
    4: [Fraction(6440), Fraction(-5828, 3), Fraction(190), Fraction(58, 3)],
    5: [Fraction(347760), Fraction(-140604), Fraction(102376, 5),
        Fraction(-4912, 5), Fraction(212, 3)],
    6: [Fraction(23617440), Fraction(-10818312), Fraction(8950344, 5),
        Fraction(-1726232, 15), Fraction(125644, 45), Fraction(380, 3)],
    7: [Fraction(1979385408), Fraction(-4965563888, 5),
        Fraction(6608820632, 35), Fraction(-5199530008, 315),
        Fraction(73504376, 105), Fraction(-553792, 45), Fraction(1192, 3)],
}


def morse_diag_closed_form(lam, n):
    a = 2.0 * lam - 2.0 * n - 1.0
    poly = sum(float(c) * lam ** k for k, c in enumerate(MORSE_POLYS[n]))
    first = 0.0
    if poly != 0.0:
        first = np.sign(poly) * np.exp(
            np.log(4.0 * a * abs(poly)) + a * np.log(2.0 * lam) - 2.0 * lam
            - sps.gammaln(2.0 * lam - n))
    return first + 2.0 * sps.gammaincc(a, 2.0 * lam) - 1.0


class TestMorsePolynomials:
    @pytest.mark.parametrize("lam", [5.0, 10.0, 20.0])
    def test_diag_closed_form_vs_mpmath(self, lam):
        # Pr[x > 0] = N^2 int_{2 lam}^inf z^(a-1) e^-z L_n^(a)(z)^2 dz with
        # z = 2 lam e^x; evaluated in high precision, this pins every bound
        # level's diagonal to 1e-13.
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
                assert abs(s[n, n] - ref) < 1e-13

    @pytest.mark.parametrize("lam", [0.6, 1.7, 5.5, 8.0, 12.5, 40.0])
    def test_diag_vs_paper_polynomials(self, lam):
        count = min(8, spectra.morse_level_count(lam))
        s = spectra.sgn_matrix(models.morse(lam), np.arange(count),
                               check=False)
        for n in range(count):
            ref = morse_diag_closed_form(lam, n)
            assert abs(s[n, n] - ref) < 2e-13


class TestSgn:
    def test_harmonic_vs_mpmath_quadrature(self):
        s = full_sgn(models.harmonic(), np.arange(8))

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
        s = full_sgn(models.harmonic(), [e, o])
        assert s[0, 1] == s[1, 0]
        assert abs(s[0, 1] - ref) <= 1e-13 * abs(ref)

    def test_harmonic_offset_window_is_a_sub_block(self):
        full = full_sgn(models.harmonic(), np.arange(120))
        part = full_sgn(models.harmonic(), np.arange(37, 120))
        assert np.array_equal(part, full[37:, 37:])

    def test_even_models_zero_diagonal(self):
        # only the even x odd block is held, so the diagonal and the
        # same-parity entries are zero by layout
        for mdl in (models.harmonic(), models.pendulum(-0.05),
                    models.infinite_well()):
            idx = (np.arange(1, 6) if mdl.kind == models.WELL
                   else np.arange(5))
            s = spectra.sgn_matrix(mdl, idx, check=False)
            assert s.shape == (np.sum(idx % 2 == 0), np.sum(idx % 2 == 1))
            assert np.max(np.abs(np.diag(full_sgn(mdl, idx)))) == 0.0

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
        s = full_sgn(mdl, idx)
        pos_of = {int(n): i for i, n in enumerate(idx)}
        for n, m in pairs:
            ref = sgn_overlap_oracle(mdl, n, m)
            assert abs(s[pos_of[n], pos_of[m]] - ref) < 1e-8

    def test_builtin_check_passes(self):
        spectra.sgn_matrix(models.morse(8.0), np.arange(6), check=True)

    def test_builtin_check_fails_on_nan_reference(self, monkeypatch):
        monkeypatch.setattr(spectra, "sgn_quadrature",
                            lambda model, pairs: np.full(len(pairs), np.nan))
        with pytest.raises(NumericalInstabilityError):
            spectra.sgn_matrix(models.harmonic(), np.arange(4), check=True)


def head_pairs(model, indices):
    """The (n, m) level pairs of the entries the built-in check compares."""
    rows, cols = spectra.sgn_positions(model, indices)
    return [(int(indices[rows[i]]), int(indices[cols[j]]))
            for i in range(min(3, len(rows)))
            for j in range(i, min(i + 2, len(cols)))]


def one_pair_quadrature(model, n, m):
    """<n|sgn(Q)|m> by the trapezoid rule on the span of level max(n, m),
    one two-level table per half-line."""
    lo, hi = spectra.position_span(model, max(n, m))
    plus, minus = (
        np.trapezoid(np.prod(spectra.eigenfunction_grid(model, [n, m], xs),
                             axis=0), xs)
        for xs in (np.linspace(0.0, hi, spectra.SGN_QUADRATURE_POINTS),
                   np.linspace(lo, 0.0, spectra.SGN_QUADRATURE_POINTS)))
    return plus - minus


class TestSgnQuadrature:
    @pytest.mark.parametrize("mdl,indices", [
        (models.harmonic(), np.arange(7)),
        (models.kerr(0.02), spectra.levels(
            models.kerr(0.02), energy_window(models.kerr(0.02), 1.0))[0]),
        (models.infinite_well(), spectra.levels(
            models.infinite_well(), energy_window(models.infinite_well(), 0.1))[0]),
        (models.pendulum(-0.02), np.arange(8)),
        (models.morse(8.0), np.arange(8)),
    ], ids=["harmonic-n6", "kerr(0.02)", "well@0.1", "pendulum(-0.02)", "morse(8)"])
    def test_pairs_match_one_pair_calls(self, mdl, indices):
        # a table shared by the pairs of one span changes no reference bit
        pairs = head_pairs(mdl, indices)
        got = spectra.sgn_quadrature(mdl, pairs)
        assert got.shape == (len(pairs),)
        assert np.array_equal(
            got, [spectra.sgn_quadrature(mdl, [p])[0] for p in pairs])
        assert np.array_equal(
            got, [one_pair_quadrature(mdl, n, m) for n, m in pairs])

    def test_nan_in_last_pair_of_a_span_group_is_named(self, monkeypatch):
        # every well pair shares the span [-1/2, 1/2]; the top column level
        # enters the last pair alone, and a NaN in its row fails that entry
        mdl = models.infinite_well()
        indices = spectra.levels(mdl, energy_window(mdl, 0.1))[0]
        pairs = head_pairs(mdl, indices)
        assert len({spectra.position_span(mdl, max(p)) for p in pairs}) == 1
        n, m = pairs[-1]
        assert all(m not in p for p in pairs[:-1])
        grid = spectra.eigenfunction_grid

        def nan_row(model, ns, qs):
            out = grid(model, ns, qs)
            out[np.asarray(ns) == m] = np.nan
            return out

        monkeypatch.setattr(spectra, "eigenfunction_grid", nan_row)
        with pytest.raises(NumericalInstabilityError,
                           match=rf"entry \({n},{m}\) = .* quadrature nan"):
            spectra.sgn_matrix(mdl, indices, check=True)

    @pytest.mark.xfail(strict=True, raises=NumericalInstabilityError,
                       reason="one uniform step over the span of a "
                       "near-threshold Morse level under-resolves the ground "
                       "state: entry (0, 20) misses by 2.5e-6")
    def test_near_threshold_morse_pair_passes_the_check(self):
        spectra.sgn_matrix(models.morse(20.6), np.array([0, 20]), check=True)


class TestPositionSpan:
    @pytest.mark.parametrize("mdl,ns", [
        (models.harmonic(), [0, 1, 50, 300]),
        (models.kerr(-0.02), [0, 7, 24]),
        (models.pendulum(-0.02), [0, 5]),
        (models.morse(5.0), [0, 2, 4]),
        (models.morse(20.0), [0, 10, 19]),
        # top levels whose left tails decay like exp(0.2 x) or slower
        (models.morse(0.6), [0]),
        (models.morse(1.7), [0, 1]),
        (models.morse(2.6), [0, 1, 2]),
        (models.infinite_well(), [1, 2, 9]),
    ])
    def test_holds_each_level_up_to_n(self, mdl, ns):
        top = max(ns)
        lo, hi = spectra.position_span(mdl, top)
        assert lo < 0.0 < hi
        qs = np.linspace(lo, hi, 100001)
        for n in ns:
            psi = spectra.eigenfunction_grid(mdl, n, qs)
            assert np.trapezoid(psi * psi, qs) >= 1.0 - 1e-8

    def test_slow_morse_tail_passes_the_quadrature_check(self):
        # the check integrates over the span: a short left reach loses
        # ~2e-6 of the ground state of morse(0.6), beyond SGN_CHECK_TOL
        slc = protocol.truncated_slice(models.morse(0.6), 0, check=True)
        assert slc.indices == (0,)

    def test_kerr_uses_the_harmonic_rule_by_index(self):
        assert (spectra.position_span(models.kerr(0.3), 12)
                == spectra.position_span(models.harmonic(), 12)
                == (-10.0, 10.0))


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

    @pytest.mark.parametrize("mdl,n_hat", [
        (models.harmonic(), 300), (models.pendulum(-0.02), 20),
        (models.infinite_well(), 30), (models.morse(8.0), 6)])
    def test_roundtrip_v2_is_exact(self, tmp_path, mdl, n_hat):
        # schema v2 holds a parity-even slice's block: a Toeplitz generator
        # for harmonic above DENSE_EIG_LIMIT, else the dense block
        slc = protocol.truncated_slice(mdl, n_hat, check=False)
        path = tmp_path / "slice.json"
        slc.save(path)
        loaded = spectra.SpectrumSlice.load(path, mdl)
        assert type(loaded.sgn) is type(slc.sgn)
        assert loaded.sgn.shape == slc.sgn.shape
        assert np.array_equal(loaded.sgn[:], slc.sgn[:])
        assert json.dumps(loaded.to_json_dict()) == json.dumps(
            slc.to_json_dict())
        assert json.loads(path.read_text())["schema"] == \
            "dyncert.spectrum-slice.v2"

    @pytest.mark.parametrize("mdl,n_hat,tau", [
        (models.harmonic(), 300, None), (models.kerr(0.02), 20, None),
        (models.pendulum(-0.02), 20, None), (models.morse(8.0), 6, None),
        (models.infinite_well(), 30, None),
        # the well's one-parity slice, the single level n = 2
        (models.infinite_well(), None, 1.2)])
    def test_positions_match_sgn_positions(self, mdl, n_hat, tau):
        # also on a slice read back as the CLI's --cache reads it
        slc = (protocol.truncated_slice(mdl, n_hat, check=False)
               if tau is None
               else spectra.spectrum_slice(mdl, energy_window(mdl, tau)))
        data = json.loads(json.dumps(slc.to_json_dict()))
        for s in (slc, spectra.SpectrumSlice.from_json_dict(data, mdl)):
            ref = spectra.sgn_positions(mdl, s.indices)
            assert len(s.positions) == 2
            assert all(np.array_equal(a, b) for a, b in zip(s.positions, ref))

    def test_load_rejects_short_toeplitz_generator(self, tmp_path):
        mdl = models.harmonic()
        data = protocol.truncated_slice(mdl, 300, check=False).to_json_dict()
        data["sgn"]["toeplitz"][2].pop()
        path = tmp_path / "slice.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DomainError, match="Toeplitz"):
            spectra.SpectrumSlice.load(path, mdl)

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
        # a parity-even slice holds only its even x odd block; Morse holds
        # the full matrix, whose symmetry a cache file can break
        mdl = models.morse(8.0)
        slc = spectra.spectrum_slice(mdl, energy_window(mdl, 1.0),
                                     check=False)
        data = slc.to_json_dict()
        data["sgn"]["dense"][1] += 1e-6  # entry (0, 1) only
        path = tmp_path / "slice.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DomainError, match="symmetric"):
            spectra.SpectrumSlice.load(path, mdl)

    def test_nan_sgn_rejected(self):
        sgn = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(DomainError, match="symmetric"):
            spectra.SpectrumSlice(models.morse(8.0), (0, 1),
                                  np.array([0.5, 1.5]), sgn)
        with pytest.raises(DomainError, match="finite"):
            spectra.SpectrumSlice(models.harmonic(), (0, 1),
                                  np.array([0.5, 1.5]), np.array([[np.nan]]))

    def test_invariants_enforced(self):
        with pytest.raises(DomainError, match="shape"):
            spectra.SpectrumSlice(models.harmonic(), (0, 1),
                                  np.array([0.5, 1.5]),
                                  np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(DomainError, match=r"\[-1, 1\]"):
            spectra.SpectrumSlice(models.harmonic(), (0, 1),
                                  np.array([0.5, 1.5]), np.array([[2.0]]))


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
        sol = spectra._pendulum_solutions(mdl, 6)[0][5]
        qs = np.linspace(-np.pi, np.pi, 2048)
        ref = mathieu_reference(sol, 0.5 * qs) / sqrt(pi)
        got = spectra.eigenfunction_grid(mdl, 5, qs)
        assert got.shape == qs.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(sol.value(0.5 * qs),
                              mathieu_reference(sol, 0.5 * qs))
        point = spectra.eigenfunction_grid(mdl, 5, np.array(0.3))
        assert point.shape == ()
        assert point == mathieu_reference(sol, 0.15) / sqrt(pi)
        assert sol.value(0.15) == mathieu_reference(sol, 0.15)
        assert sol.derivative(0.15) == mathieu_reference(sol, 0.15, True)

    def test_sgn_matches_pointwise_wronskian(self):
        mdl = models.pendulum(-0.05)
        idx = np.arange(9)
        ref = pendulum_sgn_reference(mdl, idx)
        got = spectra.sgn_matrix(mdl, idx, check=False)
        assert np.array_equal(got, ref)

    def test_unsorted_repeated_levels_match_reference(self):
        mdl = models.pendulum(-0.02)
        ns = np.array([[5, 0, 3], [3, 6, 1]])
        qs = np.linspace(-np.pi, np.pi, 154).reshape(2, 77)
        sols = spectra._pendulum_solutions(mdl, 7)[0]
        got = spectra.eigenfunction_grid(mdl, ns, qs)
        assert got.shape == ns.shape + qs.shape
        for n, row in zip(ns.ravel(), got.reshape(ns.size, *qs.shape)):
            assert np.array_equal(
                row, mathieu_reference(sols[n], 0.5 * qs) / sqrt(pi))

    def test_levels_across_a_doubling_match_reference(self, counted_mathieu):
        # 11 levels come from the first solve, 11..19 from a doubled one
        # with longer coefficient vectors; the two are never padded together
        mdl = models.pendulum(-0.05)
        qs = np.linspace(-np.pi, np.pi, 1001)
        spectra.eigenfunction_grid(mdl, np.arange(11), qs)
        ns = np.array([19, 0, 12, 10, 11, 1, 17, 2])
        got = spectra.eigenfunction_grid(mdl, ns, qs)
        sols = spectra._pendulum_solutions(mdl, 20)[0]
        assert len(counted_mathieu) == 2
        assert len({len(sols[n].coeffs) for n in ns}) == 2
        for n, row in zip(ns, got):
            assert np.array_equal(
                row, mathieu_reference(sols[n], 0.5 * qs) / sqrt(pi))
        # levels 17 and 18 are degenerate past the separatrix
        idx = np.arange(3, 17)
        assert np.array_equal(spectra.sgn_matrix(mdl, idx, check=False),
                              pendulum_sgn_reference(mdl, idx))

    def test_checked_table_stays_inside_one_basis(self):
        # 40 levels at 40001 points: no more than one level's
        # (points x coefficients) basis on top of the table itself
        mdl = models.pendulum(-0.005)
        sols = spectra._pendulum_solutions(mdl, 40)[0]
        qs = np.linspace(0.0, np.pi, spectra.SGN_QUADRATURE_POINTS)
        tracemalloc.start()
        try:
            table = spectra.eigenfunction_grid(mdl, np.arange(40), qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        basis = qs.size * max(len(s.coeffs) for s in sols[:40]) * 8
        assert peak <= basis + table.nbytes

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
