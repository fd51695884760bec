"""Special functions and linear algebra against scipy/mpmath oracles."""

from math import exp, pi, sqrt

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from dyncert.errors import ConvergenceError, DomainError
from dyncert.numerics import (HermitianOperator, elliptic_K,
                              elliptic_K_inverse, hermitian_max_eigenpair,
                              jacobi_sn_cn_dn, laguerre, mathieu_eigensystem,
                              quad_inverse_sqrt)


class TestEllipticK:
    @pytest.mark.parametrize("m", [0.0, 0.1, 0.5, 0.9, 0.99, 0.999999])
    def test_against_scipy(self, m):
        assert abs(elliptic_K(m) - sps.ellipk(m)) < 1e-13 * sps.ellipk(m)

    @pytest.mark.parametrize("m", [0.0, 0.3, 0.8, 0.999])
    def test_inverse_roundtrip(self, m):
        assert abs(elliptic_K_inverse(elliptic_K(m)) - m) < 1e-10

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            elliptic_K_inverse(pi / 2 - 1e-6)


class TestJacobiElliptic:
    @staticmethod
    def grid():
        """u across [-10, 10], a per-element m in [0, 0.999] incl. m = 0."""
        u = np.linspace(-10.0, 10.0, 4001)
        m = np.random.default_rng(5).uniform(0.0, 0.999, u.size)
        m[::10] = 0.0
        m[-1] = 0.999
        return u, m

    def test_against_scipy(self):
        u, m = self.grid()
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        ref_sn, ref_cn, ref_dn, _ = sps.ellipj(u, m)
        assert np.max(np.abs(sn - ref_sn)) <= 1e-14
        assert np.max(np.abs(cn - ref_cn)) <= 1e-14
        # scipy's dn = cn / cos(phi_1 - phi_0) is itself off by up to 1.1e-14
        # near |u| = 8 (against mpmath); test_against_mpmath bounds ours
        assert np.max(np.abs(dn - ref_dn)) <= 2e-14

    def test_against_mpmath(self):
        u, m = (x[::20] for x in self.grid())
        ours = jacobi_sn_cn_dn(u, m)
        with mpmath.workdps(30):
            for name, values in zip(("sn", "cn", "dn"), ours):
                ref = [float(mpmath.ellipfun(name, x, m=k)) for x, k in zip(u, m)]
                assert np.max(np.abs(values - ref)) <= 1e-14

    def test_zero_parameter_is_trigonometric(self):
        u = np.linspace(-10.0, 10.0, 401)
        sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
        assert np.array_equal(sn, np.sin(u)) and np.array_equal(cn, np.cos(u))
        assert np.max(np.abs(dn - 1.0)) <= 1e-15

    @pytest.mark.parametrize("m", [-0.1, 1.0])
    def test_rejects_m_outside_unit_interval(self, m):
        with pytest.raises(DomainError):
            jacobi_sn_cn_dn(0.3, m)


class TestLaguerre:
    @pytest.mark.parametrize("n,a", [(0, 0.5), (3, 2.0), (7, 14.3), (20, 0.1)])
    def test_against_scipy(self, n, a):
        zs = np.linspace(0.0, 50.0, 101)
        ours = laguerre(n, a, zs)
        ref = sps.genlaguerre(n, a)(zs)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(ours - ref) / scale) < 1e-10


class TestMathieu:
    # level n is ce_n for even n and se_(n+1) for odd n
    def test_characteristic_values(self):
        q = -6.25  # pendulum alpha = -0.1
        sols = mathieu_eigensystem(q, 9)
        assert len(sols) == 9
        for n, sol in enumerate(sols):
            if n % 2 == 0:
                assert (sol.parity, sol.order) == ("even", n)
                ref = sps.mathieu_a(n, q)
            else:
                assert (sol.parity, sol.order) == ("odd", n + 1)
                ref = sps.mathieu_b(n + 1, q)
            assert abs(sol.char_value - ref) < 1e-10 * max(1, abs(ref))

    def test_function_values(self):
        q = -6.25
        sols = mathieu_eigensystem(q, 4)
        xs = np.linspace(-1.5, 1.5, 7)
        for sol, (kind, order) in zip(sols, [("ce", 0), ("se", 2),
                                             ("ce", 2), ("se", 4)]):
            for x in xs:
                if kind == "ce":
                    ref, dref = sps.mathieu_cem(order, q, np.degrees(x))
                else:
                    ref, dref = sps.mathieu_sem(order, q, np.degrees(x))
                got = sol.value(x)
                # scipy fixes the sign differently for some orders
                sign = 1.0 if kind == "ce" else np.sign(
                    sol.derivative(0.0) * sps.mathieu_sem(order, q, 1e-7)[0])
                if sign == 0:
                    sign = 1.0
                assert abs(got - sign * ref) < 1e-9

    def test_orthonormality(self):
        sols = mathieu_eigensystem(-2.0, 12)
        xs = np.linspace(-pi, pi, 4001)
        vals = np.array([s.value(xs) for s in sols])
        for i, va in enumerate(vals):
            assert abs(np.trapezoid(va * va, xs) / pi - 1.0) < 1e-7
            for vb in vals[i + 1:]:
                assert abs(np.trapezoid(va * vb, xs)) < 1e-7

    def test_rejects_no_levels(self):
        with pytest.raises(DomainError):
            mathieu_eigensystem(-2.0, 0)


class TestQuadInverseSqrt:
    def test_arcsine_singularity(self):
        val = quad_inverse_sqrt(lambda x: 1.0 / sqrt(x * (1.0 - x)), 0.0, 1.0)
        assert abs(val - pi) < 1e-8

    def test_one_sided_singularity(self):
        val = quad_inverse_sqrt(lambda x: 1.0 / sqrt(x), 0.0, 1.0)
        assert abs(val - 2.0) < 1e-8

    def test_smooth(self):
        val = quad_inverse_sqrt(np.cos, 0.0, 1.0)
        assert abs(val - np.sin(1.0)) < 1e-10

    def test_scaled_interval(self):
        val = quad_inverse_sqrt(lambda x: 1.0 / sqrt((x - 2.0) * (5.0 - x)),
                                2.0, 5.0)
        assert abs(val - pi) < 1e-8


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


class TestHermitianEig:
    def test_matches_numpy_dense(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        h = (a + a.conj().T) / 2
        val, vec = hermitian_max_eigenpair(HermitianOperator(
            40, lambda v: h @ v, norm_bound=np.linalg.norm(h, 2)))
        ref = np.linalg.eigvalsh(h)[-1]
        assert abs(val - ref) < 1e-10 * max(1, abs(ref))
        assert np.linalg.norm(h @ vec - val * vec) < 1e-8

    def test_operator_power_iteration(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((300, 300))
        h = a @ a.T  # PSD: dominant eigenvalue is the largest
        op = HermitianOperator(300, lambda v: h @ v,
                               norm_bound=np.linalg.norm(h, 2))
        val, vec = hermitian_max_eigenpair(op)
        ref = np.linalg.eigvalsh(h)[-1]
        assert abs(val - ref) < 1e-7 * ref

    @pytest.mark.parametrize("dim", [1, 2, 3, 10, 150, 222])
    def test_lanczos_matches_eigvalsh(self, dim):
        h = _random_hermitian(dim, seed=dim)
        norm = np.linalg.norm(h, 2)
        ref = np.linalg.eigvalsh(h)[-1]
        op = HermitianOperator(dim, lambda v: h @ v, norm_bound=norm)
        val, vec = hermitian_max_eigenpair(op)
        assert abs(val - ref) < 1e-12 * norm
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert np.linalg.norm(h @ vec - val * vec) <= 1e-10 * norm

    def test_top_below_a_larger_negative_eigenvalue(self):
        # power iteration would lock onto -5; Lanczos needs no PSD shift
        q, _ = np.linalg.qr(_random_hermitian(40, seed=6))
        eigs = np.linspace(-5.0, 1.0, 40)
        h = (q * eigs) @ q.conj().T
        op = HermitianOperator(40, lambda v: h @ v, norm_bound=5.0)
        val, _ = hermitian_max_eigenpair(op)
        assert abs(val - 1.0) < 1e-12

    def test_invariant_subspace_breakdown(self):
        # three distinct eigenvalues: the Krylov space closes after three
        # vectors (beta = 0 to round-off) and the top Ritz pair is exact
        q, _ = np.linalg.qr(_random_hermitian(50, seed=7))
        eigs = np.repeat([-1.0, 0.25, 2.0], [20, 20, 10])
        h = (q * eigs) @ q.conj().T
        calls = []
        val, vec = hermitian_max_eigenpair(HermitianOperator(
            50, lambda v: calls.append(1) or h @ v, norm_bound=2.0))
        assert len(calls) == 4  # three Krylov vectors plus the check
        assert abs(val - 2.0) < 1e-12
        assert np.linalg.norm(h @ vec - val * vec) <= 2e-10
        val, _ = hermitian_max_eigenpair(HermitianOperator(
            5, lambda v: 3.0 * v, norm_bound=3.0))
        assert val == pytest.approx(3.0, abs=1e-14)

    def test_krylov_budget_raises_with_residual(self):
        h = _random_hermitian(200, seed=8)
        op = HermitianOperator(200, lambda v: h @ v,
                               norm_bound=np.linalg.norm(h, 2))
        with pytest.raises(ConvergenceError) as info:
            hermitian_max_eigenpair(op, max_krylov=4)
        assert np.isfinite(info.value.residual)
        assert info.value.residual > 1e-10 * op.norm_bound

    def test_bit_identical_reruns(self):
        h = _random_hermitian(180, seed=9)
        op = HermitianOperator(180, lambda v: h @ v, norm_bound=50.0)
        lam1, v1 = hermitian_max_eigenpair(op)
        lam2, v2 = hermitian_max_eigenpair(op)
        assert lam1 == lam2 and np.array_equal(v1, v2)
