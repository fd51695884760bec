"""Wigner grids: positivity, negativity, marginal identities, symmetry."""

import json

import numpy as np
import pytest

from dyncert import cli, models, phasespace, protocol, spectra
from dyncert.classical import energy_window
from dyncert.errors import DomainError


def full_line_wigner(state, q_axis, p_axis, n_y=2001):
    """W(q, p) by the trapezoid rule over y in [-L, L], L half the
    state's span, with one complex kernel, in chunks of p."""
    lo, hi = spectra.position_span(state.slice.model, max(state.slice.indices))
    ys = np.linspace(-0.5 * (hi - lo), 0.5 * (hi - lo), n_y)
    plus = phasespace.wavefunction(state, q_axis[:, None] + ys[None, :])
    minus = phasespace.wavefunction(state, q_axis[:, None] - ys[None, :])
    corr = np.conj(plus) * minus
    weights = np.full(n_y, ys[1] - ys[0])
    weights[0] = weights[-1] = 0.5 * (ys[1] - ys[0])
    return np.concatenate([
        (corr @ (weights[:, None] * np.exp(2j * np.outer(ys, p)))).real / np.pi
        for p in np.array_split(p_axis, max(1, len(p_axis) // 256))], axis=1)


def per_difference_kernel(ls, al, phi_axis, ms):
    """The angular kernel as a double sum over mode pairs, one difference
    l1 - l2 at a time."""
    values = np.zeros((phi_axis.size, ms.size))
    i, j = np.indices((ls.size, ls.size)).reshape(2, -1)
    diffs = ls[i] - ls[j]
    for d in sorted(set(diffs.tolist())):
        p1, p2 = i[diffs == d], j[diffs == d]
        s = (ls[p1] + ls[p2])[:, None] - 2 * ms
        safe = np.where(s == 0, 1, s)
        k = np.where(s == 0, 2.0 * np.pi,
                     4.0 * np.sin(safe * np.pi / 2.0) / safe)
        coeff = (al[p1] * np.conj(al[p2])) @ k / (2.0 * np.pi)
        values += np.real(np.exp(1j * d * phi_axis)[:, None] * coeff)
    return values


def cartesian_state(name):
    """The harmonic psi6 state, or the window-optimal Kerr or well state."""
    if name == "harmonic-psi6":
        slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
        return protocol.reference_state("psi6", slc)
    if name == "kerr":
        slc = protocol.truncated_slice(models.kerr(-0.02), 6, check=False)
        return protocol.max_score(slc, 1.0).state
    well = models.infinite_well()
    slc = spectra.spectrum_slice(well, energy_window(well, 0.4), check=False)
    return protocol.max_score(slc, 0.4).state


@pytest.fixture(scope="module")
def psi6():
    slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
    return protocol.reference_state("psi6", slc)


@pytest.fixture(scope="module")
def pendulum_state():
    slc = protocol.truncated_slice(models.pendulum(-0.02), 6, check=False)
    return protocol.max_score(slc, 1.0).state


class TestCartesian:
    def test_ground_state_positive_gaussian(self):
        slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
        ground = protocol.QuantumState(slc, np.eye(7)[0].astype(complex))
        qa, pa = phasespace.default_axes(ground)
        grid = phasespace.wigner_cartesian(ground, qa, pa)
        assert grid.values.min() >= -1e-10
        assert abs(grid.integral() - 1.0) < 1e-3
        # peak value of a pure Gaussian Wigner function is 1/pi
        assert abs(grid.values.max() - 1.0 / np.pi) < 1e-3

    def test_psi6_has_negativity(self, psi6):
        qa, pa = phasespace.default_axes(psi6)
        grid = phasespace.wigner_cartesian(psi6, qa, pa)
        assert grid.values.min() < -1e-3

    def test_marginal_matches_density(self, psi6):
        qa, pa = phasespace.default_axes(psi6)
        grid = phasespace.wigner_cartesian(psi6, qa, pa)
        dens = phasespace.marginal_density(psi6, 0.0, 1.0, qa)
        assert np.max(np.abs(grid.marginal_q() - dens)) < 1e-4

    def test_well_marginal(self):
        slc = protocol.truncated_slice(models.infinite_well(), 4, check=False)
        state = protocol.max_score(slc, 0.4).state
        qa, pa = phasespace.default_axes(state)
        grid = phasespace.wigner_cartesian(state, qa, pa)
        dens = phasespace.marginal_density(state, 0.0, 0.4, qa)
        assert np.max(np.abs(grid.marginal_q() - dens)) < 1e-4

    def test_parity_symmetric_eigenstate(self):
        slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
        e3 = protocol.QuantumState(slc, np.eye(7)[3].astype(complex))
        qa = np.linspace(-8, 8, 161)
        pa = np.linspace(-6, 6, 161)
        grid = phasespace.wigner_cartesian(e3, qa, pa)
        assert np.max(np.abs(grid.values - grid.values[::-1, :])) < 1e-10

    @pytest.mark.parametrize("name", ["harmonic-psi6", "kerr", "well"])
    def test_half_line_matches_full_line(self, name):
        state = cartesian_state(name)
        qa, pa = phasespace.default_axes(state, n_q=61, n_p=121)
        got = phasespace.wigner_cartesian(state, qa, pa).values
        assert np.max(np.abs(got - full_line_wigner(state, qa, pa))) <= 1e-12

    def test_rejects_pendulum(self, pendulum_state):
        with pytest.raises(DomainError):
            phasespace.wigner_cartesian(pendulum_state,
                                        np.linspace(-1, 1, 11),
                                        np.linspace(-1, 1, 11))


class TestAngular:
    def test_marginals(self, pendulum_state):
        phis = np.linspace(-np.pi, np.pi, 161)
        grid = phasespace.wigner_angular(pendulum_state, phis,
                                         phasespace.default_m_range(
                                             pendulum_state))
        assert abs(grid.integral() - 1.0) < 1e-3
        dens = phasespace.marginal_density(pendulum_state, 0.0, 1.0, phis)
        assert np.max(np.abs(grid.marginal_q() - dens)) < 1e-4

    def test_negativity_present(self, pendulum_state):
        phis = np.linspace(-np.pi, np.pi, 161)
        grid = phasespace.wigner_angular(pendulum_state, phis,
                                         phasespace.default_m_range(
                                             pendulum_state))
        assert grid.values.min() < -1e-3

    def test_momentum_eigenstate_flat(self):
        # single Fourier mode: the kernel must be phi-independent
        phis = np.linspace(-np.pi, np.pi, 61)
        ms = np.arange(-6, 7)
        vals = phasespace._angular_kernel(np.array([3]),
                                          np.array([1.0 + 0j]), phis, ms)
        assert np.max(np.abs(vals - vals[0:1, :])) < 1e-14
        # all weight on m = 3
        weights = np.trapezoid(vals, phis, axis=0)
        assert abs(weights[ms.tolist().index(3)] - 2 * np.pi) < 1e-10

    @pytest.mark.parametrize("kind", ["optimal", "psi6"])
    def test_one_pass_kernel_matches_per_difference_sum(self, pendulum_state,
                                                        kind):
        state = pendulum_state
        if kind == "psi6":
            state = protocol.reference_state("psi6", state.slice)
        ls, al = phasespace._fourier_modes(state)
        m_lo, m_hi = phasespace.default_m_range(state)
        ms = np.arange(m_lo - 2, m_hi + 3)
        phis = np.linspace(-np.pi, np.pi, 97)
        got = phasespace._angular_kernel(ls, al, phis, ms)
        ref = per_difference_kernel(ls, al, phis, ms)
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_default_range_matches_default_m_range(self, pendulum_state):
        phis = np.linspace(-np.pi, np.pi, 61)
        m_range = phasespace.default_m_range(pendulum_state)
        got = phasespace.wigner_angular(pendulum_state, phis)
        ref = phasespace.wigner_angular(pendulum_state, phis, m_range)
        assert got.p_axis[[0, -1]].tolist() == list(m_range)
        assert np.array_equal(got.values, ref.values)

    def test_cli_run_computes_the_modes_once(self, monkeypatch, tmp_path):
        calls = []
        modes = phasespace._fourier_modes

        def counted(state):
            calls.append(state)
            return modes(state)

        monkeypatch.setattr(phasespace, "_fourier_modes", counted)
        code = cli.main(["wigner", "--model", "pendulum", "--alpha", "-0.02",
                         "--state", "psi6", "--tau", "1", "--angular",
                         "--grid-points", "61", "--output", str(tmp_path)])
        assert code == 0 and len(calls) == 1

    def test_parity_symmetric_eigenstate(self):
        slc = protocol.truncated_slice(models.pendulum(-0.02), 6, check=False)
        e2 = protocol.QuantumState(slc, np.eye(7)[2].astype(complex))
        phis = np.linspace(-np.pi, np.pi, 161)
        grid = phasespace.wigner_angular(e2, phis,
                                         phasespace.default_m_range(e2))
        assert np.max(np.abs(grid.values - grid.values[::-1, :])) < 1e-10

    def test_rejects_cartesian_models(self, psi6):
        with pytest.raises(DomainError):
            phasespace.wigner_angular(psi6, np.linspace(-np.pi, np.pi, 11),
                                      (-5, 5))


class TestGuards:
    def test_nan_grid_fails_normalization(self):
        axis = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(DomainError):
            phasespace.WignerGrid(axis, axis, np.full((5, 5), np.nan))

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    @pytest.mark.parametrize("frac", [0.0, 1.0 / 3.0])
    def test_marginal_rejects_non_finite_tau(self, psi6, frac, tau):
        with pytest.raises(DomainError):
            phasespace.marginal_density(psi6, frac, tau,
                                        np.linspace(-1.0, 1.0, 11))


class TestExport:
    def test_csv_and_sidecar(self, psi6):
        qa = np.linspace(-8, 8, 41)
        pa = np.linspace(-6, 6, 41)
        grid = phasespace.wigner_cartesian(psi6, qa, pa)
        text = phasespace.wigner_to_csv(grid)
        rows = text.splitlines()
        assert rows[0].startswith("q\\p,")
        assert len(rows) == 42
        meta = json.loads(phasespace.sidecar_json(psi6, 1.0, "cartesian"))
        assert meta["model"] == "harmonic"
        assert len(meta["state_hash"]) == 16
