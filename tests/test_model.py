import math

import numpy as np
import pytest

from lmglab.model import (
    LmgParams,
    build_hamiltonian,
    ground_M,
    isotropic_energies,
    lifetime_bound,
    trial_localized_state,
)
from lmglab.spinspace import (
    build_sector,
    collective_operators,
)

from coherent import coherent_state, expectation


def brute_force_ground_scan(N, h):
    """Independent argmin of the level energies, written out longhand."""
    best_m, best_e = None, None
    for k in range(N + 1):
        m_val = N / 2.0 - k
        energy = -((N / 2.0) * (N / 2.0 + 1.0) - m_val * m_val) / N - h * m_val
        if best_e is None or energy < best_e - 1e-12 * max(1.0, abs(energy)):
            best_m, best_e = m_val, energy
    return best_m


class TestHamiltonian:
    def test_isotropic_unperturbed_is_diagonal(self):
        sec = build_sector(30)
        params = LmgParams(N=30, h=0.4)
        ham = build_hamiltonian(params, sec)
        assert ham.bandwidth == 0
        assert np.array_equal(ham.band(0).real, isotropic_energies(sec, 0.4))

    def test_bandwidths(self):
        sec = build_sector(10)
        assert build_hamiltonian(LmgParams(N=10, h=0.3), sec, g=1e-3).bandwidth == 1
        assert build_hamiltonian(LmgParams(N=10, h=0.3, gamma=0.0), sec).bandwidth == 2
        assert build_hamiltonian(LmgParams(N=10, h=0.3, gamma=0.5), sec, g=1.0).bandwidth == 2

    def test_single_spin_energies(self):
        # S = M = 1/2 gives E = -1/2 -+ h/2
        sec = build_sector(1)
        for h in (0.0, 0.3, 2.0):
            ham = build_hamiltonian(LmgParams(N=1, h=h), sec)
            assert np.allclose(
                np.sort(ham.band(0).real), np.sort([-0.5 - h / 2, -0.5 + h / 2])
            )

    def test_gamma_zero_matches_dense_operator_expression(self):
        N, h = 12, 0.4
        sec = build_sector(N)
        ops = collective_operators(sec)
        sx = ops.sx.to_dense()
        sz = ops.sz.to_dense()
        expected = -(sx @ sx) / N - h * sz
        ham = build_hamiltonian(LmgParams(N=N, h=h, gamma=0.0), sec)
        assert np.max(np.abs(ham.to_dense() - expected)) <= 1e-13 * N

    def test_kick_direction(self):
        N = 8
        sec = build_sector(N)
        ops = collective_operators(sec)
        phi = 0.7
        g = 0.05
        ham = build_hamiltonian(LmgParams(N=N, h=0.3), sec, g=g, phi_n=phi)
        expected = (
            build_hamiltonian(LmgParams(N=N, h=0.3), sec).to_dense()
            - g * (math.cos(phi) * ops.sx.to_dense() + math.sin(phi) * ops.sy.to_dense())
        )
        assert np.max(np.abs(ham.to_dense() - expected)) <= 1e-14 * N

    def test_commutes_with_sz_when_isotropic(self):
        sec = build_sector(14)
        ham = build_hamiltonian(LmgParams(N=14, h=0.6), sec).to_dense()
        sz = collective_operators(sec).sz.to_dense()
        assert np.max(np.abs(ham @ sz - sz @ ham)) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_parity_symmetry_without_kick(self, gamma):
        # spin-flip parity exp(i pi (Sz - S)) = diag((-1)^m) commutes with H
        N = 11
        sec = build_sector(N)
        ham = build_hamiltonian(LmgParams(N=N, h=0.45, gamma=gamma), sec).to_dense()
        parity = np.diag((-1.0) ** np.arange(N + 1))
        assert np.max(np.abs(ham @ parity - parity @ ham)) <= 1e-12

    def test_sector_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(LmgParams(N=5, h=0.1), build_sector(6))


class TestIsotropicEnergies:
    def test_neighbor_gap_at_figure_parameters(self):
        # E(M=36) - E(M=35) = 71/100 - 0.716 = -0.006 at N=100
        sec = build_sector(100)
        energies = isotropic_energies(sec, 0.716)
        idx36 = 50 - 36
        idx35 = 50 - 35
        assert energies[idx36] - energies[idx35] == pytest.approx(-0.006, abs=1e-12)

    def test_zero_field_minimum_at_zero_magnetization(self):
        sec = build_sector(8)
        energies = isotropic_energies(sec, 0.0)
        assert sec.m_values[int(np.argmin(energies))] == 0.0
        assert energies.min() == pytest.approx(-(4.0 * 5.0) / 8.0, rel=1e-15, abs=0)

    def test_symmetric_phase_minimum_at_edge(self):
        sec = build_sector(9)
        energies = isotropic_energies(sec, 1.5)
        assert sec.m_values[int(np.argmin(energies))] == 4.5


class TestGroundM:
    def test_matches_independent_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            N = int(rng.integers(1, 220))
            h = float(rng.uniform(0.0, 1.4))
            ground = ground_M(N, h)
            assert brute_force_ground_scan(N, h) in ground.levels

    def test_figure_parameters(self):
        assert ground_M(100, 0.72).m0 == 36.0
        assert not ground_M(100, 0.72).degenerate
        g716 = ground_M(100, 0.716)
        assert g716.m0 == 36.0 and not g716.degenerate
        g71 = ground_M(100, 0.71)
        assert g71.degenerate and g71.levels == (35.0, 36.0)

    def test_symmetric_phase_edge(self):
        assert ground_M(10, 1.0).m0 == 5.0
        assert ground_M(10, 2.7).m0 == 5.0

    def test_zero_field_odd_n_pair(self):
        g = ground_M(9, 0.0)
        assert g.degenerate and g.levels == (-0.5, 0.5)


class TestMeanField:
    """The coherent-state reference helper, and the mean-field energy its
    expectation approaches."""

    def test_north_pole(self):
        sec = build_sector(12)
        state = coherent_state(sec, 0.0)
        assert state[0] == 1.0
        assert np.count_nonzero(state) == 1

    def test_equator_two_spins(self):
        sec = build_sector(2)
        state = coherent_state(sec, math.pi / 2)
        assert np.allclose(state, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-15)
        sx = collective_operators(sec).sx
        assert expectation(sx, state).real == pytest.approx(1.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("N", [3, 40, 400])
    def test_polarization_vector(self, N):
        rng = np.random.default_rng(N)
        sec = build_sector(N)
        ops = collective_operators(sec)
        for _ in range(4):
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            state = coherent_state(sec, theta, phi)
            measured = np.array(
                [
                    expectation(ops.sx, state).real,
                    expectation(ops.sy, state).real,
                    expectation(ops.sz, state).real,
                ]
            )
            target = (N / 2.0) * np.array(
                [
                    math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi),
                    math.cos(theta),
                ]
            )
            assert np.max(np.abs(measured - target)) <= 1e-10 * N

    def test_large_n_stays_finite(self):
        sec = build_sector(2000)
        state = coherent_state(sec, 1.1, 0.2)
        assert np.all(np.isfinite(state))

    def test_energy_matches_quantum_expectation_to_finite_size(self):
        N, h = 200, 0.5
        sec = build_sector(N)
        params = LmgParams(N=N, h=h)
        theta = math.acos(h)
        state = coherent_state(sec, theta)
        quantum = expectation(build_hamiltonian(params, sec), state).real
        classical = -(N / 4.0) * (math.sin(theta) ** 2 + 2.0 * h * math.cos(theta))
        # finite-size corrections are O(1) against an O(N) energy
        assert abs(quantum - classical) <= 2.0


class TestTrialState:
    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_energy_elevation_is_two_over_n_squared(self, N):
        trial = trial_localized_state(build_sector(N), 0.5)
        assert trial.delta_e == pytest.approx(2.0 / N**2, rel=1e-12, abs=0)

    def test_energy_elevation_cross_checked_against_expectation(self):
        N, h = 100, 0.716
        sec = build_sector(N)
        trial = trial_localized_state(sec, h)
        ham = build_hamiltonian(LmgParams(N=N, h=h), sec)
        e0 = isotropic_energies(sec, h).min()
        measured = expectation(ham, trial.state).real - e0
        assert measured == pytest.approx(trial.delta_e, rel=1e-6, abs=0)

    def test_sz_expectation_stays_at_ground_magnetization(self):
        N, h = 100, 0.716
        sec = build_sector(N)
        trial = trial_localized_state(sec, h)
        sz = collective_operators(sec).sz
        assert abs(expectation(sz, trial.state).real - trial.m0) <= 1.0 / N

    def test_in_plane_polarization_grows_as_sqrt_n(self):
        sizes = [64, 128, 256, 512, 1024]
        values = []
        for N in sizes:
            sec = build_sector(N)
            trial = trial_localized_state(sec, 0.5)
            sx = collective_operators(sec).sx
            values.append(expectation(sx, trial.state).real)
        slope = np.polyfit(np.log(sizes), np.log(values), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_degenerate_case_flagged_lower_member_used(self):
        # N=10, h=0.5: Nh = 5 is odd against even N, pair {2, 3}
        trial = trial_localized_state(build_sector(10), 0.5)
        assert trial.degenerate_ground
        assert trial.m0 == 2.0
        assert trial.delta_e == pytest.approx(2.0 / 100.0, rel=1e-12, abs=0)

    def test_rejects_symmetric_phase_and_tiny_n(self):
        with pytest.raises(ValueError):
            trial_localized_state(build_sector(10), 1.0)
        with pytest.raises(ValueError):
            trial_localized_state(build_sector(2), 0.5)


class TestLifetime:
    def test_values(self):
        assert lifetime_bound(2.0 / 100**2, 100) == pytest.approx(2.5e5, rel=1e-15, abs=0)
        assert lifetime_bound(1.0, 2) == 1.0

    def test_cubic_scaling(self):
        sizes = np.array([10, 20, 40, 80, 160])
        times = [lifetime_bound(2.0 / n**2, n) for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope == pytest.approx(3.0, abs=1e-12)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            lifetime_bound(0.0, 5)
        with pytest.raises(ValueError):
            lifetime_bound(-1.0, 5)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LmgParams(N=0, h=0.5)
        with pytest.raises(ValueError):
            LmgParams(N=4, h=-0.1)
        with pytest.raises(ValueError):
            LmgParams(N=4, h=0.5, gamma=1.5)
