import math

import numpy as np
import pytest

from lmglab.evolve import (
    EigenSystem,
    ProjectedMode,
    TimeSeries,
    analytic_sum,
    correlation_fN,
    default_time_grid,
    eigensystem,
    ground_state,
    mean_field_ode,
    observable_series,
    projected_init,
    projected_solution,
    propagate,
)
from lmglab.model import (
    LmgParams,
    MeanFieldAngles,
    build_hamiltonian,
    mean_field_state,
    trial_localized_state,
)
from lmglab.spinspace import (
    BandedHermitianOperator,
    BandedOperator,
    basis_state,
    build_sector,
    collective_operators,
    expectation,
    normalized_state,
)
from lmglab.ssb import localize_ground_state


def isotropic_eigensystem(N, h):
    sec = build_sector(N)
    return sec, eigensystem(build_hamiltonian(LmgParams(N=N, h=h), sec))


class TestEigensystem:
    def test_diagonal_fast_path_levels(self):
        sec, eig = isotropic_eigensystem(100, 0.716)
        assert eig.permutation is not None
        assert eig.energies[1] - eig.energies[0] == pytest.approx(0.006, abs=1e-12)
        assert eig.energies[2] - eig.energies[0] == pytest.approx(0.014, abs=1e-12)
        assert eig.Mk[0] == 36.0
        # eigenvectors of a diagonal H are coordinate vectors
        cols = eig.vectors[:, :3]
        assert np.count_nonzero(cols) == 3

    def test_two_level_closed_form(self):
        sec = build_sector(1)
        ham = build_hamiltonian(LmgParams(N=1, h=0.8), sec, g=0.3, phi_n=0.4)
        eig = eigensystem(ham)
        ref = np.linalg.eigvalsh(ham.to_dense())
        assert np.allclose(eig.energies, ref, atol=1e-14)

    def test_banded_solver_residuals(self):
        N, h = 60, 0.4
        sec = build_sector(N)
        ham = build_hamiltonian(LmgParams(N=N, h=h), sec, g=1e-3)
        eig = eigensystem(ham)
        dense = ham.to_dense()
        norm_h = ham.norm_inf()
        residual_norms = np.linalg.norm(
            dense @ eig.vectors - eig.vectors * eig.energies[None, :], axis=0
        )
        assert np.max(residual_norms) <= 1e-10 * norm_h
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(N + 1))) <= 1e-11

    def test_magnetization_per_level(self):
        N = 25
        sec = build_sector(N)
        ham = build_hamiltonian(LmgParams(N=N, h=0.3), sec, g=0.01)
        eig = eigensystem(ham)
        sz = collective_operators(sec).sz
        for k in (0, 3, N):
            vec = eig.vectors[:, k]
            assert eig.Mk[k] == pytest.approx(
                np.vdot(vec, sz.apply(vec)).real, abs=1e-12 * N
            )


class TestPropagate:
    def test_stationary_state_picks_up_global_phase(self):
        sec, eig = isotropic_eigensystem(12, 0.3)
        k = 4
        m_index = eig.permutation[k]
        psi = basis_state(sec.dim, int(m_index))
        out = propagate(eig, psi, t=2.5)
        expected = np.exp(-1j * eig.energies[k] * 2.5) * psi.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-13

    def test_time_zero_is_identity(self):
        sec, eig = isotropic_eigensystem(9, 0.2)
        rng = np.random.default_rng(1)
        psi = normalized_state(rng.normal(size=10) + 1j * rng.normal(size=10))
        out = propagate(eig, psi, 0.0)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) <= 1e-14

    def test_norm_and_conservation_along_trajectory(self):
        N, h = 40, 0.55
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        loc = localize_ground_state(params, g=1e-3)
        ham = build_hamiltonian(params, sec)
        ops = collective_operators(sec)
        e_ref = expectation(ham, loc.state).real
        sz_ref = expectation(ops.sz, loc.state).real
        for t in (0.0, 3.7, 190.0, 4000.0):
            psi_t = propagate(eig, loc.state, t)
            assert abs(np.linalg.norm(psi_t.amplitudes) - 1.0) <= 1e-12
            assert abs(expectation(ham, psi_t).real - e_ref) <= 1e-10 * abs(e_ref)
            assert abs(expectation(ops.sz, psi_t).real - sz_ref) <= 1e-10 * N


class TestObservableSeries:
    def test_exact_ground_state_shows_no_polarization(self):
        N, h = 30, 0.4
        sec, eig = isotropic_eigensystem(N, h)
        psi = ground_state(eig)
        ops = collective_operators(sec)
        tgrid = default_time_grid(N, periods=2, samples=64)
        series = observable_series(eig, psi, ops.sx, tgrid)
        assert np.max(np.abs(series.values)) <= 1e-10

    def test_conserved_sz_series(self):
        N, h = 30, 0.4
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        loc = localize_ground_state(params, g=1e-3)
        ops = collective_operators(sec)
        tgrid = default_time_grid(N, periods=3, samples=128)
        series = observable_series(eig, loc.state, ops.sz, tgrid)
        assert np.max(np.abs(series.values - series.values[0])) <= 1e-10 * N

    def test_hermitian_series_is_real(self):
        N, h = 24, 0.3
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        loc = localize_ground_state(params, g=1e-2)
        ops = collective_operators(sec)
        tgrid = default_time_grid(N, periods=5, samples=256)
        for op in (ops.sx, ops.sy, ops.sz):
            series = observable_series(eig, loc.state, op, tgrid)
            assert np.max(np.abs(series.values.imag)) <= 1e-10 * N


def dense_copy(eig):
    """The same eigensystem without its permutation: forces state evolution."""
    return EigenSystem(eig.energies, eig.vectors, eig.Mk, permutation=None)


class TestLineSum:
    """The diagonal-H line sum of observable_series against state evolution."""

    @pytest.mark.parametrize(
        "N,T,prep",
        [
            (1, 16385, "kicked"),
            (2, 16, "kicked"),
            (7, 17, "kicked"),
            (7, 16385, "trial"),
            (50, 16385, "kicked"),
            (50, 16, "trial"),
            (301, 17, "kicked"),
            (301, 4096, "kicked"),
            (301, 4096, "trial"),
        ],
    )
    def test_matches_dense_path(self, N, T, prep):
        h = 0.6
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        assert eig.permutation is not None
        if prep == "trial":
            psi = trial_localized_state(sec, h).state
        else:
            psi = localize_ground_state(params, g=1e-3, phi_n=0.4).state
        ops = collective_operators(sec)
        # t0 != 0 and, for T = 17 and 16385, T not a multiple of ceil(sqrt(T))
        tgrid = 5.3 + np.arange(T) * (40.0 * math.pi * N / T)
        dense = dense_copy(eig)
        for op in (ops.sx, ops.sy, ops.sz, ops.splus, ops.sminus):
            lines = observable_series(eig, psi, op, tgrid)
            ref = observable_series(dense, psi, op, tgrid)
            assert lines.values.dtype == np.complex128
            assert lines.values.shape == (T,)
            scale = np.max(np.abs(ref.values))
            assert np.max(np.abs(lines.values - ref.values)) <= 1e-12 * scale

    def test_never_applies_the_operator(self, monkeypatch):
        def refuse(self, vec):
            raise AssertionError("op.apply reached")

        N, h = 40, 0.55
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        psi = localize_ground_state(params, g=1e-3).state
        ops = collective_operators(sec)
        tgrid = default_time_grid(N, periods=2, samples=128)
        monkeypatch.setattr(BandedHermitianOperator, "apply", refuse)
        monkeypatch.setattr(BandedOperator, "apply", refuse)
        for op in (ops.sx, ops.sy, ops.sz, ops.splus, ops.sminus):
            observable_series(eig, psi, op, tgrid)

    @pytest.mark.parametrize(
        "tgrid", [np.array([0.0]), np.array([0.0, 1.0, 3.0]), np.zeros((2, 2))]
    )
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_bad_grid_rejected_before_any_work(self, monkeypatch, tgrid, diagonal):
        N, h = 10, 0.5
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(LmgParams(N=N, h=h), sec))
        if not diagonal:
            eig = dense_copy(eig)

        def refuse(*args, **kwargs):
            raise AssertionError("phases formed")

        monkeypatch.setattr(np, "exp", refuse)
        psi = basis_state(sec.dim, 3)
        with pytest.raises(ValueError):
            observable_series(eig, psi, collective_operators(sec).sx, tgrid)


class TestProjectedDynamics:
    def test_mode_sum_telescopes_to_initial_expectation(self):
        N, h = 33, 0.62
        sec = build_sector(N)
        rng = np.random.default_rng(8)
        psi = normalized_state(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        ops = collective_operators(sec)
        modes = projected_init(psi, sec, h)
        sx_total = sum(m.sx0 for m in modes)
        sy_total = sum(m.sy0 for m in modes)
        assert sx_total == pytest.approx(expectation(ops.sx, psi), abs=1e-12 * N)
        assert sy_total == pytest.approx(expectation(ops.sy, psi), abs=1e-12 * N)

    def test_top_basis_state_has_no_coherence(self):
        N = 10
        sec = build_sector(N)
        modes = projected_init(basis_state(sec.dim, 0), sec, 0.5)
        assert all(m.sx0 == 0.0 and m.sy0 == 0.0 for m in modes)

    def test_ground_mode_is_largest_for_coherent_state(self):
        # the mean-field state is broad, so neighbors are comparable; the
        # ground mode is still the single largest contribution
        N, h = 100, 0.716
        sec = build_sector(N)
        psi = mean_field_state(sec, MeanFieldAngles(theta=math.acos(h), phi=0.0))
        modes = projected_init(psi, sec, h)
        amps = [abs(m.sx0) for m in modes]
        assert int(np.argmax(amps)) == 0

    def test_low_modes_dominate_for_weakly_kicked_state(self):
        # a weak kick concentrates the dynamics on the lowest few modes
        N, h = 100, 0.716
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        loc = localize_ground_state(params, g=1e-4)
        modes = projected_init(loc.state, sec, h)
        lead = abs(modes[0].sx0)
        for mode in modes[3:]:
            assert lead > 10.0 * abs(mode.sx0)

    def test_round_mode_waveform(self):
        N = 50
        tgrid = default_time_grid(N, periods=2, samples=256)
        nu = 1.0 / N
        mode = ProjectedMode(k=0, Mk=0.0, nu=nu, omega_k=0.0, sx0=N / 2.0, sy0=0.0)
        sx, sy = projected_solution(mode, tgrid)
        assert np.max(np.abs(sx.values.real - (N / 2.0) * np.cos(nu * tgrid))) <= 1e-12 * N
        # full circle: the polarization reaches -N/2
        assert sx.values.real.min() <= -0.99 * (N / 2.0)

    def test_crescent_mode_waveform(self):
        N = 50
        tgrid = default_time_grid(N, periods=2, samples=256)
        nu = 1.0 / N
        mode = ProjectedMode(k=0, Mk=0.0, nu=nu, omega_k=nu, sx0=N / 2.0, sy0=0.0)
        sx, _ = projected_solution(mode, tgrid)
        expected = (N / 2.0) * np.cos(nu * tgrid) ** 2
        assert np.max(np.abs(sx.values.real - expected)) <= 1e-12 * N
        # bounded in half a circle
        assert sx.values.real.min() >= -1e-9

    def test_time_zero_returns_initial_values(self):
        mode = ProjectedMode(k=2, Mk=1.0, nu=0.1, omega_k=0.05, sx0=1 + 2j, sy0=0.5j)
        tgrid = np.array([0.0, 1.0])
        sx, sy = projected_solution(mode, tgrid)
        assert sx.values[0] == mode.sx0
        assert sy.values[0] == mode.sy0


class TestAnalyticSum:
    @pytest.mark.parametrize("N,h", [(2, 0.3), (3, 0.5), (17, 0.55), (100, 0.716)])
    def test_full_sum_reproduces_exact_series(self, N, h):
        sec, eig = isotropic_eigensystem(N, h)
        ops = collective_operators(sec)
        rng = np.random.default_rng(100 * N)
        states = [
            normalized_state(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)),
            mean_field_state(sec, MeanFieldAngles(theta=1.0, phi=0.4)),
        ]
        tgrid = np.arange(256) * (2 * math.pi * N / 256)
        for psi in states:
            exact_x = observable_series(eig, psi, ops.sx, tgrid)
            exact_y = observable_series(eig, psi, ops.sy, tgrid)
            modes = projected_init(psi, sec, h)
            sum_x, sum_y = analytic_sum(modes, N, tgrid)
            assert np.max(np.abs(exact_x.values - sum_x.values)) <= 1e-10 * N
            assert np.max(np.abs(exact_y.values - sum_y.values)) <= 1e-10 * N
            assert np.max(np.abs(sum_x.values.imag)) <= 1e-10 * N

    def test_truncated_sum_tracks_localized_waveform(self):
        N, h = 100, 0.716
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        loc = localize_ground_state(params, g=1e-4)
        ops = collective_operators(sec)
        tgrid = default_time_grid(N)
        exact = observable_series(eig, loc.state, ops.sx, tgrid)
        modes = projected_init(loc.state, sec, h)
        approx, _ = analytic_sum(modes, 3, tgrid)
        full_scale = np.max(np.abs(exact.values.real))
        deviation = np.max(np.abs(exact.values.real - approx.values.real))
        assert deviation < 0.02 * full_scale

    def test_cutoff_clamps_with_warning(self):
        N = 6
        sec = build_sector(N)
        psi = mean_field_state(sec, MeanFieldAngles(theta=1.2, phi=0.0))
        modes = projected_init(psi, sec, 0.5)
        tgrid = np.arange(32) * 1.0
        with pytest.warns(UserWarning):
            clamped, _ = analytic_sum(modes, N + 5, tgrid)
        full, _ = analytic_sum(modes, N, tgrid)
        assert np.array_equal(clamped.values, full.values)


class TestCorrelation:
    @pytest.mark.parametrize("N", [8, 50, 500])
    def test_direct_and_closed_form_agree(self, N):
        sec = build_sector(N)
        tgrid = np.arange(128) * (2 * math.pi * N / 128)
        result = correlation_fN(sec, 0.55, tgrid)
        for member in result.members:
            scale = np.max(np.abs(member.direct.values))
            assert (
                np.max(np.abs(member.direct.values - member.closed_form.values))
                <= 1e-12 * scale
            )

    def test_frequencies_are_nu_plus_minus_omega0(self):
        N, h = 100, 0.716
        sec = build_sector(N)
        result = correlation_fN(sec, h, np.arange(16) * 1.0)
        member = result.members[0]
        nu = 1.0 / N
        omega0 = h - 2.0 * member.m0 / N
        measured = sorted(abs(f) for f in member.frequencies)
        expected = sorted((abs(nu - omega0), abs(nu + omega0)))
        assert measured == pytest.approx(expected, rel=1e-12)

    def test_static_moment_at_time_zero(self):
        N, h = 40, 0.3
        sec = build_sector(N)
        result = correlation_fN(sec, h, np.arange(16) * 1.0)
        member = result.members[0]
        ops = collective_operators(sec)
        idx0 = int(np.nonzero(sec.m_values == member.m0)[0][0])
        u = ops.sx.apply(basis_state(sec.dim, idx0).amplitudes)
        static = (4.0 / N**2) * float(np.sum(np.abs(u) ** 2))
        assert member.closed_form.values[0].real == pytest.approx(static, rel=1e-14)
        assert member.direct.values[0].real == pytest.approx(static, rel=1e-14)

    def test_degenerate_pair_returns_both_members(self):
        sec = build_sector(100)
        result = correlation_fN(sec, 0.71, np.arange(16) * 1.0)
        assert result.degenerate
        assert [m.m0 for m in result.members] == [35.0, 36.0]

    def test_rejects_symmetric_phase(self):
        with pytest.raises(ValueError):
            correlation_fN(build_sector(10), 1.0, np.arange(16) * 1.0)


class TestMeanFieldOde:
    def test_uniform_precession_phase_accuracy(self):
        N, h = 50, 0.3
        sz = 5.0
        omega = 2.0 * sz / N - h
        period = 2 * math.pi / abs(omega)
        tgrid = np.linspace(0.0, period, 1001)
        sx, sy, sz_series = mean_field_ode((1.0, 0.0, sz), h, N, tgrid)
        exact_x = np.cos(omega * tgrid)
        assert np.max(np.abs(sx.values - exact_x)) <= 1e-8
        assert np.max(np.abs(sz_series.values - sz)) == 0.0

    def test_stationary_at_critical_magnetization(self):
        N, h = 20, 0.4
        tgrid = np.linspace(0.0, 100.0, 101)
        sx, sy, _ = mean_field_ode((3.0, 0.0, N * h / 2.0), h, N, tgrid)
        assert np.max(np.abs(sx.values - 3.0)) <= 1e-12
        assert np.max(np.abs(sy.values)) <= 1e-12

    def test_in_plane_magnitude_conserved(self):
        N, h = 30, 0.7
        omega = 2.0 * 4.0 / N - h
        period = 2 * math.pi / abs(omega)
        tgrid = np.linspace(0.0, period, 1001)
        sx, sy, _ = mean_field_ode((2.0, 1.0, 4.0), h, N, tgrid)
        mag = sx.values**2 + sy.values**2
        assert np.max(np.abs(mag - mag[0])) <= 1e-10 * mag[0]


class TestTimeSeries:
    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError):
            TimeSeries(t=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            TimeSeries(t=np.array([0.0, -1.0, -2.0]), values=np.zeros(3))


class TestConcurrency:
    def test_shared_eigensystem_across_threads(self):
        # one EigenSystem feeding many concurrent series evaluations must
        # give the same answers as a serial run (everything is immutable)
        from concurrent.futures import ThreadPoolExecutor

        N, h = 40, 0.55
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        ops = collective_operators(sec)
        loc = localize_ground_state(params, g=1e-3)
        tgrid = default_time_grid(N, periods=2, samples=128)

        def run(_):
            return observable_series(eig, loc.state, ops.sx, tgrid).values

        serial = run(0)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, range(16)))
        for values in results:
            assert np.array_equal(values, serial)
