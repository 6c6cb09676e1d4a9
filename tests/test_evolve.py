import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab import evolve
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
    isotropic_energies,
    isotropic_gap,
    mean_field_state,
    trial_localized_state,
)
from lmglab.spinspace import (
    BandedHermitianOperator,
    basis_state,
    build_sector,
    collective_operators,
    expectation,
    ladder_plus_band,
    normalized_state,
)
from lmglab.spectra import line_spectrum
from lmglab.ssb import localize_ground_state


def isotropic_eigensystem(N, h):
    sec = build_sector(N)
    return sec, eigensystem(build_hamiltonian(LmgParams(N=N, h=h), sec))


class TestEigensystem:
    def test_diagonal_fast_path_levels(self):
        sec, eig = isotropic_eigensystem(100, 0.716)
        assert eig.permutation is not None and eig.vectors is None
        assert eig.energies[1] - eig.energies[0] == pytest.approx(0.006, abs=1e-12)
        assert eig.energies[2] - eig.energies[0] == pytest.approx(0.014, abs=1e-12)
        assert sec.m_values[eig.permutation[0]] == 36.0
        # eigenvectors of a diagonal H are coordinate vectors
        cols = eig.columns([0, 1, 2])
        assert np.count_nonzero(cols) == 3

    @pytest.mark.parametrize("levels", [[0], [3, 1, 4], [], list(range(13))])
    def test_diagonal_columns_are_permuted_identity_columns(self, levels):
        # what a dense identity scattered by the permutation held
        sec, eig = isotropic_eigensystem(12, 0.3)
        ref = np.eye(sec.dim)[:, eig.permutation][:, levels]
        cols = eig.columns(levels)
        assert cols.dtype == ref.dtype and np.array_equal(cols, ref)
        assert np.array_equal(eig.columns(np.array(levels, dtype=int)), ref)

    def test_diagonal_solve_stores_no_square_array(self):
        # localize + free solve + observable_series + line_spectrum at
        # gamma = 1: a dense (N+1)^2 identity alone would be 200 MB here
        N, h = 5000, 0.716
        params = LmgParams(N=N, h=h)
        sec = build_sector(N)
        ops = collective_operators(sec)
        tgrid = default_time_grid(N)
        tracemalloc.start()
        try:
            psi = localize_ground_state(params).state
            eig = eigensystem(build_hamiltonian(params, sec))
            observable_series(eig, psi, ops.sx, tgrid)
            line_spectrum(eig, psi, ops.sx, threshold=1e-8 * N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

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
    """The same eigensystem without its permutation: forces the line sum
    over eigenbasis levels."""
    return EigenSystem(eig.energies, eig.columns(np.arange(eig.dim)))


def evolved_series(eig, psi, ops, tgrid):
    """<op>(t) for each op, one row per op, by evolving the state over the
    grid with ``propagate``.

    Energies are shifted by E_0, a global phase that cancels in every
    expectation value and keeps the phase arguments small.
    """
    shifted = EigenSystem(eig.energies - eig.energies[0], eig.vectors, eig.permutation)
    out = np.empty((len(ops), tgrid.shape[0]), dtype=np.complex128)
    for i, t in enumerate(tgrid):
        amps = propagate(shifted, psi, t).amplitudes
        out[:, i] = [np.vdot(amps, op.apply(amps)) for op in ops]
    return out


def random_band2(dim, seed):
    """A random complex Hermitian operator of bandwidth 2, so that the line
    sums see offsets +-1 and +-2 with complex weights."""
    rng = np.random.default_rng(seed)
    diags = {0: rng.normal(size=dim).astype(complex)}
    for off in (1, 2):
        if dim > off:
            diags[off] = rng.normal(size=dim - off) + 1j * rng.normal(size=dim - off)
    return BandedHermitianOperator(dim, diags)


def norm_bound(op):
    """Sum over bands of the largest |entry|, a bound on ||op||."""
    return sum(np.max(np.abs(band)) for band in op.bands.values())


class TestLineSum:
    """Both line sums of observable_series over a diagonal H, the band sum
    and the eigenbasis one (``dense_copy``), against state evolution."""

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
        op_list = (ops.sx, ops.sy, ops.sz, random_band2(sec.dim, N))
        for op, ref in zip(op_list, evolved_series(eig, psi, op_list, tgrid)):
            scale = np.max(np.abs(ref))
            for e in (eig, dense_copy(eig)):
                lines = observable_series(e, psi, op, tgrid)
                assert lines.values.dtype == np.complex128
                assert lines.values.shape == (T,)
                err = np.max(np.abs(lines.values - ref))
                assert err <= lines.error_bound + 1e-12 * scale

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
        for op in (ops.sx, ops.sy, ops.sz, random_band2(sec.dim, N)):
            observable_series(eig, psi, op, tgrid)

    @pytest.mark.parametrize(
        "tgrid",
        [
            np.array([0.0]),
            np.array([0.0, 1.0, 3.0]),
            np.zeros((2, 2)),
            np.full(4, math.nan),
        ],
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


class TestBohrLines:
    """observable_series against state evolution on the same eigensystem.

    Sizes stay small: state evolution rounds each phase (E_k - E_0) t on
    its own, so its own error grows with N t and would hide that of the
    line sum.
    """

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("N", [24, 31])
    @pytest.mark.parametrize(
        "prep,phi_n",
        [("kicked", 0.0), ("kicked", 0.7), ("kicked", math.pi / 2), ("trial", 0.0)],
    )
    def test_matches_state_evolution(self, gamma, N, prep, phi_n):
        h = 0.6
        params = LmgParams(N=N, h=h, gamma=gamma)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        if prep == "trial":
            psi = trial_localized_state(sec, h).state
        else:
            psi = localize_ground_state(params, g=2e-3, phi_n=phi_n).state
        ops = collective_operators(sec)
        tgrid = 5.3 + np.arange(203) * (40.0 * math.pi * N / 203)
        eigs = [eig] if eig.permutation is None else [eig, dense_copy(eig)]
        op_list = (ops.sx, ops.sy, ops.sz, random_band2(sec.dim, N))
        for e in eigs:
            for op, ref in zip(op_list, evolved_series(e, psi, op_list, tgrid)):
                series = observable_series(e, psi, op, tgrid)
                norm = norm_bound(op)
                assert series.error_bound <= 1e-13 * norm
                err = np.max(np.abs(series.values - ref))
                assert err <= series.error_bound + 1e-12 * norm

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_evolution_under_complex_kicked_hamiltonian(self, gamma):
        N, h = 27, 0.55
        params = LmgParams(N=N, h=h, gamma=gamma)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec, g=0.05, phi_n=0.7))
        assert np.iscomplexobj(eig.vectors)
        psi = trial_localized_state(sec, h).state
        ops = collective_operators(sec)
        tgrid = np.arange(150) * (4.0 * math.pi * N / 150)
        op_list = (ops.sx, ops.sy, ops.sz, random_band2(sec.dim, N))
        for op, ref in zip(op_list, evolved_series(eig, psi, op_list, tgrid)):
            series = observable_series(eig, psi, op, tgrid)
            norm = norm_bound(op)
            err = np.max(np.abs(series.values - ref))
            assert err <= series.error_bound + 1e-12 * norm

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_one_line_per_phase_block(self, monkeypatch, gamma):
        # every block holds a single line, so each block boundary is crossed
        N, h = 30, 0.6
        params = LmgParams(N=N, h=h, gamma=gamma)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        psi = trial_localized_state(sec, h).state
        sx = collective_operators(sec).sx
        tgrid = 5.3 + np.arange(101) * (40.0 * math.pi * N / 101)
        monkeypatch.setattr(evolve, "_PHASE_BLOCK", 1)
        series = observable_series(eig, psi, sx, tgrid)
        ref = evolved_series(eig, psi, [sx], tgrid)[0]
        err = np.max(np.abs(series.values - ref))
        assert err <= series.error_bound + 1e-12 * norm_bound(sx)

    def test_truncation_is_reported(self):
        # the kicked ground state reaches every free level, most of them
        # with amplitudes far below the cut, so the bound is nonzero
        N, h = 200, 0.716
        params = LmgParams(N=N, h=h, gamma=0.5)
        sec = build_sector(N)
        eig = eigensystem(build_hamiltonian(params, sec))
        psi = localize_ground_state(params).state
        sx = collective_operators(sec).sx
        tgrid = default_time_grid(N, periods=1, samples=64)
        series = observable_series(eig, psi, sx, tgrid)
        assert 0.0 < series.error_bound <= 1e-13 * norm_bound(sx)
        err = np.max(np.abs(series.values - evolved_series(eig, psi, [sx], tgrid)[0]))
        assert err <= series.error_bound + 1e-12 * norm_bound(sx)


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


def per_mode_formula(mode, tgrid):
    """The mode waveform as written in projected_solution's docstring."""
    envelope = np.exp(-1j * mode.nu * tgrid)
    cw, sw = np.cos(mode.omega_k * tgrid), np.sin(mode.omega_k * tgrid)
    return (
        envelope * (mode.sx0 * cw + mode.sy0 * sw),
        envelope * (mode.sy0 * cw - mode.sx0 * sw),
    )


def per_level_init(psi, sec, h):
    """projected_init as one loop over the levels."""
    n = sec.N
    perm = np.argsort(isotropic_energies(sec, h), kind="stable")
    c, a = psi.amplitudes, ladder_plus_band(sec)
    modes = []
    for k in range(n + 1):
        m = int(perm[k])
        sx0 = sy0 = 0.0j
        if m + 1 <= n:
            coh = np.conj(c[m]) * c[m + 1]
            sx0 += coh * (a[m] / 2.0)
            sy0 += coh * (-0.5j * a[m])
        if m - 1 >= 0:
            coh = np.conj(c[m]) * c[m - 1]
            sx0 += coh * (a[m - 1] / 2.0)
            sy0 += coh * (0.5j * a[m - 1])
        mk = sec.m_values[m]
        modes.append(
            ProjectedMode(k, float(mk), 1.0 / n, h - 2.0 * mk / n, complex(sx0), complex(sy0))
        )
    return modes


_unit = st.floats(-1.0, 1.0)
_complex = st.builds(complex, _unit, _unit)


class TestModeLines:
    """projected_solution and analytic_sum, summed as two Bohr lines per
    mode, against the per-mode cos/sin formula."""

    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        modes=st.lists(
            st.builds(ProjectedMode, st.integers(0, 9), st.just(0.0), _unit, _unit,
                      _complex, _complex),
            min_size=1,
            max_size=6,
        ),
        T=st.integers(2, 16385),
        start=st.integers(-1000, 1000),
        t_max=st.floats(1e-3, 250.0),
    )
    def test_matches_per_mode_formula(self, modes, T, start, t_max):
        # |frequency| * |t| <= 500, so both routes round their phases alike
        step = t_max / (abs(start) + T)
        tgrid = (start + np.arange(T)) * step
        ref_x, ref_y = (np.sum(c, axis=0) for c in zip(*(per_mode_formula(m, tgrid) for m in modes)))
        sum_x, sum_y = analytic_sum(modes, len(modes) - 1, tgrid)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert np.max(np.abs(sum_x.values - ref_x)) <= 1e-12 * scale
        assert np.max(np.abs(sum_y.values - ref_y)) <= 1e-12 * scale
        ref_x, ref_y = per_mode_formula(modes[0], tgrid)
        sol_x, sol_y = projected_solution(modes[0], tgrid)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert np.max(np.abs(sol_x.values - ref_x)) <= 1e-12 * scale
        assert np.max(np.abs(sol_y.values - ref_y)) <= 1e-12 * scale

    @pytest.mark.parametrize("N,h", [(1, 0.5), (10, 0.3), (33, 0.62), (500, 0.8338)])
    def test_init_matches_per_level_loop(self, N, h):
        sec = build_sector(N)
        rng = np.random.default_rng(N)
        psi = normalized_state(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        for got, ref in zip(projected_init(psi, sec, h), per_level_init(psi, sec, h), strict=True):
            assert (got.k, got.Mk, got.nu, got.omega_k) == (ref.k, ref.Mk, ref.nu, ref.omega_k)
            # |sx0| + |sy0| bounds both coherence terms of the level, so this
            # allows a few roundings of each term
            tol = 1e-15 * (abs(ref.sx0) + abs(ref.sy0))
            assert abs(got.sx0 - ref.sx0) <= tol
            assert abs(got.sy0 - ref.sy0) <= tol

    @pytest.mark.parametrize(
        "tgrid", [np.array([0.0]), np.array([0.0, 1.0, 3.0]), np.full(4, math.nan)]
    )
    def test_bad_grid_rejected_before_any_work(self, monkeypatch, tgrid):
        mode = ProjectedMode(k=0, Mk=1.0, nu=0.1, omega_k=0.05, sx0=1.0, sy0=0.5j)

        def refuse(*args, **kwargs):
            raise AssertionError("phases formed")

        monkeypatch.setattr(evolve, "_phase_sum", refuse)
        with pytest.raises(ValueError):
            analytic_sum([mode], 0, tgrid)
        with pytest.raises(ValueError):
            projected_solution(mode, tgrid)


def full_direct_sum(sec, h, m0, tgrid):
    """(4/N^2) sum over all N + 1 levels of |<m|Sx|M0>|^2 e^{-i (E_m - E_M0) t}."""
    N = sec.N
    idx0 = int(np.flatnonzero(sec.m_values == m0)[0])
    u = collective_operators(sec).sx.apply(basis_state(sec.dim, idx0).amplitudes)
    gaps = isotropic_gap(N, sec.two_m, round(2 * m0), h)
    return (4.0 / N**2) * (np.abs(u) ** 2 @ np.exp(-1j * gaps[:, None] * tgrid[None, :]))


class TestCorrelation:
    @pytest.mark.parametrize(
        "N,h", [(1, 0.5), (2, 0.3), (8, 0.55), (100, 0.71), (500, 0.8338)]
    )
    def test_direct_matches_sum_over_every_level(self, N, h):
        sec = build_sector(N)
        tgrid = 0.7 + np.arange(1000) * (40 * math.pi * N / 1000)
        for member in correlation_fN(sec, h, tgrid).members:
            ref = full_direct_sum(sec, h, member.m0, tgrid)
            assert np.max(np.abs(member.direct.values - ref)) <= 1e-15

    def test_memory_is_two_lines(self):
        # the (N+1) x T phases of a sum over every level peaked at 63-66 MB
        N, h = 500, 0.8338
        sec = build_sector(N)
        tgrid = default_time_grid(N, samples=4096)
        tracemalloc.start()
        try:
            correlation_fN(sec, h, tgrid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

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

    @pytest.mark.parametrize(
        "t",
        [
            np.full(4, math.nan),
            np.arange(4) * math.nan,
            np.array([0.0, math.inf, math.inf, math.inf]),
            np.array([0.0, 1.0, 2.0, math.nan]),
        ],
    )
    def test_rejects_non_finite_grid(self, t):
        with pytest.raises(ValueError):
            TimeSeries(t=t, values=np.zeros(4))


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


def inverse_iteration_ground(op, dps=40, steps=3):
    """Ground state of a tridiagonal H by inverse iteration in ``dps`` digits.

    H = D T D^H with D the diagonal gauge that makes the band real and
    positive, as in ``eigensystem``; T is solved by an LU factorization
    shifted to its lowest eigenvalue in double precision.
    """
    diag, band = op.band(0).real, op.band(1)
    off = np.abs(band)
    gauge = np.exp(-1j * np.concatenate(([0.0], np.cumsum(np.angle(band)))))
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    shift = float(np.linalg.eigvalsh(dense)[0])
    with mpmath.workdps(dps):
        e = [mpmath.mpf(float(x)) for x in off]
        u = [mpmath.mpf(float(diag[0])) - shift]
        low = []
        for i in range(1, op.dim):
            low.append(e[i - 1] / u[-1])
            u.append(mpmath.mpf(float(diag[i])) - shift - low[-1] * e[i - 1])
        x = [mpmath.mpf(1)] * op.dim
        for _ in range(steps):
            y = [x[0]]
            for i in range(1, op.dim):
                y.append(x[i] - low[i - 1] * y[-1])
            z = [y[-1] / u[-1]]
            for i in range(op.dim - 2, -1, -1):
                z.append((y[i] - e[i] * z[-1]) / u[i])
            z.reverse()
            norm = mpmath.sqrt(mpmath.fsum(t * t for t in z))
            x = [t / norm for t in z]
        return gauge * np.array([float(t) for t in x])


def phase_aligned_distance(psi, ref):
    """min over phases a of ||psi - a ref||, for unit vectors."""
    overlap = np.vdot(ref, psi)
    return float(np.linalg.norm(psi - ref * (overlap / abs(overlap))))


class TestWindowedGround:
    """The kicked ground state solved on a certified window of levels."""

    @pytest.mark.parametrize("N,M0", [(300, 90), (500, 150)])
    @pytest.mark.parametrize("crescent", [False, True])
    @pytest.mark.parametrize("g", ["1/N^2", 1e-3])
    @pytest.mark.parametrize("phi_n", [0.0, 1.3])
    def test_state_against_high_precision(self, N, M0, crescent, g, phi_n):
        # h = 2 M0 / N puts the ground level at M0 (round); h = (2 M0 + 1)/N
        # makes M0 and M0 + 1 a degenerate pair (crescent)
        h = (2 * M0 + crescent) / N
        g = 1.0 / N**2 if g == "1/N^2" else g
        params = LmgParams(N=N, h=h)
        op = build_hamiltonian(params, build_sector(N), g=g, phi_n=phi_n)
        psi = localize_ground_state(params, g=g, phi_n=phi_n).state.amplitudes
        assert phase_aligned_distance(psi, inverse_iteration_ground(op)) <= 1e-13

    @seed(20261018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(
        N=st.integers(2, 500),
        h=st.floats(0.3, 0.9),
        log_g=st.floats(-5.0, -3.0),
        phi_n=st.floats(0.0, 2.0 * math.pi),
    )
    def test_window_agrees_with_full_solve(self, N, h, log_g, phi_n):
        op = build_hamiltonian(LmgParams(N=N, h=h), build_sector(N), g=10.0**log_g,
                               phi_n=phi_n)
        energy, psi = evolve._windowed_ground(op)
        full = eigensystem(op)
        assert phase_aligned_distance(psi.amplitudes, full.vectors[:, 0]) <= 1e-9
        assert abs(energy - full.ground_energy) <= 1e-12 * op.norm_inf()

    @pytest.mark.parametrize(
        "N,gamma,g",
        [(200, 0.5, 1e-3), (10, 1.0, 1e-2), (200, 1.0, 0.5)],
        ids=["bandwidth-2", "small-N", "large-g"],
    )
    def test_other_cases_solve_whole(self, N, gamma, g, monkeypatch):
        op = build_hamiltonian(LmgParams(N=N, h=0.6, gamma=gamma), build_sector(N), g=g,
                               phi_n=0.7)
        solved = []

        def counting(matrix):
            solved.append(matrix)
            return eigensystem(matrix)

        monkeypatch.setattr(evolve, "eigensystem", counting)
        energy, psi = evolve._windowed_ground(op)
        assert solved == [op]
        full = eigensystem(op)
        assert energy == full.ground_energy
        assert np.array_equal(psi.amplitudes, full.vectors[:, 0])
