import dataclasses
import math
import tracemalloc
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab import evolve
from lmglab.evolve import (
    EigenSystem,
    ProjectedModes,
    TimeSeries,
    analytic_sum,
    bohr_lines,
    correlation_fN,
    default_time_grid,
    eigensystem,
    ground_state,
    observable_series,
    projected_init,
    projected_solution,
    propagate,
)
from lmglab.model import (
    LmgParams,
    build_hamiltonian,
    isotropic_energies,
    isotropic_gap,
    trial_localized_state,
)
from lmglab.spinspace import (
    BandedHermitianOperator,
    _Raising,
    build_sector,
    collective_operators,
    ladder_plus_band,
)
from lmglab.oracle import (
    full_space_correlation,
    full_space_ground,
    full_space_operators,
    sector_vs_full_checks,
)
from lmglab.spectra import line_spectrum, periodogram
from lmglab.ssb import degenerate_pt_gap, localize_ground_state

from coherent import basis, coherent_state, expectation, unit


def isotropic_eigensystem(N, h):
    return eigensystem(build_hamiltonian(LmgParams(N=N, h=h)))


class TestEigensystem:
    def test_diagonal_fast_path_levels(self):
        two_m = build_sector(100)
        eig = isotropic_eigensystem(100, 0.716)
        assert eig.permutation is not None and eig.vectors is None
        assert eig.energies[1] - eig.energies[0] == pytest.approx(0.006, abs=1e-12)
        assert eig.energies[2] - eig.energies[0] == pytest.approx(0.014, abs=1e-12)
        assert two_m[eig.permutation[0]] / 2 == 36.0
        # eigenvectors of a diagonal H are coordinate vectors
        cols = eig.columns([0, 1, 2])
        assert np.count_nonzero(cols) == 3

    @pytest.mark.parametrize("levels", [[0], [3, 1, 4], [], list(range(13))])
    def test_diagonal_columns_are_permuted_identity_columns(self, levels):
        # what a dense identity scattered by the permutation held
        eig = isotropic_eigensystem(12, 0.3)
        ref = np.eye(13)[:, eig.permutation][:, levels]
        cols = eig.columns(levels)
        assert cols.dtype == ref.dtype and np.array_equal(cols, ref)
        assert np.array_equal(eig.columns(np.array(levels, dtype=int)), ref)

    @pytest.mark.parametrize("gamma", [1.0, 0.5], ids=["permutation", "dense"])
    @pytest.mark.parametrize("lo,hi", [(0, 13), (3, 9), (0, 1), (12, 13), (5, 5)])
    def test_columns_row_range_is_a_row_slice(self, gamma, lo, hi):
        eig = eigensystem(build_hamiltonian(LmgParams(N=12, h=0.3, gamma=gamma)))
        assert (eig.permutation is not None) == (gamma == 1.0)
        for levels in ([0], [3, 1, 4], list(range(13))):
            assert np.array_equal(eig.columns(levels, lo, hi), eig.columns(levels)[lo:hi])

    def test_diagonal_solve_stores_no_square_array(self):
        # localize + free solve + observable_series + line_spectrum at
        # gamma = 1: a dense (N+1)^2 identity alone would be 200 MB here
        N, h = 5000, 0.716
        params = LmgParams(N=N, h=h)
        ops = collective_operators(N)
        tgrid = default_time_grid(N)
        tracemalloc.start()
        try:
            psi = localize_ground_state(params, g=1.0 / N**2).state
            eig = eigensystem(build_hamiltonian(params))
            observable_series(eig, psi, ops.sx, tgrid)
            line_spectrum(eig, psi, ops.sx, threshold=1e-8 * N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    @pytest.mark.parametrize("method", ["to_energy_basis", "from_energy_basis"])
    def test_real_vectors_take_a_complex_state_without_a_complex_copy(self, method):
        # V @ psi with complex psi would cast the whole real V to complex
        N = 400
        eig = eigensystem(build_hamiltonian(LmgParams(N=N, h=0.6, gamma=0.5)))
        assert eig.vectors.dtype == np.float64
        rng = np.random.default_rng(47)
        psi = unit(rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1))
        tracemalloc.start()
        try:
            out = getattr(eig, method)(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * 8 * (N + 1) ** 2
        matrix = eig.vectors.T if method == "to_energy_basis" else eig.vectors
        assert out.dtype == np.complex128
        assert np.max(np.abs(out - matrix.astype(np.complex128) @ psi)) <= 1e-14

    def test_two_level_closed_form(self):
        ham = build_hamiltonian(LmgParams(N=1, h=0.8), g=0.3, phi_n=0.4)
        eig = eigensystem(ham)
        ref = np.linalg.eigvalsh(ham.to_dense())
        assert np.allclose(eig.energies, ref, atol=1e-14)

    def test_banded_solver_residuals(self):
        N, h = 60, 0.4
        ham = build_hamiltonian(LmgParams(N=N, h=h), g=1e-3)
        eig = eigensystem(ham)
        dense = ham.to_dense()
        norm_h = np.abs(dense).sum(axis=1).max()  # max row sum >= ||H||
        residual_norms = np.linalg.norm(
            dense @ eig.vectors - eig.vectors * eig.energies[None, :], axis=0
        )
        assert np.max(residual_norms) <= 1e-10 * norm_h
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(N + 1))) <= 1e-11


class TestPropagate:
    def test_stationary_state_picks_up_global_phase(self):
        eig = isotropic_eigensystem(12, 0.3)
        k = 4
        m_index = eig.permutation[k]
        psi = basis(13, int(m_index))
        out = propagate(eig, psi, t=2.5)
        expected = np.exp(-1j * eig.energies[k] * 2.5) * psi
        assert np.max(np.abs(out - expected)) <= 1e-13

    def test_time_zero_is_identity(self):
        eig = isotropic_eigensystem(9, 0.2)
        rng = np.random.default_rng(1)
        psi = unit(rng.normal(size=10) + 1j * rng.normal(size=10))
        out = propagate(eig, psi, 0.0)
        assert np.max(np.abs(out - psi)) <= 1e-14

    def test_norm_and_conservation_along_trajectory(self):
        N, h = 40, 0.55
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        loc = localize_ground_state(params, g=1e-3)
        ham = build_hamiltonian(params)
        ops = collective_operators(N)
        e_ref = expectation(ham, loc.state).real
        sz_ref = expectation(ops.sz, loc.state).real
        for t in (0.0, 3.7, 190.0, 4000.0):
            psi_t = propagate(eig, loc.state, t)
            assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-12
            assert abs(expectation(ham, psi_t).real - e_ref) <= 1e-10 * abs(e_ref)
            assert abs(expectation(ops.sz, psi_t).real - sz_ref) <= 1e-10 * N


class TestObservableSeries:
    def test_exact_ground_state_shows_no_polarization(self):
        N, h = 30, 0.4
        eig = isotropic_eigensystem(N, h)
        psi = ground_state(eig)
        ops = collective_operators(N)
        tgrid = default_time_grid(N, periods=2, samples=64)
        series = observable_series(eig, psi, ops.sx, tgrid)
        assert np.max(np.abs(series.values)) <= 1e-10

    def test_conserved_sz_series(self):
        N, h = 30, 0.4
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        loc = localize_ground_state(params, g=1e-3)
        ops = collective_operators(N)
        tgrid = default_time_grid(N, periods=3, samples=128)
        series = observable_series(eig, loc.state, ops.sz, tgrid)
        assert np.max(np.abs(series.values - series.values[0])) <= 1e-10 * N

    def test_hermitian_series_is_real(self):
        N, h = 24, 0.3
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        loc = localize_ground_state(params, g=1e-2)
        ops = collective_operators(N)
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
        amps = propagate(shifted, psi, t)
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
        eig = eigensystem(build_hamiltonian(params))
        assert eig.permutation is not None
        if prep == "trial":
            psi = trial_localized_state(N, h).state
        else:
            psi = localize_ground_state(params, g=1e-3, phi_n=0.4).state
        ops = collective_operators(N)
        # t0 != 0 and, for T = 17 and 16385, T not a multiple of ceil(sqrt(T))
        tgrid = 5.3 + np.arange(T) * (40.0 * math.pi * N / T)
        op_list = (ops.sx, ops.sy, ops.sz, random_band2(N + 1, N))
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
        eig = eigensystem(build_hamiltonian(params))
        psi = localize_ground_state(params, g=1e-3).state
        ops = collective_operators(N)
        tgrid = default_time_grid(N, periods=2, samples=128)
        monkeypatch.setattr(BandedHermitianOperator, "apply", refuse)
        for op in (ops.sx, ops.sy, ops.sz, random_band2(N + 1, N)):
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
        eig = eigensystem(build_hamiltonian(LmgParams(N=N, h=h)))
        if not diagonal:
            eig = dense_copy(eig)

        def refuse(*args, **kwargs):
            raise AssertionError("phases formed")

        monkeypatch.setattr(np, "exp", refuse)
        psi = basis(N + 1, 3)
        with pytest.raises(ValueError):
            observable_series(eig, psi, collective_operators(N).sx, tgrid)


class TestRaisingSeries:
    """m_x and m_y from one line sum of <S+> = <Sx> + i <Sy>, and two weight
    columns over one set of exponentials."""

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        N=st.integers(1, 60),
        h=st.floats(0.0, 1.5),
        gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        log_g=st.floats(-6.0, -2.0),
        phi_n=st.floats(0.0, 2.0 * math.pi),
    )
    def test_parts_match_sx_and_sy(self, N, h, gamma, log_g, phi_n):
        params = LmgParams(N=N, h=h, gamma=gamma)
        eig = eigensystem(build_hamiltonian(params))
        psi = localize_ground_state(params, g=10.0**log_g, phi_n=phi_n).state
        ops = collective_operators(N)
        tgrid = 0.3 + np.arange(257) * (4.0 * math.pi * N / 257)
        plus = observable_series(eig, psi, _Raising(N), tgrid)
        for part, op in ((plus.values.real, ops.sx), (plus.values.imag, ops.sy)):
            ref = observable_series(eig, psi, op, tgrid)
            bound = plus.error_bound + ref.error_bound + 1e-12 * N
            assert np.max(np.abs(part - ref.values)) <= bound

    @pytest.mark.parametrize("L,T", [(0, 16), (1, 17), (7, 4096), (9000, 16385)])
    def test_weight_columns_share_one_phase_sum(self, L, T):
        rng = np.random.default_rng(L + T)
        freqs = rng.normal(size=L)
        weights = rng.normal(size=(L, 2)) + 1j * rng.normal(size=(L, 2))
        tgrid = -2.0 + np.arange(T) * (50.0 / T)
        both = evolve._phase_sum(freqs, weights, tgrid)
        assert both.shape == (T, 2)
        for col in range(2):
            one = evolve._phase_sum(freqs, weights[:, col], tgrid)
            assert one.shape == (T,)
            tol = 1e-15 * np.sum(np.abs(weights[:, col]))
            assert np.max(np.abs(both[:, col] - one), initial=0.0) <= tol


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
        eig = eigensystem(build_hamiltonian(params))
        if prep == "trial":
            psi = trial_localized_state(N, h).state
        else:
            psi = localize_ground_state(params, g=2e-3, phi_n=phi_n).state
        ops = collective_operators(N)
        tgrid = 5.3 + np.arange(203) * (40.0 * math.pi * N / 203)
        eigs = [eig] if eig.permutation is None else [eig, dense_copy(eig)]
        op_list = (ops.sx, ops.sy, ops.sz, random_band2(N + 1, N))
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
        eig = eigensystem(build_hamiltonian(params, g=0.05, phi_n=0.7))
        assert np.iscomplexobj(eig.vectors)
        psi = trial_localized_state(N, h).state
        ops = collective_operators(N)
        tgrid = np.arange(150) * (4.0 * math.pi * N / 150)
        op_list = (ops.sx, ops.sy, ops.sz, random_band2(N + 1, N))
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
        eig = eigensystem(build_hamiltonian(params))
        psi = trial_localized_state(N, h).state
        sx = collective_operators(N).sx
        tgrid = 5.3 + np.arange(101) * (40.0 * math.pi * N / 101)
        monkeypatch.setattr(evolve, "_PHASE_BLOCK", 1)
        series = observable_series(eig, psi, sx, tgrid)
        ref = evolved_series(eig, psi, [sx], tgrid)[0]
        err = np.max(np.abs(series.values - ref))
        assert err <= series.error_bound + 1e-12 * norm_bound(sx)

    @pytest.mark.parametrize("N,h", [(40, 0.6), (41, 0.55), (200, 0.716)])
    def test_diagonal_h_reads_lines_off_the_bands(self, N, h):
        # a diagonal H gives one line per nonzero band entry, untruncated: at
        # tol None the lines its dense copy keeps at tol 0, exactly; at a
        # loose tol a superset of the dense lines, whose extra weight is
        # within the dense bound
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        assert eig.permutation is not None
        dense = dense_copy(eig)
        rng = np.random.default_rng(N)
        states = [
            unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)),
            localize_ground_state(params, g=2e-3, phi_n=0.7).state,
        ]
        ops = collective_operators(N)

        def multiset(freqs, weights):
            return Counter(zip(freqs.tolist(), weights.real.tolist(), weights.imag.tolist()))

        for psi in states:
            for op in (ops.sx, ops.sy, ops.sz, random_band2(N + 1, N)):
                freqs, weights, bound = bohr_lines(eig, psi, op)
                ref_freqs, ref_weights, ref_bound = bohr_lines(dense, psi, op, 0.0)
                assert bound == ref_bound == 0.0
                assert multiset(freqs, weights) == multiset(ref_freqs, ref_weights)
                tol = 1e-6 * N
                loose = bohr_lines(eig, psi, op, tol)
                np.testing.assert_array_equal(loose[0], freqs)
                np.testing.assert_array_equal(loose[1], weights)
                assert loose[2] == 0.0
                ref_freqs, ref_weights, ref_bound = bohr_lines(dense, psi, op, tol)
                lines, ref = multiset(freqs, weights), multiset(ref_freqs, ref_weights)
                assert not ref - lines
                extra = [k * math.hypot(re, im) for (_, re, im), k in (lines - ref).items()]
                assert sum(extra) <= ref_bound

    def test_truncation_is_reported(self):
        # the kicked ground state reaches every free level, most of them
        # with amplitudes far below the cut, so the bound is nonzero
        N, h = 200, 0.716
        params = LmgParams(N=N, h=h, gamma=0.5)
        eig = eigensystem(build_hamiltonian(params))
        psi = localize_ground_state(params, g=1.0 / N**2).state
        sx = collective_operators(N).sx
        tgrid = default_time_grid(N, periods=1, samples=64)
        series = observable_series(eig, psi, sx, tgrid)
        assert 0.0 < series.error_bound <= 1e-13 * norm_bound(sx)
        err = np.max(np.abs(series.values - evolved_series(eig, psi, [sx], tgrid)[0]))
        assert err <= series.error_bound + 1e-12 * norm_bound(sx)


def one_mode(nu, omega_k, sx0, sy0):
    return ProjectedModes(nu, np.array([omega_k]), np.array([sx0]), np.array([sy0]))


class TestProjectedDynamics:
    def test_mode_sum_telescopes_to_initial_expectation(self):
        N, h = 33, 0.62
        rng = np.random.default_rng(8)
        psi = unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        ops = collective_operators(N)
        modes = projected_init(psi, N, h)
        sx_total = modes.sx0.sum()
        sy_total = modes.sy0.sum()
        assert sx_total == pytest.approx(expectation(ops.sx, psi), abs=1e-12 * N)
        assert sy_total == pytest.approx(expectation(ops.sy, psi), abs=1e-12 * N)

    def test_top_basis_state_has_no_coherence(self):
        N = 10
        modes = projected_init(basis(N + 1, 0), N, 0.5)
        assert not np.any(modes.sx0) and not np.any(modes.sy0)

    def test_ground_mode_is_largest_for_coherent_state(self):
        # the mean-field state is broad, so neighbors are comparable; the
        # ground mode is still the single largest contribution
        N, h = 100, 0.716
        psi = coherent_state(N, math.acos(h))
        modes = projected_init(psi, N, h)
        assert int(np.argmax(np.abs(modes.sx0))) == 0

    def test_low_modes_dominate_for_weakly_kicked_state(self):
        # a weak kick concentrates the dynamics on the lowest few modes
        N, h = 100, 0.716
        params = LmgParams(N=N, h=h)
        loc = localize_ground_state(params, g=1e-4)
        modes = projected_init(loc.state, N, h)
        assert np.all(abs(modes.sx0[0]) > 10.0 * np.abs(modes.sx0[3:]))

    def test_round_mode_waveform(self):
        N = 50
        tgrid = default_time_grid(N, periods=2, samples=256)
        nu = 1.0 / N
        sx, sy = projected_solution(one_mode(nu, 0.0, N / 2.0, 0.0), tgrid)
        assert np.max(np.abs(sx.values.real - (N / 2.0) * np.cos(nu * tgrid))) <= 1e-12 * N
        # full circle: the polarization reaches -N/2
        assert sx.values.real.min() <= -0.99 * (N / 2.0)

    def test_crescent_mode_waveform(self):
        N = 50
        tgrid = default_time_grid(N, periods=2, samples=256)
        nu = 1.0 / N
        sx, _ = projected_solution(one_mode(nu, nu, N / 2.0, 0.0), tgrid)
        expected = (N / 2.0) * np.cos(nu * tgrid) ** 2
        assert np.max(np.abs(sx.values.real - expected)) <= 1e-12 * N
        # bounded in half a circle
        assert sx.values.real.min() >= -1e-9

    def test_time_zero_returns_initial_values(self):
        tgrid = np.array([0.0, 1.0])
        sx, sy = projected_solution(one_mode(0.1, 0.05, 1 + 2j, 0.5j), tgrid)
        assert sx.values[0] == 1 + 2j
        assert sy.values[0] == 0.5j


class TestAnalyticSum:
    @pytest.mark.parametrize("N,h", [(2, 0.3), (3, 0.5), (17, 0.55), (100, 0.716)])
    def test_full_sum_reproduces_exact_series(self, N, h):
        self.check_full_sum(N, h, state_seed=100 * N)

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        N=st.integers(1, 60),
        h=st.floats(0.0, 1.0, exclude_max=True),
        state_seed=st.integers(0, 2**32 - 1),
    )
    def test_full_sum_reproduces_exact_series_property(self, N, h, state_seed):
        self.check_full_sum(N, h, state_seed)

    @staticmethod
    def check_full_sum(N, h, state_seed):
        eig = isotropic_eigensystem(N, h)
        ops = collective_operators(N)
        rng = np.random.default_rng(state_seed)
        states = [
            unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)),
            coherent_state(N, 1.0, 0.4),
        ]
        tgrid = np.arange(256) * (2 * math.pi * N / 256)
        for psi in states:
            exact_x = observable_series(eig, psi, ops.sx, tgrid)
            exact_y = observable_series(eig, psi, ops.sy, tgrid)
            modes = projected_init(psi, N, h)
            sum_x, sum_y = analytic_sum(modes, N, tgrid)
            assert np.max(np.abs(exact_x.values - sum_x.values)) <= 1e-10 * N
            assert np.max(np.abs(exact_y.values - sum_y.values)) <= 1e-10 * N
            assert np.max(np.abs(sum_x.values.imag)) <= 1e-10 * N

    def test_truncated_sum_tracks_localized_waveform(self):
        N, h = 100, 0.716
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        loc = localize_ground_state(params, g=1e-4)
        ops = collective_operators(N)
        tgrid = default_time_grid(N)
        exact = observable_series(eig, loc.state, ops.sx, tgrid)
        modes = projected_init(loc.state, N, h)
        approx, _ = analytic_sum(modes, 3, tgrid)
        full_scale = np.max(np.abs(exact.values.real))
        deviation = np.max(np.abs(exact.values.real - approx.values.real))
        assert deviation < 0.02 * full_scale

    def test_cutoff_clamps_with_warning(self):
        N = 6
        psi = coherent_state(N, 1.2)
        modes = projected_init(psi, N, 0.5)
        tgrid = np.arange(32) * 1.0
        with pytest.warns(UserWarning):
            clamped, _ = analytic_sum(modes, N + 5, tgrid)
        full, _ = analytic_sum(modes, N, tgrid)
        assert np.array_equal(clamped.values, full.values)


def per_mode_formula(modes, tgrid):
    """The modes' waveform as written in projected_solution's docstring, summed."""
    envelope = np.exp(-1j * modes.nu * tgrid)
    sx = sy = np.zeros(tgrid.shape[0], dtype=np.complex128)
    for w, a, b in zip(modes.omega_k, modes.sx0, modes.sy0, strict=True):
        cw, sw = np.cos(w * tgrid), np.sin(w * tgrid)
        sx = sx + envelope * (a * cw + b * sw)
        sy = sy + envelope * (b * cw - a * sw)
    return sx, sy


def per_level_init(psi, n, h):
    """projected_init as one loop over the levels: omega_k, sx0 and sy0."""
    perm = np.argsort(isotropic_energies(n, h), kind="stable")
    c, a, m_values = psi, ladder_plus_band(n), build_sector(n) / 2
    omega_k, sx0s, sy0s = [], [], []
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
        omega_k.append(h - 2.0 * m_values[m] / n)
        sx0s.append(complex(sx0))
        sy0s.append(complex(sy0))
    return np.array(omega_k), np.array(sx0s), np.array(sy0s)


_unit = st.floats(-1.0, 1.0)
_complex = st.builds(complex, _unit, _unit)


class TestModeLines:
    """projected_solution and analytic_sum, summed as two Bohr lines per
    mode, against the per-mode cos/sin formula."""

    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        nu=_unit,
        levels=st.lists(st.tuples(_unit, _complex, _complex), min_size=1, max_size=6),
        T=st.integers(2, 16385),
        start=st.integers(-1000, 1000),
        t_max=st.floats(1e-3, 250.0),
    )
    def test_matches_per_mode_formula(self, nu, levels, T, start, t_max):
        # |frequency| * |t| <= 500, so both routes round their phases alike
        step = t_max / (abs(start) + T)
        tgrid = (start + np.arange(T)) * step
        omega_k, sx0, sy0 = (np.array(column) for column in zip(*levels))
        modes = ProjectedModes(nu, omega_k, sx0, sy0)
        ref_x, ref_y = per_mode_formula(modes, tgrid)
        sum_x, sum_y = analytic_sum(modes, len(levels) - 1, tgrid)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert np.max(np.abs(sum_x.values - ref_x)) <= 1e-12 * scale
        assert np.max(np.abs(sum_y.values - ref_y)) <= 1e-12 * scale
        ref_x, ref_y = per_mode_formula(modes.first(1), tgrid)
        sol_x, sol_y = projected_solution(modes.first(1), tgrid)
        scale = max(np.max(np.abs(ref_x)), np.max(np.abs(ref_y)))
        assert np.max(np.abs(sol_x.values - ref_x)) <= 1e-12 * scale
        assert np.max(np.abs(sol_y.values - ref_y)) <= 1e-12 * scale

    @pytest.mark.parametrize("N,h", [(1, 0.5), (10, 0.3), (33, 0.62), (500, 0.8338)])
    def test_init_matches_per_level_loop(self, N, h):
        rng = np.random.default_rng(N)
        psi = unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        got = projected_init(psi, N, h)
        omega_k, sx0, sy0 = per_level_init(psi, N, h)
        assert got.nu == 1.0 / N
        assert np.array_equal(got.omega_k, omega_k)
        # |sx0| + |sy0| bounds both coherence terms of the level, so this
        # allows a few roundings of each term
        tol = 1e-15 * (np.abs(sx0) + np.abs(sy0))
        assert np.all(np.abs(got.sx0 - sx0) <= tol)
        assert np.all(np.abs(got.sy0 - sy0) <= tol)

    @pytest.mark.parametrize(
        "tgrid", [np.array([0.0]), np.array([0.0, 1.0, 3.0]), np.full(4, math.nan)]
    )
    def test_bad_grid_rejected_before_any_work(self, monkeypatch, tgrid):
        mode = one_mode(0.1, 0.05, 1.0, 0.5j)

        def refuse(*args, **kwargs):
            raise AssertionError("phases formed")

        monkeypatch.setattr(evolve, "_phase_sum", refuse)
        with pytest.raises(ValueError):
            analytic_sum(mode, 0, tgrid)
        with pytest.raises(ValueError):
            projected_solution(mode, tgrid)


def full_direct_sum(N, h, m0, tgrid):
    """(4/N^2) sum over all N + 1 levels of |<m|Sx|M0>|^2 e^{-i (E_m - E_M0) t}."""
    two_m = build_sector(N)
    idx0 = int(np.flatnonzero(two_m / 2 == m0)[0])
    u = collective_operators(N).sx.apply(basis(N + 1, idx0))
    gaps = isotropic_gap(N, two_m, round(2 * m0), h)
    return (4.0 / N**2) * (np.abs(u) ** 2 @ np.exp(-1j * gaps[:, None] * tgrid[None, :]))


class TestCorrelation:
    @pytest.mark.parametrize(
        "N,h", [(1, 0.5), (2, 0.3), (8, 0.55), (100, 0.71), (500, 0.8338)]
    )
    def test_direct_matches_sum_over_every_level(self, N, h):
        tgrid = 0.7 + np.arange(1000) * (40 * math.pi * N / 1000)
        for member in correlation_fN(N, h, tgrid).members:
            ref = full_direct_sum(N, h, member.m0, tgrid)
            assert np.max(np.abs(member.closed_form.values - ref)) <= 1e-15

    def test_memory_is_two_lines(self):
        # the (N+1) x T phases of a sum over every level peaked at 63-66 MB
        N, h = 500, 0.8338
        tgrid = default_time_grid(N, samples=4096)
        tracemalloc.start()
        try:
            correlation_fN(N, h, tgrid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("N", [8, 50, 500])
    def test_direct_and_closed_form_agree(self, N):
        # reference: the matvec route, weights |<m1|Sx|M0>|^2 of the levels
        # Sx|M0> reaches on the exponentials of the existing neighbours
        two_m = build_sector(N)
        tgrid = np.arange(128) * (2 * math.pi * N / 128)
        u_of = collective_operators(N).sx.apply
        for member in correlation_fN(N, 0.55, tgrid).members:
            two_m0 = round(2 * member.m0)
            weights = np.abs(u_of(basis(N + 1, (N - two_m0) // 2))) ** 2
            reached = np.flatnonzero(weights)
            gaps = isotropic_gap(N, two_m[reached], two_m0, 0.55)
            direct = (4.0 / N**2) * (
                weights[reached] @ np.exp(-1j * gaps[:, None] * tgrid[None, :])
            )
            scale = np.max(np.abs(direct))
            assert np.max(np.abs(direct - member.closed_form.values)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "N,h", [(1, 0.5), (2, 0.3), (9, 0.0), (100, 0.71), (101, 0.95)]
    )
    def test_closed_form_equals_the_neighbour_loop(self, N, h):
        # the term-by-term loop over the existing neighbours, as reference
        tgrid = 0.3 + np.arange(256) * (2 * math.pi * N / 256)
        for member in correlation_fN(N, h, tgrid).members:
            two_m0 = round(2 * member.m0)
            freqs, weights = [], []
            closed = np.zeros(tgrid.shape[0], dtype=np.complex128)
            for two_m1 in (two_m0 + 2, two_m0 - 2):
                if abs(two_m1) <= N:
                    w = float(N * (N + 2) - two_m0 * two_m1) / 16.0
                    gap = isotropic_gap(N, two_m1, two_m0, h)
                    freqs.append(gap)
                    weights.append(w)
                    closed += w * np.exp(-1j * gap * tgrid)
            closed *= 4.0 / N**2
            assert member.frequencies == tuple(freqs)
            assert member.weights == tuple(weights)
            assert member.closed_form.values.tobytes() == closed.tobytes()

    @pytest.mark.parametrize(
        "N,h", [(1, 0.5), (2, 0.0), (7, 0.3), (8, 0.5), (100, 0.71), (201, 0.95)]
    )
    def test_shared_exponentials_equal_two_sets_bit_for_bit(self, N, h):
        # reference: the closed form on exponentials of its own, built from
        # the existing neighbours
        tgrid = 0.4 + np.arange(300) * (2 * math.pi * N / 300)
        for member in correlation_fN(N, h, tgrid).members:
            two_m0 = round(2 * member.m0)
            two_m1 = np.array([two_m0 + 2, two_m0 - 2], dtype=np.int64)
            two_m1 = two_m1[np.abs(two_m1) <= N]
            w = (np.int64(N) * (N + 2) - two_m0 * two_m1) / 16.0
            freqs = isotropic_gap(N, two_m1, two_m0, h)
            phases = np.exp(-1j * freqs[:, None] * tgrid[None, :])
            closed = (4.0 / N**2) * (w[:, None] * phases).sum(axis=0)
            assert member.closed_form.values.tobytes() == closed.tobytes()
            assert member.frequencies == tuple(freqs.tolist())

    def test_frequencies_are_nu_plus_minus_omega0(self):
        N, h = 100, 0.716
        result = correlation_fN(N, h, np.arange(16) * 1.0)
        member = result.members[0]
        nu = 1.0 / N
        omega0 = h - 2.0 * member.m0 / N
        measured = sorted(abs(f) for f in member.frequencies)
        expected = sorted((abs(nu - omega0), abs(nu + omega0)))
        assert measured == pytest.approx(expected, rel=1e-12, abs=0)

    def test_static_moment_at_time_zero(self):
        N, h = 40, 0.3
        two_m = build_sector(N)
        result = correlation_fN(N, h, np.arange(16) * 1.0)
        member = result.members[0]
        ops = collective_operators(N)
        idx0 = int(np.nonzero(two_m / 2 == member.m0)[0][0])
        u = ops.sx.apply(basis(N + 1, idx0))
        static = (4.0 / N**2) * float(np.sum(np.abs(u) ** 2))
        assert member.closed_form.values[0].real == pytest.approx(static, rel=1e-14, abs=0)

    def test_degenerate_pair_returns_both_members(self):
        result = correlation_fN(100, 0.71, np.arange(16) * 1.0)
        assert len(result.members) > 1
        assert [m.m0 for m in result.members] == [35.0, 36.0]

    def test_rejects_symmetric_phase(self):
        with pytest.raises(ValueError):
            correlation_fN(10, 1.0, np.arange(16) * 1.0)

    def test_member_carries_the_closed_form_only(self):
        names = {f.name for f in dataclasses.fields(evolve.CorrelationMember)}
        assert names == {"m0", "closed_form", "frequencies", "weights"}


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

    def test_caller_arrays_stay_writable(self):
        # the series keeps read-only copies; the caller's own grid and values
        # are not frozen by building a series on them, and later writes to
        # them do not reach the series
        t, values = default_time_grid(10, samples=64), np.zeros(64)
        series = TimeSeries(t=t, values=values)
        eig = isotropic_eigensystem(10, 0.5)
        exact = observable_series(eig, basis(11, 3), collective_operators(10).sx, t)
        before = [a.copy() for a in (series.t, series.values, exact.t, exact.values)]
        t[0], values[0], t[2] = 1.0, 1.0, 100.0
        assert t[0] == 1.0 and values[0] == 1.0
        for arr, ref in zip((series.t, series.values, exact.t, exact.values), before):
            assert not arr.flags.writeable
            assert np.array_equal(arr, ref)


class TestConcurrency:
    def test_shared_eigensystem_across_threads(self):
        # one EigenSystem feeding many concurrent series evaluations must
        # give the same answers as a serial run (everything is immutable)
        from concurrent.futures import ThreadPoolExecutor

        N, h = 40, 0.55
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        ops = collective_operators(N)
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
    """Ground state of a banded Hermitian H by inverse iteration in ``dps`` digits.

    H - sigma is factored as L U without pivoting, which is stable because
    sigma lies just below the lowest eigenvalue (H - sigma is positive
    definite), and the band keeps its width through the elimination.
    """
    n, width = op.dim, op.bandwidth
    sigma = float(np.linalg.eigvalsh(op.to_dense())[0]) - 1e-10
    with mpmath.workdps(dps):
        rows = []  # the band of H - sigma, row i as {column: entry}
        for i in range(n):
            cols = range(max(0, i - width), min(n, i + width + 1))
            rows.append({j: mpmath.mpc(complex(op.bands[j - i][min(i, j)])) for j in cols})
            rows[i][i] -= mpmath.mpf(sigma)
        low = [dict() for _ in range(n)]
        for k in range(n):
            for i in range(k + 1, min(n, k + width + 1)):
                factor = rows[i][k] / rows[k][k]
                low[i][k] = factor
                for j in range(k, min(n, k + width + 1)):
                    rows[i][j] = rows[i].get(j, 0) - factor * rows[k][j]
        x = [mpmath.mpc(1)] * n
        for _ in range(steps):
            y = []
            for i in range(n):
                y.append(x[i] - mpmath.fsum(f * y[k] for k, f in low[i].items()))
            z = [mpmath.mpc(0)] * n
            for i in range(n - 1, -1, -1):
                tail = mpmath.fsum(rows[i][j] * z[j] for j in rows[i] if j > i)
                z[i] = (y[i] - tail) / rows[i][i]
            norm = mpmath.sqrt(mpmath.fsum(abs(t) ** 2 for t in z))
            x = [t / norm for t in z]
        return np.array([complex(t) for t in x])


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
        op = build_hamiltonian(params, g=g, phi_n=phi_n)
        psi = localize_ground_state(params, g=g, phi_n=phi_n).state
        assert phase_aligned_distance(psi, inverse_iteration_ground(op)) <= 1e-13

    @pytest.mark.parametrize("N,h", [(64, 0.375), (57, 1.0 / 3.0)])
    def test_former_fallbacks_against_high_precision(self, N, h):
        # two benchmark points where the whole solve's state lies 1.2e-13 and
        # 7.3e-14 from the reference: the free levels must certify them
        params = LmgParams(N=N, h=h)
        op = build_hamiltonian(params, g=1.0 / N**2)
        psi = localize_ground_state(params, g=1.0 / N**2).state
        assert phase_aligned_distance(psi, inverse_iteration_ground(op)) <= 1e-14

    def test_rows_read_at_gamma_one(self, monkeypatch):
        # the free levels are coordinate vectors: each block read spans their
        # K Sz rows and one neighbour row on each side, never all N + 1 rows
        N = 10**5
        params = LmgParams(N=N, h=0.716)
        free = eigensystem(build_hamiltonian(params))
        op = build_hamiltonian(params, g=1.0 / N**2)
        shapes = []
        columns = EigenSystem.columns

        def recording(self, levels, *rows):
            block = columns(self, levels, *rows)
            shapes.append(block.shape)
            return block

        monkeypatch.setattr(EigenSystem, "columns", recording)
        energy, psi = evolve._free_level_ground(op, free)
        assert shapes and all(rows <= k + 2 for rows, k in shapes)
        assert energy < free.ground_energy
        assert np.count_nonzero(psi) <= shapes[-1][0]

    @seed(20261018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(
        N=st.integers(2, 500),
        h=st.floats(0.3, 0.9),
        log_g=st.floats(-5.0, -3.0),
        phi_n=st.floats(0.0, 2.0 * math.pi),
    )
    def test_window_agrees_with_full_solve(self, N, h, log_g, phi_n):
        params = LmgParams(N=N, h=h)
        free = eigensystem(build_hamiltonian(params))
        op = build_hamiltonian(params, g=10.0**log_g, phi_n=phi_n)
        energy, psi = evolve._free_level_ground(op, free)
        full = eigensystem(op)
        assert phase_aligned_distance(psi, full.vectors[:, 0]) <= 1e-9
        norm = np.abs(op.to_dense()).sum(axis=1).max()  # max row sum >= ||H||
        assert abs(energy - full.ground_energy) <= 1e-12 * norm

    @pytest.mark.parametrize(
        "N,gamma,g",
        [(10, 1.0, 1e-2), (200, 1.0, 0.5)],
        ids=["small-N", "large-g"],
    )
    def test_other_cases_solve_whole(self, N, gamma, g, monkeypatch):
        params = LmgParams(N=N, h=0.6, gamma=gamma)
        free = eigensystem(build_hamiltonian(params))
        op = build_hamiltonian(params, g=g, phi_n=0.7)
        solved = []

        def counting(matrix):
            solved.append(matrix)
            return eigensystem(matrix)

        monkeypatch.setattr(evolve, "eigensystem", counting)
        energy, psi = evolve._free_level_ground(op, free)
        assert solved == [op]
        full = eigensystem(op)
        assert energy == full.ground_energy
        assert np.array_equal(psi, full.vectors[:, 0])


class TestFreeLevelGround:
    """The kicked ground state from the lowest free levels."""

    @staticmethod
    def solve(N, h, gamma, g, phi_n):
        params = LmgParams(N=N, h=h, gamma=gamma)
        free = eigensystem(build_hamiltonian(params))
        op = build_hamiltonian(params, g=g, phi_n=phi_n)
        with mock.patch.object(evolve, "eigensystem", wraps=evolve.eigensystem) as whole:
            with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                energy, psi = evolve._free_level_ground(op, free)
        sizes = [call.args[0].shape[0] for call in eigh.call_args_list]
        return op, energy, psi, whole.call_count == 0, sizes

    @pytest.mark.parametrize("N", [60, 80, 100])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("phi_n", [0.0, 1.3])
    def test_state_against_high_precision(self, N, gamma, phi_n):
        params = LmgParams(N=N, h=0.6, gamma=gamma)
        op = build_hamiltonian(params, g=1.0 / N**2, phi_n=phi_n)
        psi = localize_ground_state(params, g=1.0 / N**2, phi_n=phi_n).state
        ref = inverse_iteration_ground(op)
        assert phase_aligned_distance(psi, ref) <= 1e-10

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        N=st.integers(40, 300),
        h=st.floats(0.3, 0.9),
        gamma=st.floats(0.0, 0.95),
        log_g=st.floats(-6.0, -3.0),
        phi_n=st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi)),
    )
    def test_certified_levels_agree_with_whole_solve(self, N, h, gamma, log_g, phi_n):
        op, energy, psi, certified, _ = self.solve(N, h, gamma, 10.0**log_g, phi_n)
        full = eigensystem(op)
        if certified:
            norm = np.abs(op.to_dense()).sum(axis=1).max()  # max row sum >= ||H||
            assert abs(energy - full.ground_energy) <= 1e-12 * norm
            assert phase_aligned_distance(psi, full.vectors[:, 0]) <= 1e-9
        else:
            assert energy == full.ground_energy
            assert np.array_equal(psi, full.vectors[:, 0])

    @pytest.mark.parametrize("N", [200, 1000])
    def test_large_n_needs_no_whole_solve(self, N):
        assert self.solve(N, 0.6, 0.5, 1.0 / N**2, 0.7)[3]

    def test_uncertifiable_crescent_doubles_k(self):
        # a crescent pair split by g = 1e-20 is never certified: K doubles
        # from 32 to 512 (4K <= 3(N+1)) and the whole solve's pair comes back
        N = 1000
        op, energy, psi, certified, sizes = self.solve(N, 0.601, 1.0, 1e-20, 0.0)
        assert not certified
        assert sizes == [32, 64, 128, 256, 512, N + 1]
        full = eigensystem(op)
        assert energy == full.ground_energy
        assert np.array_equal(psi, ground_state(full))

    @pytest.mark.parametrize(
        "N,gamma,g,sizes",
        [(60, 0.5, 1.0, [32, 45, 61]), (40, 0.5, 1.0 / 40**2, [41])],
        ids=["residual-too-large", "below-cut-off"],
    )
    def test_uncertified_case_returns_the_whole_solve(self, N, gamma, g, sizes):
        # at N = 60 and g = 1 both K under the cut-off, 32 and floor(3 * 61 / 4)
        # = 45, leave a residual above eps max|levels|; at N = 40 no K is under
        # it.  Both return exactly the ground pair of the whole kicked H
        op, energy, psi, certified, solved = self.solve(N, 0.6, gamma, g, 0.0)
        assert solved == sizes
        assert not certified
        full = eigensystem(op)
        assert energy == full.ground_energy
        assert np.array_equal(psi, ground_state(full))
        loc = localize_ground_state(LmgParams(N=N, h=0.6, gamma=gamma), g=g)
        assert loc.energy == energy
        assert np.array_equal(loc.state, psi)

    def test_lone_k_is_followed_by_the_largest_k(self):
        # a benchmark anisotropic op that K = 32 does not certify (N + 1 = 82,
        # between 43 and 86, where doubling leaves one K): K = 61 certifies it
        # with no whole solve, 1.4e-13 from the 40-digit state (whole: 4.3e-13)
        N, h, gamma, g = 81, 0.598, 0.632, 1.6e-4
        op, energy, psi, certified, sizes = self.solve(N, h, gamma, g, 0.0)
        assert certified
        assert sizes == [32, 61]
        assert phase_aligned_distance(psi, inverse_iteration_ground(op)) <= 1e-12


def _kicked():
    return localize_ground_state(LmgParams(N=6, h=0.5), g=1e-3)


def _series():
    return TimeSeries(t=np.arange(16.0), values=np.cos(np.arange(16.0)))


# one maker per frozen record whose fields hold arrays, at N = 6 and h = 0.5
ARRAY_RECORDS = {
    "TimeSeries": _series,
    "EigenSystem": lambda: isotropic_eigensystem(6, 0.5),
    "ProjectedModes": lambda: projected_init(_kicked().state, 6, 0.5),
    "CorrelationMember": lambda: correlation_fN(6, 0.5, np.arange(8.0)).members[0],
    "TrialState": lambda: trial_localized_state(6, 0.5),
    "FullGround": lambda: full_space_ground(LmgParams(N=6, h=0.5)),
    "LineSpectrum": lambda: line_spectrum(
        isotropic_eigensystem(6, 0.5), _kicked().state,
        collective_operators(6).sx, 1e-8,
    ),
    "Spectrum": lambda: periodogram(_series(), 6),
    "LocalizedState": _kicked,
    "DegeneratePtGap": lambda: degenerate_pt_gap(6, 0.5, 1e-3),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(name):
    # value equality compared arrays, whose truth value raises, and hashing
    # them raised as well
    first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert len({first, second}) == 2 and hash(first) == hash(first)
    assert second in [first, second]


# the closed forms in N: each reads the spin count alone, not a sector
CLOSED_FORMS = {
    "correlation_fN": lambda N: correlation_fN(N, 0.5, np.arange(8.0)),
    "trial_localized_state": lambda N: trial_localized_state(N, 0.5),
    "degenerate_pt_gap": lambda N: degenerate_pt_gap(N, 4 / 9, 1e-4),
}


@pytest.mark.parametrize("integer", [int, np.int64])
def test_closed_forms_take_the_spin_count(integer):
    # N = 8, h = 1/2: M0 = 2 with both neighbour gaps 1/8; N = 9, h = 4/9:
    # the crescent pair M = 3/2, 5/2 at Sz indices 3 and 2
    t = np.arange(8.0)
    (member,) = correlation_fN(integer(8), 0.5, t).members
    phases = np.exp(-1j * np.array([[0.125], [0.125]]) * t)
    expected = (4.0 / 64) * (np.array([[3.5], [4.5]]) * phases).sum(axis=0)
    assert member.closed_form.values.tobytes() == expected.tobytes()
    trial = trial_localized_state(integer(8), 0.5)
    amps = np.zeros(9, dtype=np.complex128)
    amps[1:4] = 1.0 / math.sqrt(8.0), math.sqrt(0.75), 1.0 / math.sqrt(8.0)
    assert trial.state.tobytes() == amps.tobytes() and trial.delta_e == 2.0 / 64
    pt = degenerate_pt_gap(integer(9), 4 / 9, 1e-4)
    assert pt.sx_updown == math.sqrt(9 * 11 - 3 * 5) / 4.0
    assert [np.flatnonzero(s).tolist() for s in pt.mixed_states] == [[2, 3], [2, 3]]


# the readers of the basis, which build its 2M labels from the spin count,
# and the LmgParams that carries it to build_hamiltonian
BASIS_READERS = {
    "isotropic_energies": lambda N: isotropic_energies(N, 0.5),
    "ladder_plus_band": ladder_plus_band,
    "collective_operators": collective_operators,
    "projected_init": lambda N: projected_init(basis(9, 0), N, 0.5),
    "_Raising": _Raising,
    "LmgParams": lambda N: LmgParams(N=N, h=0.5),
}
# the oracle's entry points, which check N as the sector side does before
# their own size limit
FULL_SPACE = {
    "full_space_operators": full_space_operators,
    "full_space_correlation": lambda N: full_space_correlation(N, 0.5, np.arange(8.0)),
    "sector_vs_full_checks": lambda N: sector_vs_full_checks(N, 0.5, 0.01),
}


@pytest.mark.parametrize("N", [0, -1, 2.5, True, "8", build_sector(8)],
                         ids=["zero", "negative", "float", "bool", "str", "sector"])
@pytest.mark.parametrize("name", [*CLOSED_FORMS, *BASIS_READERS, *FULL_SPACE])
def test_closed_forms_reject_a_spin_count_that_is_no_positive_integer(name, N):
    with pytest.raises(ValueError, match="spin count"):
        {**CLOSED_FORMS, **BASIS_READERS, **FULL_SPACE}[name](N)
