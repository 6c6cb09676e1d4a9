import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab import evolve, ssb
from lmglab.cli import SPLITTING_FLOOR
from lmglab.evolve import default_time_grid, eigensystem, ground_state, observable_series
from lmglab.model import LmgParams, build_hamiltonian
from lmglab.spectra import line_spectrum
from lmglab.spinspace import (
    BandedHermitianOperator,
    _Raising,
    collective_operators,
)
from lmglab.ssb import (
    two_well_eigenvalues,
    degenerate_pt_gap,
    gamma0_gap_scan,
    localize_ground_state,
    newman_alpha,
    order_parameter,
    wkb_rate,
)

from coherent import basis, coherent_state, expectation, unit

# splittings below this are double-precision noise at O(1) matrix norms
RESOLUTION_FLOOR = 1e-13


class TestLocalize:
    def test_zero_kick_returns_exact_ground(self):
        loc = localize_ground_state(LmgParams(N=40, h=0.5), g=0.0)
        assert loc.delta_e == pytest.approx(0.0, abs=1e-12)
        assert loc.m_n == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "g,target", [(1e-4, 6.60e-4), (1e-3, 5.10e-3)]
    )
    def test_energy_elevation_reference_values(self, g, target):
        loc = localize_ground_state(LmgParams(N=100, h=0.714), g=g)
        assert loc.delta_e == pytest.approx(target, rel=0.05, abs=0)

    def test_order_parameter_approaches_mean_field(self):
        # a strong kick saturates the polarization at the mean-field value;
        # the default weak kick g = 1/N^2 only partially localizes (its
        # amplitude is pinned below as a regression value)
        h = 0.716
        strong = localize_ground_state(LmgParams(N=100, h=h), g=0.01)
        assert strong.m_n == pytest.approx(math.sqrt(1.0 - h * h), rel=0.10, abs=0)
        weak = localize_ground_state(LmgParams(N=100, h=h), g=1.0 / 100**2)
        assert weak.m_n == pytest.approx(0.2593, abs=5e-4)

    def test_polarization_grows_with_n_at_fixed_kick(self):
        h, g = 0.716, 1e-3
        values = [
            localize_ground_state(LmgParams(N=n, h=h), g=g).m_n
            for n in (50, 100, 200, 400)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < math.sqrt(1.0 - h * h)

    def test_polarization_vanishes_with_kick_at_fixed_n(self):
        h = 0.716
        values = [
            localize_ground_state(LmgParams(N=100, h=h), g=g).m_n
            for g in (1e-3, 1e-5, 1e-7)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_line_weight_concentrated_on_lowest_levels(self):
        N, h = 100, 0.716
        params = LmgParams(N=N, h=h)
        loc = localize_ground_state(params, g=1.0 / N**2)
        eig = eigensystem(build_hamiltonian(params))
        ops = collective_operators(N)
        lines = line_spectrum(eig, loc.state, ops.sx, threshold=0.0)
        coeffs = eig.to_energy_basis(loc.state)
        assert np.sum(np.abs(coeffs[:3]) ** 2) >= 0.95
        # line weight version: pairs within k <= 2 carry >= 95 percent
        total = np.sum(np.abs(lines.weights))
        low = 0.0
        b = coeffs.copy()
        b[3:] = 0.0
        v = eig.columns(np.arange(eig.dim))
        o_energy = v.conj().T @ ops.sx.apply(v)
        low = np.sum(np.abs(np.conj(b)[:, None] * o_energy * b[None, :]))
        assert low >= 0.95 * total

    @pytest.mark.parametrize("N,h", [(300, 0.55), (500, 0.8338)])
    def test_energy_elevation_against_high_precision(self, N, h):
        # <psi|H|psi>/<psi|psi> - E0 in 50 digits on the same amplitudes and
        # the same free diagonal (H is diagonal in the Sz basis at gamma = 1)
        params = LmgParams(N=N, h=h)
        loc = localize_ground_state(params, g=1.0 / N**2)
        diag = build_hamiltonian(params).band(0).real
        with mpmath.workdps(50):
            e0 = mpmath.mpf(float(np.min(diag)))
            mass = [mpmath.mpf(float(a.real)) ** 2 + mpmath.mpf(float(a.imag)) ** 2
                    for a in loc.state]
            num = mpmath.fsum(w * (mpmath.mpf(float(e)) - e0) for w, e in zip(mass, diag))
            ref = num / mpmath.fsum(mass)
            assert abs(mpmath.mpf(loc.delta_e) - ref) <= 1e-11 * ref

    @pytest.mark.parametrize("h", [0.716, 0.71])
    @pytest.mark.parametrize("g", [0.0, 5e-324], ids=["zero", "underflow"])
    def test_zero_kick_returns_the_free_ground_coordinate_vector(self, g, h):
        # h = 0.71 puts a degenerate pair at the bottom: the tie goes to the
        # lower Sz index, as the stable sort orders it.  g = 5e-324 gives a
        # band that underflows to zero, which returns level 0 as g = 0 does
        N = 100
        params = LmgParams(N=N, h=h)
        loc = localize_ground_state(params, g=g)
        free = eigensystem(build_hamiltonian(params))
        expected = np.zeros(N + 1)
        expected[free.permutation[0]] = 1.0
        assert np.array_equal(loc.state, expected)
        assert loc.m_n == 0.0 and loc.delta_e == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 11, 40, 41, 60, 61, 100, 101, 201, 1000])
    def test_zero_kick_reads_level_zero_of_the_one_free_solve(self, N, gamma, monkeypatch):
        # g = 0 leaves H = H0, so its ground pair is level 0 of the one free
        # solve, bit for bit, also at gamma = 1 crescents: h = 0.601 at
        # N = 1000 ties its two levels exactly, h = 0.71 at N = 100 splits
        # them by one rounding (7.1e-15)
        solved = []

        def counting(op):
            solved.append(eigensystem(op))
            return solved[-1]

        monkeypatch.setattr(ssb, "eigensystem", counting)
        monkeypatch.setattr(evolve, "eigensystem", counting)
        for h in (0.0, 0.3, 0.5, 0.6, 0.601, 0.61, 0.71, 0.9, 1.0, 1.5):
            solved.clear()
            loc = localize_ground_state(LmgParams(N=N, h=h, gamma=gamma), 0.0)
            assert len(solved) == 1
            free = solved[0]
            psi = ground_state(free)
            b = free.to_energy_basis(psi)
            delta_e = float(np.sum(np.abs(b) ** 2 * (free.energies - free.ground_energy)))
            assert loc.state.dtype == psi.dtype and loc.state.tobytes() == psi.tobytes()
            assert loc.energy == free.ground_energy == loc.unperturbed_ground_energy
            assert loc.delta_e == delta_e and loc.m_n == 0.0

    @pytest.mark.parametrize(
        "h, gamma, g",
        [(0.5, 1.0, 1e200), (0.5, 1.0, 1e300), (0.5, 0.5, 1e200),
         (1e200, 1.0, 1e-4), (1e300, 1.0, 1e-4), (1e300, 0.5, 1e-4)],
    )
    def test_huge_kick_or_field_localizes_along_the_larger(self, h, gamma, g):
        # the window test squared levels, or the residual norm, past 1e154
        # and raised OverflowError
        loc = localize_ground_state(LmgParams(N=100, h=h, gamma=gamma), g=g)
        assert abs(loc.m_n - (1.0 if g > h else 0.0)) <= 1e-12
        assert math.isfinite(loc.energy) and math.isfinite(loc.delta_e)

    def test_kick_direction_sets_sign(self):
        params = LmgParams(N=30, h=0.4)
        plus = localize_ground_state(params, g=1e-3)
        minus = localize_ground_state(params, g=-1e-3)
        assert plus.m_n > 0.0
        assert minus.m_n == pytest.approx(-plus.m_n, rel=1e-8, abs=0)


def kicked_series(params, g, phi_n, backward=False):
    """m(t) = (2/N) <S+>(t) = m_x + i m_y over 512 samples of 40 pi N after
    the kick along phi_n, and the kicked ground state's m_n; ``backward``
    gives m(-t) at the same samples."""
    loc = localize_ground_state(params, g=g, phi_n=phi_n)
    eig = eigensystem(build_hamiltonian(params))
    tgrid = default_time_grid(params.N, samples=512)
    # observable_series takes an increasing grid, so m(-t) is read off -t reversed
    grid = -tgrid[::-1] if backward else tgrid
    values = observable_series(eig, loc.state, _Raising(params.N), grid).values
    return (values[::-1] if backward else values) * (2.0 / params.N), loc.m_n


_N = st.integers(2, 199)
_FIELD = st.floats(0.05, 0.95)
_KICK = st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e)
# m(t) lies in the unit disk, so 1e-11 is 1e-11 of the series' scale; the
# two routes of a relation round their kicked ground states apart, most at
# gamma < 1 and small N g (4.1e-12 in 600 such draws)
SYMMETRY_TOL = 1e-11


class TestSymmetries:
    """Relations between a kicked run and a transformed run, which need no
    second solver: the parity e^{i pi Sz} of H at every gamma, complex
    conjugation with time reversal at every gamma, and the U(1) rotation
    e^{i phi Sz} of the gamma = 1 H."""

    @seed(20261021)
    @settings(max_examples=60, deadline=None, database=None)
    @given(N=_N, h=_FIELD, gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), g=_KICK)
    def test_parity_negates_the_series_and_keeps_m_n(self, N, h, gamma, g):
        # phi_n = 0 kicks by a real band and phi_n = pi by a complex one
        # (sin pi is 1.2e-16), so the two take the real and complex routes
        params = LmgParams(N=N, h=h, gamma=gamma)
        m0, mn0 = kicked_series(params, g, 0.0)
        m_pi, mn_pi = kicked_series(params, g, math.pi)
        assert np.max(np.abs(m_pi + m0)) <= SYMMETRY_TOL
        assert abs(mn_pi - mn0) <= SYMMETRY_TOL

    @seed(20261021)
    @settings(max_examples=60, deadline=None, database=None)
    @given(N=_N, h=_FIELD, gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), g=_KICK,
           phi_n=st.floats(-math.pi, math.pi))
    def test_conjugation_reverses_time_and_kick(self, N, h, gamma, g, phi_n):
        # H and S+ are real in the S_z basis and the kick along -phi_n is
        # the conjugate of the one along phi_n, so m(t; phi_n) is
        # conj(m(-t; -phi_n)); the worst of 400 draws read 5.1e-13 of max|m|
        params = LmgParams(N=N, h=h, gamma=gamma)
        m_phi, _ = kicked_series(params, g, phi_n)
        m_back, _ = kicked_series(params, g, -phi_n, backward=True)
        assert np.max(np.abs(m_phi - np.conj(m_back))) <= SYMMETRY_TOL * np.max(np.abs(m_phi))

    @seed(20261021)
    @settings(max_examples=40, deadline=None, database=None)
    @given(N=_N, h=_FIELD, g=_KICK, phi_n=st.floats(-math.pi, math.pi))
    def test_rotation_turns_the_series_by_phi_n(self, N, h, g, phi_n):
        params = LmgParams(N=N, h=h)
        m0, mn0 = kicked_series(params, g, 0.0)
        m_phi, mn_phi = kicked_series(params, g, phi_n)
        assert np.max(np.abs(m_phi - np.exp(1j * phi_n) * m0)) <= SYMMETRY_TOL
        assert abs(mn_phi - mn0) <= SYMMETRY_TOL


class TestOrderParameter:
    def test_fully_polarized_coherent_state(self):
        psi = coherent_state(24, math.pi / 2)
        assert order_parameter(psi, 0.0, 24) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstates_have_no_polarization(self):
        for m in (0, 5, 12):
            psi = basis(13, m)
            assert order_parameter(psi, 0.3, 12) == 0.0

    @pytest.mark.parametrize("N", [1, 2, 7, 40, 501])
    def test_equals_collective_operator_expectation(self, N):
        ops = collective_operators(N)
        rng = np.random.default_rng(N)
        psi = unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        for phi_n in (0.0, 0.7, math.pi / 2, 4.0):
            val = math.cos(phi_n) * expectation(ops.sx, psi) + math.sin(
                phi_n
            ) * expectation(ops.sy, psi)
            assert abs(order_parameter(psi, phi_n, N) - 2.0 / N * val.real) <= 1e-15

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            order_parameter(basis(5, 0), 0.0, 5)


class TestDegeneratePt:
    def test_requires_degenerate_pair(self):
        with pytest.raises(ValueError):
            degenerate_pt_gap(100, 0.716, 1e-4)

    def test_zero_kick_gives_zero_splitting(self):
        pt = degenerate_pt_gap(100, 0.71, 0.0)
        assert pt.splitting == 0.0
        assert pt.epsilon_plus == 0.0

    def test_matrix_element_against_ladder_formula(self):
        pt = degenerate_pt_gap(100, 0.71, 1e-4)
        s = 50.0
        expected = math.sqrt(s * (s + 1) - 35.0 * 36.0) / 2.0
        assert pt.sx_updown == pytest.approx(expected, rel=1e-14, abs=0)

    def test_mixed_states_polarization(self):
        N = 100
        pt = degenerate_pt_gap(N, 0.71, 1e-4)
        ops = collective_operators(N)
        m_plus = 2.0 / N * expectation(ops.sx, pt.mixed_states[0]).real
        m_minus = 2.0 / N * expectation(ops.sx, pt.mixed_states[1]).real
        assert m_plus == pytest.approx(2.0 * pt.sx_updown / N, rel=1e-12, abs=0)
        assert m_minus == pytest.approx(-2.0 * pt.sx_updown / N, rel=1e-12, abs=0)

    def test_numeric_splitting_matches_first_order(self):
        N, h = 100, 0.71
        params = LmgParams(N=N, h=h)
        residuals = {}
        for g in (1e-6, 1e-5, 1e-4):
            pt = degenerate_pt_gap(N, h, g)
            w = eigensystem(build_hamiltonian(params, g=g)).energies
            residuals[g] = abs((w[1] - w[0]) - pt.splitting)
        # residual is bounded quadratically in g (measured: cubic)
        c_bound = residuals[1e-4] / 1e-4**2
        for g, res in residuals.items():
            assert res <= c_bound * g * g * (1.0 + 1e-9)


class TestNewmanAlpha:
    def test_reference_value(self):
        result = newman_alpha(20, 0.5)
        assert result.alpha == pytest.approx(0.3125 * 2.0**-20, rel=1e-12, abs=0)
        assert result.gap == pytest.approx(2.0 * result.alpha, rel=1e-15, abs=0)
        assert result.c_h == pytest.approx(math.log(2.0), rel=1e-15, abs=0)
        assert result.theta0 == pytest.approx(math.pi / 3.0, rel=1e-15, abs=0)

    def test_log_slope_equals_log_h(self):
        h = 0.37
        logs = [newman_alpha(n, h).log_alpha for n in (10, 11, 12, 40)]
        assert logs[1] - logs[0] == pytest.approx(math.log(h), rel=1e-12, abs=0)
        assert (logs[3] - logs[0]) / 30.0 == pytest.approx(math.log(h), rel=1e-12, abs=0)

    def test_no_underflow_in_log_space(self):
        result = newman_alpha(10_000, 0.5)
        assert math.isfinite(result.log_alpha)
        assert result.alpha == 0.0  # too small for a float, but the log survives

    def test_boundaries_flagged(self):
        assert newman_alpha(10, 0.0).boundary == "h=0"
        assert newman_alpha(10, 0.0).alpha == 0.0
        r1 = newman_alpha(10, 1.0)
        assert r1.boundary == "h=1"
        assert r1.c_h == 0.0

    def test_rate_at_h1_is_positive_zero(self):
        # -ln 1 is -0.0; the gap summary reads c_h from here and writes 0.0
        assert math.copysign(1.0, newman_alpha(10, 1.0).c_h) == 1.0


class TestWkbRate:
    @pytest.mark.parametrize(
        "h,target", [(0.5, 0.450932493140378), (0.7, 0.181445256675691)]
    )
    def test_reference_values(self, h, target):
        assert wkb_rate(h) == pytest.approx(target, abs=1e-12)

    def test_boundaries(self):
        assert wkb_rate(0.0) == math.inf
        assert wkb_rate(1.0) == 0.0

    @pytest.mark.parametrize("h", [-0.1, 1.1])
    def test_rejects_outside_unit_interval(self, h):
        with pytest.raises(ValueError):
            wkb_rate(h)

    @pytest.mark.parametrize("h", [0.05, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_below_overlap_rate(self, h):
        # c(h) = -ln h - (x - ln(1 + x)) with x - ln(1 + x) > 0 for x > 0
        x = math.sqrt(1.0 - h * h)
        c = wkb_rate(h)
        assert c == pytest.approx(-math.log(h) - (x - math.log1p(x)), rel=1e-12, abs=0)
        assert c < -math.log(h)

    def test_cubic_onset_near_critical_field(self):
        h = 0.999
        x = math.sqrt(1.0 - h * h)
        # next term of the series is x^5/5, a relative correction 3 x^2 / 5
        assert wkb_rate(h) == pytest.approx(x**3 / 3.0, rel=x * x, abs=0)


class TestTwoWellEigenvalues:
    def test_limits(self):
        assert two_well_eigenvalues(1e-5, 0.0, 0.5).epsilon_plus == 1e-5
        pure_field = two_well_eigenvalues(0.0, 2e-4, 0.6)
        assert pure_field.epsilon_plus == pytest.approx(
            1e-4 * math.sqrt(1 - 0.36), rel=1e-14, abs=0
        )

    def test_large_kick_expansion(self):
        alpha, h = 1e-8, 0.5
        result = two_well_eigenvalues(alpha, 1e-3, h)
        q = 0.5e-3 * math.sqrt(1 - h * h)
        assert abs(result.epsilon_plus - q) <= alpha * alpha / q

    def test_crossover_scale(self):
        result = two_well_eigenvalues(1e-6, 0.0, 0.8)
        assert result.crossover_g == pytest.approx(2e-6 / math.sqrt(0.36), rel=1e-12, abs=0)


class TestGammaZeroScan:
    def test_monotone_decay_while_resolvable(self):
        scan = gamma0_gap_scan(range(10, 42, 4), 0.5)
        splittings = [s for _, s in scan]
        assert all(s > RESOLUTION_FLOOR for s in splittings)
        assert all(b < a for a, b in zip(splittings, splittings[1:]))

    def test_decay_is_exponential_with_stable_rate(self):
        scan = gamma0_gap_scan(range(20, 45, 4), 0.5)
        ns = np.array([n for n, _ in scan], dtype=float)
        ss = np.array([s for _, s in scan])
        slope, _ = np.polyfit(ns, np.log(ss), 1)
        # clean exponential: local rates within 5 percent of the global fit
        local = -np.diff(np.log(ss)) / np.diff(ns)
        assert np.all(np.abs(local + slope) <= 0.05 * abs(slope))
        # measured decay rate at h = 0.5 sits near 0.46, just above the
        # instanton rate 0.451 and far below the overlap rate -ln h = 0.693
        assert -slope == pytest.approx(0.465, abs=0.02)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_parity_block_eigenvalues_match_the_eigensystem_route(self, h):
        ns = [20, 33, 40, 57, 80, 101, 120, 144, 160]
        scan = gamma0_gap_scan(ns, h)
        ref = []
        for n in ns:
            ham = build_hamiltonian(LmgParams(N=n, h=h, gamma=0.0))
            per_spin = BandedHermitianOperator(
                n + 1, {off: band * (1.0 / n) for off, band in ham.diags.items()}
            )
            levels = eigensystem(per_spin).energies
            ref.append(float(levels[1] - levels[0]))
        assert [n for n, _ in scan] == ns
        assert all(abs(s - r) <= 1e-14 for (_, s), r in zip(scan, ref))
        unresolved = [n for n, s in scan if s <= SPLITTING_FLOOR]
        assert unresolved == [n for n, r in zip(ns, ref) if r <= SPLITTING_FLOOR]

    @pytest.mark.parametrize("h", [0.0, 0.5, 0.9, 1.5])
    def test_equals_eigvalsh_of_the_dense_slices_bit_for_bit(self, h):
        # the construction the scan replaced: the whole dense H, made real and
        # per spin, sliced into its even-m and odd-m rows
        ns = [1, 2, 3, 4, 41, 120, 201]
        ref = []
        for n in ns:
            ham = build_hamiltonian(LmgParams(N=n, h=h, gamma=0.0))
            dense = ham.to_dense().real * (1.0 / n)
            blocks = [np.linalg.eigvalsh(dense[p::2, p::2]) for p in (0, 1)]
            levels = np.sort(np.concatenate(blocks))
            ref.append((n, float(levels[1] - levels[0])))
        assert gamma0_gap_scan(ns, h) == ref

    def test_allocates_no_dense_matrix(self):
        # the two half-size blocks and one scaled copy: 0.75 x 8 (N+1)^2
        # bytes, where the dense-slice construction read 3.0 x
        N = 2000
        tracemalloc.start()
        try:
            gamma0_gap_scan([N], 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * (N + 1) ** 2

    def test_symmetric_phase_gap_is_polynomial(self):
        h = 1.5
        scan = dict(gamma0_gap_scan([10, 20, 40], h))
        # power-law closing, roughly 1/N per spin: doubling N about halves it
        assert scan[20] / scan[10] == pytest.approx(0.5, abs=0.2)
        assert scan[40] / scan[20] == pytest.approx(0.5, abs=0.2)
        # nowhere near exponential decay
        assert scan[40] > 1e-3 * scan[10]
