import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab.evolve import TimeSeries, default_time_grid, eigensystem, ground_state
from lmglab.model import LmgParams, build_hamiltonian
from lmglab.spectra import (
    Peak,
    Spectrum,
    _hann_shape,
    classify_mode,
    cut_and_project_sequence,
    find_peaks,
    frequency_scaling_fit,
    intrinsic_frequencies,
    line_spectrum,
    periodogram,
    quasicrystal_h,
)
from lmglab.spinspace import collective_operators
from lmglab.ssb import localize_ground_state

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def tone_series(N, freqs_over_nu, amplitudes, periods=20, samples=4096):
    tgrid = default_time_grid(N, periods=periods, samples=samples)
    values = np.zeros(samples, dtype=complex)
    for f, a in zip(freqs_over_nu, amplitudes):
        values += a * np.cos((f / N) * tgrid)
    return TimeSeries(t=tgrid, values=values)


def fibonacci_word(length):
    """Fixed point of the substitution D -> DU, U -> D."""
    word = "D"
    while len(word) < length:
        word = "".join("DU" if ch == "D" else "D" for ch in word)
    return word[:length]


class TestPeriodogram:
    def test_single_tone(self):
        spec = periodogram(tone_series(100, [1.0], [1.0]), 100)
        peaks = find_peaks(spec, 0.1)
        assert len(peaks) == 1
        assert peaks[0].freq_over_nu == pytest.approx(1.0, abs=0.05)

    def test_two_tone_heights(self):
        spec = periodogram(tone_series(100, [0.6, 1.4], [10.0, 7.0]), 100)
        peaks = find_peaks(spec, 0.1)
        assert len(peaks) == 2
        assert peaks[0].freq_over_nu == pytest.approx(0.6, abs=0.05)
        assert peaks[1].freq_over_nu == pytest.approx(1.4, abs=0.05)
        assert peaks[0].height / peaks[1].height == pytest.approx(10.0 / 7.0, rel=0.05, abs=0)

    def test_off_bin_tone_located_precisely(self):
        spec = periodogram(tone_series(100, [1.013], [1.0]), 100)
        peaks = find_peaks(spec, 0.1)
        assert peaks[0].freq_over_nu == pytest.approx(1.013, abs=1e-6)

    def test_parseval_window_corrected(self):
        rng = np.random.default_rng(4)
        n = 512
        tgrid = np.arange(n) * 0.1
        values = rng.normal(size=n)
        series = TimeSeries(t=tgrid, values=values.astype(complex))
        w = 0.5 - 0.5 * np.cos(2 * math.pi * np.arange(n) / n)
        spec = periodogram(series, 10)
        # undo the 2/sum(w) display scaling, fold the one-sided halves
        raw_sq = (spec.magnitudes * (w.sum() / 2.0)) ** 2
        fold = np.full(raw_sq.shape, 2.0)
        fold[0] = 1.0
        if n % 2 == 0:
            fold[-1] = 1.0
        total = np.sum(raw_sq * fold) / n
        energy = np.sum((values * w) ** 2)
        assert total == pytest.approx(energy, rel=1e-9, abs=0)

    def test_rejects_short_and_non_uniform(self):
        tgrid = np.arange(8) * 1.0
        with pytest.raises(ValueError):
            periodogram(TimeSeries(t=tgrid, values=np.zeros(8)), 10)
        with pytest.raises(ValueError):
            periodogram(TimeSeries(t=np.arange(32.0) ** 2, values=np.zeros(32)), 10)


class TestFindPeaks:
    def test_monotone_spectrum_has_no_peaks(self):
        from lmglab.spectra import Spectrum

        spec = Spectrum(
            freq_over_nu=np.arange(32) * 0.1,
            magnitudes=np.exp(-0.3 * np.arange(32.0)),
        )
        assert find_peaks(spec, 0.01) == []

    def test_threshold_prunes_small_peaks(self):
        spec = periodogram(tone_series(100, [0.6, 1.4], [10.0, 0.2]), 100)
        tall = find_peaks(spec, 0.1)
        assert len(tall) == 1
        both = find_peaks(spec, 0.01)
        assert len(both) == 2


def per_bin_peaks(spectrum, min_height_fraction):
    """The reference: find_peaks as a loop that visits every bin."""
    mags = spectrum.magnitudes
    if mags.shape[0] < 3:
        return []
    reference = float(mags[1:].max())
    if reference <= 0.0:
        return []
    cut = min_height_fraction * reference
    bin_width = float(spectrum.freq_over_nu[1] - spectrum.freq_over_nu[0])
    peaks = []
    for k in range(1, mags.shape[0] - 1):
        y0 = mags[k]
        if y0 < cut or mags[k - 1] >= y0 or mags[k + 1] >= y0:
            continue
        ym1, yp1 = mags[k - 1], mags[k + 1]
        offset = 2.0 * (yp1 - ym1) / (ym1 + 2.0 * y0 + yp1)
        height = y0 / _hann_shape(offset)
        peaks.append(
            Peak(
                freq_over_nu=float(spectrum.freq_over_nu[k] + offset * bin_width),
                height=float(height),
            )
        )
    peaks.sort(key=lambda p: -p.height)
    return peaks


class TestFindPeaksAgainstPerBinLoop:
    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        # few distinct levels, so plateaus of equal neighbours are common
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0]) | st.floats(0.0, 10.0),
                 min_size=0, max_size=40),
        st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5]),
    )
    def test_same_peaks_as_per_bin_loop(self, mags, fraction):
        spec = Spectrum(
            freq_over_nu=np.arange(len(mags)) * 0.25,
            magnitudes=np.array(mags, dtype=np.float64),
        )
        assert find_peaks(spec, fraction) == per_bin_peaks(spec, fraction)

    def test_periodograms_and_empty_spectra(self):
        spec = periodogram(tone_series(100, [0.6, 1.4, 7.3], [10.0, 0.2, 1.0]), 100)
        for fraction in (0.0, 1e-6, 0.01, 0.1, 0.5, 2.0):
            assert find_peaks(spec, fraction) == per_bin_peaks(spec, fraction)
        # nothing above the cut, and nothing above zero
        assert find_peaks(spec, 2.0) == []
        flat = Spectrum(np.arange(64) * 0.1, np.zeros(64))
        assert find_peaks(flat, 0.1) == per_bin_peaks(flat, 0.1) == []


class TestLineSpectrum:
    def test_eigenstate_gives_single_dc_line(self):
        N = 12
        eig = eigensystem(build_hamiltonian(LmgParams(N=N, h=0.4)))
        ops = collective_operators(N)
        psi = ground_state(eig)
        lines = line_spectrum(eig, psi, ops.sz, threshold=1e-10)
        assert lines.frequencies.size == 1
        assert lines.frequencies[0] == 0.0

    def test_exact_ground_state_carries_no_in_plane_lines(self):
        N = 12
        eig = eigensystem(build_hamiltonian(LmgParams(N=N, h=0.4)))
        ops = collective_operators(N)
        lines = line_spectrum(eig, ground_state(eig), ops.sx, threshold=1e-12)
        assert lines.frequencies.size == 0

    def test_weakly_localized_state_shows_the_gap_line_pairs(self):
        # in the small-kick limit the only lines above threshold sit at
        # +-(E1 - E0) and +-(E2 - E0), the content of the correlation formula
        N, h = 60, 0.57
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        ops = collective_operators(N)
        loc = localize_ground_state(params, g=1e-6)
        lines = line_spectrum(eig, loc.state, ops.sx, threshold=1e-4 * N)
        gaps = {
            round(f, 10)
            for f in (
                eig.energies[1] - eig.energies[0],
                eig.energies[2] - eig.energies[0],
            )
        }
        measured = {round(abs(f), 10) for f in lines.frequencies}
        assert measured == gaps
        assert lines.frequencies.size == 4

    @pytest.mark.parametrize("threshold", [0.0, 1e-30, 1e-18, 1e-8])
    def test_every_line_above_threshold_is_listed(self, threshold):
        # thresholds far below the 1e-13 ||O|| tolerance of a series: at
        # gamma < 1 the kicked state reaches every free level, with amplitudes
        # down to 1e-21; at gamma = 1 the lines are read off the bands
        N, h = 40, 0.6
        sx = collective_operators(N).sx
        for gamma in (0.5, 1.0):
            params = LmgParams(N=N, h=h, gamma=gamma)
            eig = eigensystem(build_hamiltonian(params))
            psi = localize_ground_state(params, g=1e-3).state
            lines = line_spectrum(eig, psi, sx, threshold=threshold)
            b = eig.to_energy_basis(psi)
            v = eig.columns(np.arange(eig.dim))
            full = np.conj(b)[:, None] * (v.T @ sx.to_dense() @ v) * b
            above = np.abs(full) > threshold
            assert lines.frequencies.size == np.count_nonzero(above)
            assert np.sum(np.abs(lines.weights)) == pytest.approx(
                np.sum(np.abs(full[above])), rel=1e-12, abs=0
            )

    def test_localized_state_dominant_pair(self):
        N, h = 100, 0.716
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        ops = collective_operators(N)
        loc = localize_ground_state(params, g=1e-4)
        lines = line_spectrum(eig, loc.state, ops.sx, threshold=1e-8)
        order = np.argsort(-np.abs(lines.weights))
        nu = 1.0 / N
        top = {round(abs(lines.frequencies[i]) / nu, 6) for i in order[:4]}
        assert top == {0.6, 1.4}


class TestPeriodogramAgainstLines:
    @pytest.mark.parametrize("h", [0.716, 0.713, 0.719])
    def test_peak_locations_match_exact_bohr_lines(self, h):
        # detected peaks sit within one bin (0.05 nu at the default grid)
        # of the dominant exact line frequencies
        N = 100
        params = LmgParams(N=N, h=h)
        eig = eigensystem(build_hamiltonian(params))
        ops = collective_operators(N)
        loc = localize_ground_state(params, g=1e-4)
        tgrid = default_time_grid(N)
        from lmglab.evolve import observable_series

        series = observable_series(eig, loc.state, ops.sx, tgrid)
        mx = TimeSeries(t=tgrid, values=series.values * 2.0 / N)
        peaks = find_peaks(periodogram(mx, N), 0.01)
        lines = line_spectrum(eig, loc.state, ops.sx, threshold=1e-8)
        nu = 1.0 / N
        line_freqs = np.abs(lines.frequencies) / nu
        for peak in peaks:
            assert np.min(np.abs(line_freqs - peak.freq_over_nu)) <= 0.05


class TestIntrinsicFrequencies:
    def test_generic_case(self):
        freqs = intrinsic_frequencies(100, 0.716)
        assert freqs.omega0 == pytest.approx(-0.004, abs=1e-12)
        assert sorted(freqs.lines) == pytest.approx([0.006, 0.014], abs=1e-12)
        assert not freqs.degenerate

    def test_round_case(self):
        freqs = intrinsic_frequencies(100, 0.72)
        assert freqs.omega0 == 0.0
        assert freqs.lines == (0.01, 0.01)

    def test_crescent_case(self):
        freqs = intrinsic_frequencies(100, 0.71)
        assert freqs.degenerate
        assert freqs.omega0 == pytest.approx(0.01, abs=0)
        assert freqs.lines == (0.0, 0.02)

    def test_rejects_symmetric_phase(self):
        with pytest.raises(ValueError):
            intrinsic_frequencies(10, 1.0)


class TestClassifyMode:
    def test_table_rows(self):
        assert classify_mode(100, 0.710).label == "crescent"
        assert classify_mode(100, 0.720).label == "round"
        assert classify_mode(100, 0.716).label == "generic"
        # odd N: odd Nh is round, even Nh (including zero field) is crescent
        assert classify_mode(101, 0.0).label == "crescent"
        assert classify_mode(101, 51.0 / 101.0).label == "round"
        assert classify_mode(101, 52.0 / 101.0).label == "crescent"

    def test_omega0_matches_intrinsic_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            N = int(rng.integers(2, 150))
            h = float(rng.uniform(0.0, 0.99))
            mode = classify_mode(N, h)
            freqs = intrinsic_frequencies(N, h)
            assert mode.omega0 == freqs.omega0


class TestQuasicrystal:
    def test_golden_ratio_field_value(self):
        fields = quasicrystal_h(100, GOLDEN)
        delta = (1.0 - GOLDEN) / (1.0 + GOLDEN)
        assert fields[26] == pytest.approx(0.01 * (52.0 + delta), rel=1e-14, abs=0)
        assert delta == pytest.approx((math.sqrt(5) - 1) / (math.sqrt(5) + 3), rel=1e-14, abs=0)

    def test_round_trip_ratio_over_random_draws(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            N = int(rng.integers(4, 300))
            kappa = float(rng.uniform(0.05, 0.95))
            fields = quasicrystal_h(N, kappa)
            assert fields.size > 0
            assert np.all((fields >= 0.0) & (fields < 1.0))
            pick = fields[int(rng.integers(0, fields.size))]
            freqs = intrinsic_frequencies(N, pick)
            lo, hi = sorted(freqs.lines)
            assert lo / hi == pytest.approx(kappa, abs=1e-12)

    def test_near_round_limit(self):
        fields = quasicrystal_h(50, 0.999999)
        nu = 1.0 / 50
        # delta -> 0: fields approach even multiples of nu
        assert np.max(np.abs(fields / nu - np.round(fields / nu))) < 1e-5

    def test_smallest_sectors(self):
        delta = (1.0 - 0.5) / (1.0 + 0.5)
        assert np.allclose(quasicrystal_h(2, 0.5), [delta / 2.0])
        assert np.allclose(quasicrystal_h(3, 0.5), [(1.0 + delta) / 3.0])

    def test_rejects_bad_kappa(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                quasicrystal_h(10, bad)

    @pytest.mark.parametrize("kappa", [0.05, 0.3, GOLDEN, 0.9])
    def test_one_formula_equals_the_two_parity_branches(self, kappa):
        delta = (1.0 - kappa) / (1.0 + kappa)
        for N in range(1, 300):
            if N % 2 == 0:
                ref = (1.0 / N) * (2.0 * np.arange((N - 2) // 2 + 1) + delta)
            else:
                ref = (1.0 / N) * (2.0 * np.arange((N - 3) // 2 + 1) + 1.0 + delta)
            assert quasicrystal_h(N, kappa).tobytes() == ref.tobytes()


def crossing_walk(slope, length):
    """Reference symbol sequence: walk along y = slope*x and emit 'D' at each
    vertical grid line x = i and 'U' at each horizontal one y = j, crossed at
    x = j/slope, the vertical first at a lattice point."""
    symbols = []
    i = j = 1
    while len(symbols) < length:
        if float(i) <= j / slope:
            symbols.append("D")
            i += 1
        else:
            symbols.append("U")
            j += 1
    return "".join(symbols)


class TestCutAndProject:
    def test_matches_the_crossing_walk(self):
        # the walk's word at one length is the prefix of its longer words;
        # the lattice-point slopes put a vertical and a horizontal crossing
        # at the same x
        rng = np.random.default_rng(14)
        slopes = [1 / 2, 1 / 3, 2 / 3, 1 / 4, GOLDEN, *rng.uniform(0.0, 1.0, 16)]
        for slope in slopes:
            reference = crossing_walk(slope, 4096)
            lengths = [*range(33), *rng.integers(33, 4096, 100), 4096]
            for length in lengths:
                assert cut_and_project_sequence(slope, length) == reference[:length]

    def test_golden_slope_gives_fibonacci_word(self):
        word = cut_and_project_sequence(GOLDEN, 100)
        assert word == fibonacci_word(100)

    def test_rational_slope_is_periodic(self):
        word = cut_and_project_sequence(0.5, 30)
        assert word == ("DDU" * 10)

    def test_symbol_frequency_ratio_approaches_slope(self):
        length = 10_000
        word = cut_and_project_sequence(GOLDEN, length)
        ratio = word.count("U") / word.count("D")
        assert ratio == pytest.approx(GOLDEN, rel=0.02, abs=0)

    def test_rejects_bad_slope(self):
        with pytest.raises(ValueError):
            cut_and_project_sequence(1.2, 5)


class TestScalingFit:
    def test_exact_inverse_n(self):
        samples = [(n, 1.0 / n) for n in (50, 100, 200, 400)]
        fit = frequency_scaling_fit(samples)
        assert fit.exponent == pytest.approx(1.0, abs=1e-10)
        assert fit.nu0 == pytest.approx(1.0, rel=1e-10, abs=0)

    def test_constant_data(self):
        fit = frequency_scaling_fit([(10, 2.0), (20, 2.0), (40, 2.0)])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            frequency_scaling_fit([(10, 1.0), (20, 0.5)])
        with pytest.raises(ValueError):
            frequency_scaling_fit([(10, 1.0), (10, 0.5), (10, 0.25)])
