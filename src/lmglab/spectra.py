"""Exact Bohr line spectra, DFT periodograms with peak detection, mode
classification, frequency-scaling fits, and quasicrystal constructions.

Frequencies are reported in units of nu = 1/N throughout, matching the
natural scale of the collective dynamics and making runs at different N
directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolve import EigenSystem, TimeSeries, bohr_lines
from .model import ground_M

ROUND = "round"
CRESCENT = "crescent"
GENERIC = "generic"

# tolerance for deciding that N*h is an integer (h is user-entered decimal)
NH_INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class LineSpectrum:
    """Exact transition lines (E_j - E_k, b_j^* O_jk b_k) above a weight cut."""

    frequencies: np.ndarray
    weights: np.ndarray
    threshold: float

    def __len__(self) -> int:
        return self.frequencies.shape[0]


def line_spectrum(
    eig: EigenSystem, psi0, op, threshold: float
) -> LineSpectrum:
    """All level pairs (j, k) whose weight  b_j^* O_jk b_k  clears ``threshold``.

    Frequencies are E_j - E_k, so every oscillating line appears with both
    signs; a j = k pair contributes a zero-frequency line.  Pairs come from
    ``evolve.bohr_lines`` at tolerance 2 ``threshold``, which drops no line
    above ``threshold``: a dropped level's lines weigh at most tol / 4.  A
    diagonal H gives every line, band by band in Sz order, before the cut.
    """
    freqs, weights, _ = bohr_lines(eig, psi0, op, 2.0 * threshold)
    kept = np.abs(weights) > threshold
    return LineSpectrum(
        frequencies=freqs[kept], weights=weights[kept], threshold=threshold
    )


@dataclass(frozen=True)
class Peak:
    freq_over_nu: float
    height: float


@dataclass(frozen=True)
class Spectrum:
    """One-sided DFT magnitude spectrum with frequencies in units of nu."""

    freq_over_nu: np.ndarray
    magnitudes: np.ndarray
    window: str = "hann"


def periodogram(series: TimeSeries, n_spins: int, window: str = "hann") -> Spectrum:
    """DFT magnitude spectrum of a time series, frequency axis in nu = 1/N.

    A periodic Hann window (default) controls leakage; magnitudes are scaled
    by 2/sum(w) so an on-bin unit tone shows height ~1.  ``window`` may be
    "hann" or "none".
    """
    n = series.t.shape[0]
    if n < 16:
        raise ValueError("need at least 16 samples")
    if window == "hann":
        w = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    elif window == "none":
        w = np.ones(n)
    else:
        raise ValueError(f"unknown window {window!r}")
    values = np.asarray(series.values)
    transform = np.fft.fft(values * w)
    half = n // 2
    dt = series.dt
    # angular bin spacing 2*pi/(n*dt); nu = 1/N converts to nu units
    freq_over_nu = (2.0 * math.pi / (n * dt)) * np.arange(half + 1) * n_spins
    magnitudes = np.abs(transform[: half + 1]) * (2.0 / w.sum())
    return Spectrum(freq_over_nu=freq_over_nu, magnitudes=magnitudes, window=window)


def _hann_shape(offset: float) -> float:
    """Hann main-lobe magnitude relative to its center, |W(d)/W(0)|."""
    if offset == 0.0:
        return 1.0
    return abs(math.sin(math.pi * offset) / (math.pi * offset * (1.0 - offset**2)))


def find_peaks(spectrum: Spectrum, min_height_fraction: float) -> list[Peak]:
    """Interior local maxima above a fraction of the spectral maximum.

    The zero-frequency bin is ignored both as a peak candidate and as the
    height reference.  For Hann-windowed spectra the three-point estimator
    d = 2 (y+ - y-) / (y- + 2 y0 + y+) is exact for an isolated tone; other
    windows fall back to a quadratic fit through the log magnitudes.  The
    list comes back sorted by height, tallest first.
    """
    mags = spectrum.magnitudes
    if mags.shape[0] < 3:
        return []
    reference = float(mags[1:].max())
    if reference <= 0.0:
        return []
    cut = min_height_fraction * reference
    bin_width = float(spectrum.freq_over_nu[1] - spectrum.freq_over_nu[0])
    # interior bins above the cut and both neighbours (negated: nan fails no test)
    inner = mags[1:-1]
    candidates = 1 + np.flatnonzero(~(inner < cut) & ~(mags[:-2] >= inner) & ~(mags[2:] >= inner))
    peaks = []
    for k in candidates.tolist():
        y0, ym1, yp1 = mags[k], mags[k - 1], mags[k + 1]
        if spectrum.window == "hann":
            offset = 2.0 * (yp1 - ym1) / (ym1 + 2.0 * y0 + yp1)
            height = y0 / _hann_shape(offset)
        else:
            if ym1 > 0.0 and yp1 > 0.0:
                lm1, l0, lp1 = math.log(ym1), math.log(y0), math.log(yp1)
            else:
                lm1, l0, lp1 = ym1, y0, yp1
            denom = 2.0 * (2.0 * l0 - lp1 - lm1)
            offset = (lp1 - lm1) / denom if denom != 0.0 else 0.0
            height = y0 - 0.25 * (ym1 - yp1) * offset
        peaks.append(
            Peak(
                freq_over_nu=float(spectrum.freq_over_nu[k] + offset * bin_width),
                height=float(height),
            )
        )
    peaks.sort(key=lambda p: -p.height)
    return peaks


@dataclass(frozen=True)
class IntrinsicFrequencies:
    """The two coupled frequencies of the near-ground oscillation."""

    nu: float
    omega0: float
    lines: tuple[float, float]
    degenerate: bool
    m0: float


def intrinsic_frequencies(N: int, h: float) -> IntrinsicFrequencies:
    """nu = 1/N and omega_0 = h - 2 M0/N, with the observable line pair.

    A degenerate ground pair means omega_0 = +-nu; the report then carries
    omega0 = nu and lines (0, 2 nu).
    """
    if h >= 1.0:
        raise ValueError("intrinsic frequencies are defined in the broken phase")
    nu = 1.0 / N
    ground = ground_M(N, h)
    if ground.degenerate:
        return IntrinsicFrequencies(
            nu=nu, omega0=nu, lines=(0.0, 2.0 * nu), degenerate=True, m0=ground.m0
        )
    omega0 = h - ground.two_m0 / N
    return IntrinsicFrequencies(
        nu=nu,
        omega0=omega0,
        lines=(abs(nu - omega0), abs(nu + omega0)),
        degenerate=False,
        m0=ground.m0,
    )


@dataclass(frozen=True)
class ModeClass:
    label: str
    omega0: float
    degenerate: bool


def classify_mode(N: int, h: float) -> ModeClass:
    """Round / crescent / generic oscillation mode of the isotropic ground level.

    A degenerate ground pair (Nh an integer of the other parity than N) gives
    the crescent mode (bounded oscillation at 2 nu); a single level at
    M0 = Nh/2 (Nh an integer of N's parity) gives the round mode (omega_0 = 0,
    full precession circle at nu); any other h is generic with both lines
    present.  The level comes from ``intrinsic_frequencies``, so the label
    agrees with the m0 and omega0 reported next to it.
    """
    freqs = intrinsic_frequencies(N, h)
    if freqs.degenerate:
        label = CRESCENT
    elif abs(N * h - 2.0 * freqs.m0) <= NH_INTEGER_TOL:
        label = ROUND
    else:
        label = GENERIC
    return ModeClass(label=label, omega0=freqs.omega0, degenerate=freqs.degenerate)


def quasicrystal_h(N: int, kappa: float) -> np.ndarray:
    """Fields h for which the two intrinsic lines have ratio kappa.

    Inverting kappa = (nu - w0)/(nu + w0) gives w0 = nu (1-kappa)/(1+kappa);
    valid fields sit at h = nu (2 zeta + (1-kappa)/(1+kappa)) for even N and
    h = nu (2 eta + 1 + (1-kappa)/(1+kappa)) for odd N, all inside [0, 1).
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    nu = 1.0 / N
    delta = (1.0 - kappa) / (1.0 + kappa)
    if N % 2 == 0:
        zeta = np.arange((N - 2) // 2 + 1)
        return nu * (2.0 * zeta + delta)
    eta = np.arange((N - 3) // 2 + 1)
    return nu * (2.0 * eta + 1.0 + delta)


def cut_and_project_sequence(slope: float, length: int) -> str:
    """Symbol sequence of the line y = slope*x crossing the unit grid.

    Walking from the origin, a vertical grid line contributes 'D' and a
    horizontal one 'U', ordered by crossing position; at a lattice point the
    vertical crossing is emitted first.  The golden-ratio slope produces the
    Fibonacci word.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError("slope must lie strictly between 0 and 1")
    if length < 0:
        raise ValueError("length must be >= 0")
    symbols = []
    i = 1  # next vertical line x = i
    j = 1  # next horizontal line y = j, crossed at x = j/slope
    while len(symbols) < length:
        x_vertical = float(i)
        x_horizontal = j / slope
        if x_vertical <= x_horizontal:
            symbols.append("D")
            i += 1
        else:
            symbols.append("U")
            j += 1
    return "".join(symbols)


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit  freq = nu0 * N^(-p)  from log-log least squares."""

    nu0: float
    exponent: float


def frequency_scaling_fit(samples: list[tuple[int, float]]) -> ScalingFit:
    """Fit the size dependence of a measured frequency.

    ``samples`` holds (N, frequency) pairs; at least three distinct N are
    required.  Returns the prefactor and the positive decay exponent p (the
    log-log slope is -p).
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    ns = np.array([float(n) for n, _ in samples])
    fs = np.array([float(f) for _, f in samples])
    if np.unique(ns).shape[0] < 3:
        raise ValueError("need at least 3 distinct N values")
    if np.any(fs <= 0.0) or np.any(ns <= 0.0):
        raise ValueError("frequencies and sizes must be positive")
    slope, intercept = np.polyfit(np.log(ns), np.log(fs), 1)
    return ScalingFit(nu0=float(math.exp(intercept)), exponent=float(-slope))
