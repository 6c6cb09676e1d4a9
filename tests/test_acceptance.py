"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from lmglab.evolve import (
    TimeSeries,
    analytic_sum,
    correlation_fN,
    default_time_grid,
    eigensystem,
    observable_series,
    projected_init,
    propagate,
)
from lmglab.model import (
    LmgParams,
    build_hamiltonian,
    isotropic_gap,
    lifetime_bound,
    trial_localized_state,
)
from lmglab.oracle import sector_vs_full_checks
from lmglab.spectra import (
    classify_mode,
    cut_and_project_sequence,
    find_peaks,
    frequency_scaling_fit,
    periodogram,
)
from lmglab.spinspace import (
    build_sector,
    collective_operators,
)
from lmglab.ssb import (
    degenerate_pt_gap,
    gamma0_gap_scan,
    localize_ground_state,
    wkb_rate,
)

from coherent import basis, expectation, unit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _localized_mx_series(N, h, g, periods=20.0, samples=4096):
    params = LmgParams(N=N, h=h)
    localized = localize_ground_state(params, g=g)
    eig = eigensystem(build_hamiltonian(params))
    ops = collective_operators(N)
    tgrid = default_time_grid(N, periods=periods, samples=samples)
    series = observable_series(eig, localized.state, ops.sx, tgrid)
    mx = TimeSeries(t=tgrid, values=series.values * (2.0 / N))
    return localized, eig, mx


def _peaks(N, h, g, threshold=0.01):
    _, _, mx = _localized_mx_series(N, h, g)
    return find_peaks(periodogram(mx, N), threshold)


def test_c01_spectrum_of_localized_state():
    start = time.perf_counter()
    peaks = _peaks(100, 0.716, 1e-4)
    elapsed = time.perf_counter() - start
    two_tallest = sorted(p.freq_over_nu for p in peaks[:2])
    third = peaks[2]
    ok = (
        abs(two_tallest[0] - 0.6) <= 0.05
        and abs(two_tallest[1] - 1.4) <= 0.05
        and abs(third.freq_over_nu - 2.6) <= 0.05
        and third.height < 0.20 * peaks[0].height
        and elapsed < 5.0
    )
    _report(
        "c01 two-frequency spectrum",
        ok,
        f"peaks at {two_tallest[0]:.3f}, {two_tallest[1]:.3f}, "
        f"{third.freq_over_nu:.3f} nu; third/top = "
        f"{third.height / peaks[0].height:.3f}; {elapsed:.2f}s",
    )


def test_c02_waveform_matches_truncated_analytic_sum():
    N, h = 100, 0.716
    localized, eig, mx = _localized_mx_series(N, h, 1e-4)
    modes = projected_init(localized.state, N, h)
    approx_x, _ = analytic_sum(modes, 3, mx.t)
    approx_mx = approx_x.values.real * (2.0 / N)
    full_scale = np.max(np.abs(mx.values.real))
    deviation = np.max(np.abs(mx.values.real - approx_mx))
    ok = deviation < 0.02 * full_scale
    _report(
        "c02 analytic waveform",
        ok,
        f"max deviation {deviation / full_scale * 100:.3f}% of full scale",
    )


def test_c03_round_and_crescent_modes():
    results = {}
    for h, expected_freq, expected_label in (
        (0.720, 1.0, "round"),
        (0.710, 2.0, "crescent"),
    ):
        peaks = _peaks(100, h, 1e-4)
        top = peaks[0]
        others_small = all(p.height < 0.20 * top.height for p in peaks[1:])
        results[h] = (
            abs(top.freq_over_nu - expected_freq) <= 0.05
            and others_small
            and classify_mode(100, h).label == expected_label
        )
    ok = all(results.values())
    _report(
        "c03 mode table",
        ok,
        f"h=0.720 -> {classify_mode(100, 0.720).label}, "
        f"h=0.710 -> {classify_mode(100, 0.710).label}, "
        f"single dominant peaks at 1.0 and 2.0 nu: {results}",
    )


def test_c04_correlation_function_two_routes():
    # the closed form against the spectral sum over every level, with the
    # weights |<m|Sx|M0>|^2 from the matvec
    worst_rel = 0.0
    worst_freq = 0.0
    for N in (50, 100, 500):
        two_m = build_sector(N)
        tgrid = np.arange(256) * (2.0 * math.pi * N / 256)
        result = correlation_fN(N, 0.716, tgrid)
        sx = collective_operators(N).sx
        nu = 1.0 / N
        for member in result.members:
            two_m0 = round(2 * member.m0)
            ket = np.zeros(N + 1, dtype=np.complex128)
            ket[(N - two_m0) // 2] = 1.0
            gaps = isotropic_gap(N, two_m, two_m0, 0.716)
            every = (4.0 / N**2) * (
                np.abs(sx.apply(ket)) ** 2 @ np.exp(-1j * gaps[:, None] * tgrid[None, :])
            )
            scale = float(np.max(np.abs(every)))
            diff = float(np.max(np.abs(every - member.closed_form.values)))
            worst_rel = max(worst_rel, diff / scale)
            omega0 = 0.716 - 2.0 * member.m0 / N
            expected = sorted((abs(nu - omega0), abs(nu + omega0)))
            measured = sorted(abs(f) for f in member.frequencies)
            for m_val, e_val in zip(measured, expected):
                if e_val > 0:
                    worst_freq = max(worst_freq, abs(m_val - e_val) / e_val)
    ok = worst_rel <= 1e-12 and worst_freq <= 1e-12
    _report(
        "c04 correlation closed form",
        ok,
        f"every-level-vs-closed rel {worst_rel:.2e}, line freq rel {worst_freq:.2e}",
    )


def test_c05_sector_versus_full_space():
    start = time.perf_counter()
    worst = 0.0
    for N in (4, 6, 8, 10):
        for h in (0.3, 0.5, 0.7):
            report = sector_vs_full_checks(N, h, 1.0 / N**2)
            worst = max(worst, report.worst())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(
        "c05 full-space oracle",
        ok,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_c06_trial_state_claims():
    h = 0.5
    gap_ok = True
    for N in (10, 100, 1000):
        trial = trial_localized_state(N, h)
        if abs(trial.delta_e - 2.0 / N**2) > 1e-12 * (2.0 / N**2):
            gap_ok = False
    sizes = [64, 128, 256, 512, 1024]
    values = []
    for N in sizes:
        trial = trial_localized_state(N, h)
        sx = collective_operators(N).sx
        values.append(expectation(sx, trial.state).real)
    exponent = float(np.polyfit(np.log(sizes), np.log(values), 1)[0])
    fit_ok = abs(exponent - 0.5) <= 0.05
    lifetimes_ok = all(
        lifetime_bound(2.0 / N**2, N) == pytest.approx(N**3 / 4.0, rel=1e-12, abs=0)
        for N in (10, 100, 1000)
    )
    ok = gap_ok and fit_ok and lifetimes_ok
    _report(
        "c06 trial state",
        ok,
        f"dE = 2/N^2 to 1e-12: {gap_ok}; <Sx> exponent {exponent:.4f}; "
        f"lifetime N^3/4: {lifetimes_ok}",
    )


def test_c07_frequency_scaling():
    samples = []
    for N in (50, 100, 200, 400):
        peaks = _peaks(N, 0.72, 1.0 / N**2)
        samples.append((N, peaks[0].freq_over_nu / N))
    fit = frequency_scaling_fit(samples)
    ok = abs(fit.exponent - 1.0) <= 0.02
    _report("c07 1/N frequency scaling", ok, f"fitted exponent {fit.exponent:.6f}")


def test_c08_kick_strength_energies_and_mode_count():
    N, h = 100, 0.714
    weak = localize_ground_state(LmgParams(N=N, h=h), g=1e-4)
    strong = localize_ground_state(LmgParams(N=N, h=h), g=1e-3)
    energy_ok = (
        abs(weak.delta_e - 6.60e-4) <= 0.05 * 6.60e-4
        and abs(strong.delta_e - 5.10e-3) <= 0.05 * 5.10e-3
    )
    n_weak = len(_peaks(N, h, 1e-4))
    n_strong = len(_peaks(N, h, 1e-3))
    ok = energy_ok and n_strong > n_weak
    _report(
        "c08 kick strength",
        ok,
        f"dE {weak.delta_e:.3e} / {strong.delta_e:.3e}; "
        f"peaks {n_weak} -> {n_strong}",
    )


def test_c09_tunneling_gap():
    # gamma = 0 splitting decay rate against the instanton rate c(h); the
    # overlap rate -ln h = 0.693 sits 54% away, so 5% tells the two apart
    h = 0.5
    scan = gamma0_gap_scan(range(20, 61, 4), h)
    ns = np.array([n for n, _ in scan], dtype=float)
    splittings = np.array([s for _, s in scan])
    rate = -float(np.polyfit(ns, np.log(splittings), 1)[0])
    target = wkb_rate(h)
    rate_ok = abs(rate - target) <= 0.05 * target

    # degenerate perturbation theory against full diagonalization
    N, h_pt = 100, 0.71
    params = LmgParams(N=N, h=h_pt)
    residuals = {}
    for g in (1e-6, 1e-5, 1e-4):
        pt = degenerate_pt_gap(N, h_pt, g)
        w = eigensystem(build_hamiltonian(params, g=g)).energies
        residuals[g] = abs((w[1] - w[0]) - pt.splitting)
    c_bound = residuals[1e-4] / 1e-4**2
    pt_ok = all(res <= c_bound * g * g * (1.0 + 1e-9) for g, res in residuals.items())

    ok = rate_ok and pt_ok
    _report(
        "c09 tunneling gap",
        ok,
        f"gamma0 fitted rate {rate:.4f} vs instanton rate {target:.4f} "
        f"(within 5%: {rate_ok}); PT residual quadratic bound: {pt_ok}",
    )


def test_c10_quasicrystal_construction():
    from lmglab.spectra import quasicrystal_h

    N = 100
    fields = quasicrystal_h(N, GOLDEN)
    worst = 0.0
    for h in fields:
        peaks = _peaks(N, float(h), 1e-4)
        low, high = sorted(p.freq_over_nu for p in peaks[:2])
        worst = max(worst, abs(low / high - GOLDEN))
    ratio_ok = worst <= 1e-3

    word = cut_and_project_sequence(GOLDEN, 100)
    fib = "D"
    while len(fib) < 100:
        fib = "".join("DU" if ch == "D" else "D" for ch in fib)
    word_ok = word == fib[:100]

    ok = ratio_ok and word_ok
    _report(
        "c10 quasicrystal",
        ok,
        f"worst ratio error {worst:.2e} over {fields.size} fields; "
        f"Fibonacci word match: {word_ok}",
    )


def test_c11_algebra_suite():
    failures = []
    for N in (1, 2, 3, 50, 101, 500):
        ops = collective_operators(N)
        s = N / 2.0
        rng = np.random.default_rng(N)
        psi = unit(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))

        # Casimir
        total = (
            ops.sx.apply(ops.sx.apply(psi))
            + ops.sy.apply(ops.sy.apply(psi))
            + ops.sz.apply(ops.sz.apply(psi))
        )
        if np.max(np.abs(total - s * (s + 1) * psi)) > 1e-10 * s * s:
            failures.append(f"casimir N={N}")

        # commutators (dense check)
        sx, sy, sz = (o.to_dense() for o in (ops.sx, ops.sy, ops.sz))
        tol = 1e-12 * N * N
        if (
            np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) > tol
            or np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) > tol
            or np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) > tol
        ):
            failures.append(f"commutators N={N}")

        # Hermiticity as stored
        for op in (ops.sx, ops.sy, ops.sz):
            dense = op.to_dense()
            if np.max(np.abs(dense - dense.conj().T)) != 0.0:
                failures.append(f"hermiticity N={N}")
                break

        # parity commutation for the unperturbed Hamiltonian
        h_field = 0.45
        for gamma in (0.0, 1.0):
            ham = build_hamiltonian(LmgParams(N=N, h=h_field, gamma=gamma)).to_dense()
            parity = np.diag((-1.0) ** np.arange(N + 1))
            if np.max(np.abs(ham @ parity - parity @ ham)) > 1e-12 * max(
                1.0, np.max(np.abs(ham))
            ):
                failures.append(f"parity N={N} gamma={gamma}")

        # unitarity and conservation along a kicked trajectory
        params = LmgParams(N=N, h=h_field)
        ham0 = build_hamiltonian(params)
        eig = eigensystem(ham0)
        kicked = (
            localize_ground_state(params, g=1.0 / N**2).state
            if N >= 3
            else basis(N + 1, 0)
        )
        e_ref = expectation(ham0, kicked).real
        sz_ref = expectation(ops.sz, kicked).real
        for t in (0.0, 1.0, 57.0, 2000.0):
            evolved = propagate(eig, kicked, t)
            if abs(np.linalg.norm(evolved) - 1.0) > 1e-12:
                failures.append(f"unitarity N={N} t={t}")
            if abs(expectation(ham0, evolved).real - e_ref) > 1e-10 * max(
                1.0, abs(e_ref)
            ):
                failures.append(f"energy drift N={N} t={t}")
            if abs(expectation(ops.sz, evolved).real - sz_ref) > 1e-10 * N:
                failures.append(f"sz drift N={N} t={t}")

    ok = not failures
    _report(
        "c11 algebra suite",
        ok,
        "all invariants hold" if ok else f"failures: {failures}",
    )
