"""Output checks against references the benchmark computes itself.

Nothing here imports ``lmglab``.  Operators are built as dense matrices from
the closed-form Dicke-basis matrix elements and diagonalized with
``numpy.linalg.eigh``, so a check never shares a code path with the solver it
checks.  ``check_op`` returns a list of failure messages; an empty list means
the op passed.  All tolerances are absolute.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# m_x(t), m_y(t) at CHECK_ROWS evenly spaced samples of the series.  Phases
# reach E*t ~ 1e7 at N = 500 over 40*pi*N, so rounding in the eigenvalues of
# either route (~eps*||H||) alone moves m_x by ~1e-9 at the end of the grid.
SERIES_TOL = 1e-7
CHECK_ROWS = 48
# correlation columns against each other and against the reference sum
CORRELATION_TOL = 1e-9
# gamma = 0 per-spin splittings; values are O(1) or below the noise floor
GAP_TOL = 1e-11
ORACLE_TOL = 1e-9
# closed-form field, frequency and line-ratio identities
IDENTITY_TOL = 1e-9
DEGENERACY_RTOL = 1e-12
# worst-case Hann scalloping loss is 1.42 dB, a height ratio of 0.85
HANN_SCALLOP = 0.8

SERIES_HEADER = "t,mx_exact,my_exact,mx_analytic,my_analytic"


def two_m(N: int) -> np.ndarray:
    """2M for each basis index, descending from N to -N."""
    return np.arange(N, -N - 1, -2, dtype=np.int64)


def spin_matrices(N: int):
    """Dense Sx, Sy, Sz of the S = N/2 sector, descending-M basis."""
    tm = two_m(N)
    # <M+1|S+|M> = sqrt(S(S+1) - M(M+1)) on the superdiagonal
    lower = tm[1:]
    plus = np.diag(np.sqrt((N * (N + 2) - lower * (lower + 2)) / 4.0), 1)
    plus = plus.astype(np.complex128)
    minus = plus.conj().T
    sx = (plus + minus) / 2.0
    sy = (plus - minus) / 2.0j
    sz = np.diag(tm / 2.0).astype(np.complex128)
    return sx, sy, sz


def hamiltonian(N: int, h: float, gamma: float, g: float = 0.0, phi_n: float = 0.0):
    """H = -(1/N)(Sx^2 + gamma Sy^2) - h Sz - g (cos phi Sx + sin phi Sy)."""
    sx, sy, sz = spin_matrices(N)
    H = -(sx @ sx + gamma * (sy @ sy)) / N - h * sz
    if g != 0.0:
        H = H - g * (math.cos(phi_n) * sx + math.sin(phi_n) * sy)
    return (H + H.conj().T) / 2.0


def ground_levels(N: int, h: float) -> list[float]:
    """Magnetizations minimizing E(M) = -(S(S+1) - M^2)/N - h M, ascending."""
    tm = two_m(N)
    energy = -(N * (N + 2) - tm * tm) / (4.0 * N) - h * (tm / 2.0)
    e_min = energy.min()
    ties = np.nonzero(energy - e_min <= DEGENERACY_RTOL * max(1.0, abs(e_min)))[0]
    return sorted(float(tm[i]) / 2.0 for i in ties)


def representative(levels: list[float]) -> float:
    """The tie-broken ground level: lower |M|, then lower M."""
    return min(levels, key=lambda m: (abs(m), m))


def _read_csv(path: str, header: str | None = None) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header is not None and head != header:
        raise ValueError(f"{os.path.basename(path)}: header {head!r}")
    return head.split(","), data


def _time_grid(N: int, samples: int) -> np.ndarray:
    return np.arange(samples) * (40.0 * math.pi * N / samples)


def _initial_state(p: dict) -> np.ndarray:
    N, h = p["N"], p["h"]
    if p.get("trial"):
        m0 = representative(ground_levels(N, h))
        idx0 = int(round(N / 2.0 - m0))
        psi = np.zeros(N + 1, dtype=np.complex128)
        psi[idx0] = math.sqrt(1.0 - 2.0 / N)
        psi[idx0 - 1] = psi[idx0 + 1] = 1.0 / math.sqrt(N)
        return psi
    _, v = np.linalg.eigh(hamiltonian(N, h, p["gamma"], p["g"], p["phi_n"]))
    return v[:, 0]


def check_series(p: dict, out: str, psi0: np.ndarray) -> list[str]:
    """mx_exact and my_exact against eigh-based evolution at sampled rows."""
    N, samples = p["N"], p["samples"]
    path = os.path.join(out, "series.csv")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != SERIES_HEADER:
        return [f"series.csv header {lines[0]!r}"]
    if len(lines) != samples + 1:
        return [f"series.csv has {len(lines) - 1} rows, expected {samples}"]
    rows = np.unique(np.linspace(0, samples - 1, CHECK_ROWS).round().astype(int))
    table = np.array([[float(x) for x in lines[r + 1].split(",")] for r in rows])
    t = _time_grid(N, samples)[rows]
    errors = []
    t_dev = float(np.max(np.abs(table[:, 0] - t)))
    if t_dev > 1e-12 * t[-1]:
        errors.append(f"time grid off by {t_dev:.3e}")
    sx, sy, _ = spin_matrices(N)
    energies, vectors = np.linalg.eigh(hamiltonian(N, p["h"], p["gamma"]))
    coeffs = vectors.conj().T @ psi0
    psi_t = vectors @ (coeffs[:, None] * np.exp(-1j * np.outer(energies - energies[0], t)))
    for col, op, name in ((1, sx, "mx_exact"), (2, sy, "my_exact")):
        ref = (2.0 / N) * np.einsum("mt,mt->t", psi_t.conj(), op @ psi_t).real
        dev = float(np.max(np.abs(table[:, col] - ref)))
        if not dev <= SERIES_TOL:
            errors.append(f"{name} deviates by {dev:.3e} (tolerance {SERIES_TOL:g})")
    return errors


def check_peak(p: dict, out: str, psi0: np.ndarray) -> list[str]:
    """gamma = 1: the tallest peak sits within one bin of a strongest line.

    Free H is diagonal in M, so m_x(t) is a sum of lines at
    |E(M) - E(M+1)| with amplitudes c_M^* c_{M+1} <M|Sx|M+1>, summed
    coherently per frequency.  For a kick along x the strongest line is one
    of |nu -+ omega_0|; a kick near the y axis can move it to 3 nu.  Lines
    within HANN_SCALLOP of the strongest count as strongest, because an
    off-bin tone loses up to 15% of its height under the Hann window.
    """
    N, h = p["N"], p["h"]
    with open(os.path.join(out, "spectrum_peaks.json"), "r", encoding="utf-8") as fh:
        peaks = json.load(fh)["peaks"]
    if not peaks:
        return ["no spectral peak found"]
    tallest = peaks[0]["freq_over_nu"]
    bin_over_nu = 2.0 * math.pi * N / (40.0 * math.pi * N)
    tm = two_m(N)
    energy = -(N * (N + 2) - tm * tm) / (4.0 * N) - h * (tm / 2.0)
    sx, _, _ = spin_matrices(N)
    amps = np.conj(psi0[:-1]) * psi0[1:] * np.diag(sx, 1)
    omega = (energy[:-1] - energy[1:]) * N
    lines: dict[float, complex] = {}
    for w, a in zip(omega, amps):
        if abs(w) > bin_over_nu:  # the zero-frequency bin is never a peak
            key = round(abs(w), 6)
            lines[key] = lines.get(key, 0.0) + (a if w > 0 else np.conj(a))
    strongest = max(abs(a) for a in lines.values())
    candidates = sorted(f for f, a in lines.items() if abs(a) >= HANN_SCALLOP * strongest)
    if not min(abs(tallest - f) for f in candidates) <= bin_over_nu * (1.0 + 1e-9):
        return [f"tallest peak at {tallest:.6g} nu, strongest lines at {candidates}"]
    return []


def check_correlation(p: dict, out: str) -> list[str]:
    """Direct, closed-form and full-space columns of every ground member
    against (4/N^2) sum_m |<m|Sx|M0>|^2 exp(-i (E_m - E_M0) t)."""
    N, h, samples = p["N"], p["h"], p.get("samples", 4096)
    t = _time_grid(N, samples)
    sx, _, _ = spin_matrices(N)
    tm = two_m(N)
    errors = []
    for m0 in ground_levels(N, h):
        path = os.path.join(out, f"correlation_m{m0:.10g}.csv")
        if not os.path.exists(path):
            errors.append(f"missing {os.path.basename(path)}")
            continue
        cols, data = _read_csv(path)
        if data.shape[0] != samples:
            errors.append(f"{os.path.basename(path)} has {data.shape[0]} rows")
            continue
        idx0 = int(round(N / 2.0 - m0))
        weights = np.abs(sx[:, idx0]) ** 2
        # E(M) - E(M0) = (M - M0)((M + M0)/N - h), free of O(N) cancellation
        gaps = ((tm - 2 * m0) / 2.0) * ((tm + 2 * m0) / (2.0 * N) - h)
        ref = (4.0 / N**2) * (weights @ np.exp(-1j * np.outer(gaps, t)))
        t_dev = float(np.max(np.abs(data[:, 0] - t)))
        if t_dev > 1e-12 * t[-1]:
            errors.append(f"time grid off by {t_dev:.3e}")
        for route in ("direct", "closed", "oracle"):
            if f"fn_{route}_re" not in cols:
                continue
            re = data[:, cols.index(f"fn_{route}_re")]
            im = data[:, cols.index(f"fn_{route}_im")]
            dev = float(np.max(np.abs(re + 1j * im - ref)))
            if not dev <= CORRELATION_TOL:
                errors.append(f"M0={m0:g} fn_{route} deviates by {dev:.3e}")
        if N <= 10 and "fn_oracle_re" not in cols:
            errors.append("full-space column missing at N <= 10")
    return errors


def check_oracle(out: str) -> list[str]:
    with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
        worst = json.load(fh)["worst_deviation"]
    if not worst <= ORACLE_TOL:
        return [f"oracle worst deviation {worst:.3e}"]
    return []


def check_gap(p: dict, out: str) -> list[str]:
    """gamma = 0 splittings against eigvalsh of H_N / N for every N."""
    _, data = _read_csv(os.path.join(out, "gap_gamma0.csv"),
                        "n,splitting,tunneling_gap_estimate")
    if [int(n) for n in data[:, 0]] != list(p["Ns"]):
        return [f"scan covers N = {data[:, 0].tolist()}"]
    errors = []
    for N, got in zip(p["Ns"], data[:, 1]):
        w = np.linalg.eigvalsh(hamiltonian(N, p["h"], 0.0) / N)
        dev = abs(got - (w[1] - w[0]))
        if not dev <= GAP_TOL:
            errors.append(f"N={N} splitting deviates by {dev:.3e}")
    return errors


def check_quasicrystal(p: dict, out: str) -> list[str]:
    """Every listed field gives line ratio (nu - w0)/(nu + w0) = kappa, and
    the cut-and-project word has U-density kappa/(1 + kappa)."""
    N, kappa = p["N"], p["kappa"]
    _, data = _read_csv(os.path.join(out, "quasicrystal_h.csv"), "index,h")
    expected = (N - 2) // 2 + 1 if N % 2 == 0 else (N - 3) // 2 + 1
    errors = []
    if data.shape[0] != expected:
        errors.append(f"{data.shape[0]} fields, expected {expected}")
    nu = 1.0 / N
    for h in data[:, 1]:
        w0 = h - 2.0 * representative(ground_levels(N, h)) / N
        if not abs((nu - w0) / (nu + w0) - kappa) <= IDENTITY_TOL:
            errors.append(f"field h={h!r} gives ratio {(nu - w0) / (nu + w0)!r}")
            break
    with open(os.path.join(out, "cut_project.txt"), "r", encoding="utf-8") as fh:
        word = fh.read().strip()
    if len(word) != 1000 or set(word) - {"U", "D"}:
        errors.append("cut_project.txt is not a 1000-letter U/D word")
    elif abs(word.count("U") / 1000.0 - kappa / (1.0 + kappa)) > 2e-3:
        errors.append(f"U density {word.count('U') / 1000.0}")
    _, wave = _read_csv(os.path.join(out, "waveform.csv"), "t,mx_mode,my_mode")
    if wave.shape[0] != p["samples"] or not np.all(np.isfinite(wave)):
        errors.append("waveform.csv malformed")
    return errors


def check_modes(p: dict, out: str) -> list[str]:
    """M0, omega_0 and the degeneracy flag against the closed-form argmin."""
    N = p["N"]
    _, data = _read_csv(os.path.join(out, "modes.csv"), "h,nh,m0,omega0,degenerate")
    errors = []
    for h, row in zip(p["hs"], data):
        levels = ground_levels(N, h)
        m0 = representative(levels)
        degenerate = len(levels) > 1
        omega0 = 1.0 / N if degenerate else h - 2.0 * m0 / N
        if (row[2] != m0 or bool(row[4]) != degenerate
                or not abs(row[3] - omega0) <= IDENTITY_TOL):
            errors.append(f"h={h!r}: row {row.tolist()}, expected M0={m0}")
        wave = os.path.join(out, f"mode_h{h:.10g}.csv")
        if not os.path.exists(wave):
            errors.append(f"missing {os.path.basename(wave)}")
    return errors


def check_op(op, out: str, rc: int) -> list[str]:
    """All checks for one op; ``rc`` is the exit code ``cli.main`` returned."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
            json.load(fh)
        p = op.params
        if op.command in ("evolve", "spectrum"):
            psi0 = _initial_state(p)
            errors = check_series(p, out, psi0)
            if op.command == "spectrum" and p["gamma"] == 1.0:
                errors += check_peak(p, out, psi0)
            return errors
        if op.command == "correlation":
            return check_correlation(p, out)
        if op.command == "oracle":
            return check_oracle(out)
        if op.command == "gap":
            return check_gap(p, out)
        if op.command == "quasicrystal":
            return check_quasicrystal(p, out)
        if op.command == "modes":
            return check_modes(p, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    return [f"no check for subcommand {op.command!r}"]
