"""Command-line front end: run experiments, emit CSV data files.

Subcommands: evolve, spectrum, modes, correlation, gap, quasicrystal,
oracle.  A run's settings are its flags alone.  Each run writes its tables
into ``--out`` as CSV plus a ``summary.json`` that names every file it
wrote relative to ``--out``, which is made when the first file is opened.
Outputs are deterministic (17-significant-digit floats, LF endings, sorted
JSON keys), so identical flags give byte-identical files in any ``--out``
at a fixed BLAS thread count; between 1 and 2 OpenBLAS threads, 10 of the
322 files of the seed-4242 benchmark ops move in their last bits, within
1e-12 of each column's scale.  Exit codes: 0 success, 1 usage error,
2 numeric failure, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .evolve import (
    ProjectedModes,
    _series,
    analytic_sum,
    correlation_fN,
    default_time_grid,
    eigensystem,
    observable_series,
    projected_init,
    projected_solution,
)
from .model import (
    LmgParams,
    build_hamiltonian,
    ground_M,
    trial_localized_state,
)
from .oracle import (
    MAX_CORRELATION_N,
    OracleMismatchError,
    full_space_correlation,
    sector_vs_full_checks,
)
from .spectra import (
    classify_mode,
    cut_and_project_sequence,
    find_peaks,
    intrinsic_frequencies,
    line_spectrum,
    periodogram,
    quasicrystal_h,
)
from .spinspace import _Raising, collective_operators
from .ssb import (
    MAX_GAP_SCAN_N,
    default_kick,
    degenerate_pt_gap,
    gamma0_gap_scan,
    localize_ground_state,
    newman_alpha,
    wkb_rate,
)
from .tables import csv_pieces

SERIES_HEADER = "t,mx_exact,my_exact,mx_analytic,my_analytic"
SPECTRUM_HEADER = "freq_over_nu,magnitude"
CUT_PROJECT_LENGTH = 1000
# gamma = 0 splittings at or under this are double-precision noise: the fit
# skips them and summary.json lists their N as unresolved
SPLITTING_FLOOR = 1e-13
# the gamma = 1 modes k <= CUTOFF_K fill series.csv's analytic columns
CUTOFF_K = 3
PEAK_FRACTION = 0.01  # of the periodogram's maximum, for spectrum's peaks
ORACLE_TOLERANCE = 1e-9  # oracle exits 3 above it
PT_KICKS = (1e-6, 1e-5, 1e-4)  # gap's degenerate-PT table
GAP_SCAN_N = range(20, 61, 4)  # gap's scan when --n gives one value
PHASE_BOUND = 1e307  # the largest N (1 + h + |g|) max(t_max, 1): energies, E t stay finite


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part != ""]


# every flag, declared once as argparse keywords under its long name, with
# its default; None is worked out at run time: --g is 1/N^2 and --tmax 40 pi N
_FLAGS = {
    "n": {"type": _parse_int_list, "default": [100]},
    "h": {"type": _parse_float_list, "default": [0.716]},
    "gamma": {"type": float, "default": 1.0},
    "g": {"type": float},
    "phi-n": {"type": float, "default": 0.0},
    "tmax": {"type": float},
    "samples": {"type": int, "default": 4096},
    "kappa": {"type": float, "default": 0.6180339887498949},
    "trial": {"action": "store_true", "default": False},
    "out": {"default": "."},
}
_SERIES_FLAGS = ("n", "h", "gamma", "g", "phi-n", "tmax", "samples", "trial")
# the flags each subcommand reads; every subcommand also takes --out, and
# argparse rejects any other flag
_COMMAND_FLAGS = {
    "evolve": _SERIES_FLAGS,
    "spectrum": _SERIES_FLAGS,
    "modes": ("n", "h", "tmax", "samples"),
    "correlation": ("n", "h", "tmax", "samples"),
    # gap applies --gamma nowhere (its PT part uses gamma = 1, its scan
    # gamma = 0) and records it as null
    "gap": ("n", "h", "gamma"),
    "quasicrystal": ("n", "h", "g", "phi-n", "kappa", "tmax", "samples"),
    "oracle": ("n", "h"),
}
# the defaults of the subcommands that differ; quasicrystal's --h None is
# the middle field of its h(kappa) table
_COMMAND_DEFAULTS = {
    "modes": {"h": [0.710, 0.716, 0.720]},
    "oracle": {"n": [6], "h": [0.5]},
    "quasicrystal": {"h": None},
}


def build_parser(subparsers: dict | None = None) -> argparse.ArgumentParser:
    """The ``lmglab`` parser; ``subparsers`` receives each subcommand's own."""
    subparsers = {} if subparsers is None else subparsers
    parser = argparse.ArgumentParser(
        prog="lmglab",
        description="Finite-size LMG symmetry-breaking dynamics laboratory",
    )
    # every run holds every flag, also those its subcommand does not read,
    # as validate_config and the summary read them all
    parser.set_defaults(**{
        key.replace("-", "_"): spec.get("default") for key, spec in _FLAGS.items()
    })
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("evolve", "evolve a localized state and write m_x, m_y time series"),
        ("spectrum", "time series plus periodogram, exact lines, and peaks"),
        ("modes", "mode classification table over an h grid"),
        ("correlation", "ground-state correlation function f_N(t)"),
        ("gap", "perturbative splittings and the gamma=0 gap scan"),
        ("quasicrystal", "h(kappa) table, two-tone waveform, symbol sequence"),
        ("oracle", "sector vs full 2^N comparisons (exit 3 on mismatch)"),
    ):
        # no flag is read from a prefix: gap's unread --g is not its --gamma
        command = subparsers[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        for key in (*_COMMAND_FLAGS[name], "out"):
            command.add_argument(f"--{key}", **_FLAGS[key])
        command.set_defaults(**_COMMAND_DEFAULTS.get(name, {}))
    return parser


def validate_config(cfg: argparse.Namespace) -> None:
    for key in ("n", "h"):
        if getattr(cfg, key) == []:
            raise ValueError(f"--{key} takes at least one value")
    fields = cfg.h or []  # quasicrystal's None picks its own field
    if any(n < 1 for n in cfg.n):
        raise ValueError("--n must be >= 1")
    if any(h < 0.0 for h in fields):
        raise ValueError("--h must be >= 0")
    if not 0.0 <= cfg.gamma <= 1.0:
        raise ValueError("--gamma must lie in [0, 1]")
    if not all(math.isfinite(x) for x in [*fields, cfg.g or 0.0, cfg.phi_n]):
        raise ValueError("--h, --g and --phi-n must be finite")
    # these compute gamma = 1 quantities of the broken phase only
    if cfg.command in ("oracle", "correlation", "modes") and any(h >= 1.0 for h in fields):
        raise ValueError(f"{cfg.command} needs --h < 1")
    if cfg.trial and (cfg.g is not None or cfg.phi_n != 0.0):
        raise ValueError("--trial takes no --g or --phi-n")
    if cfg.trial and (min(cfg.n) < 3 or max(fields, default=0.0) > 1.0 - 1.0 / min(cfg.n)):
        raise ValueError("--trial needs --n >= 3 and --h <= 1 - 1/N")
    if not 0.0 < cfg.kappa < 1.0:
        raise ValueError("--kappa must lie strictly between 0 and 1")
    if cfg.samples < 16:
        raise ValueError("--samples must be >= 16")
    if cfg.tmax is not None and not 0.0 < cfg.tmax < math.inf:
        raise ValueError("--tmax must be positive and finite")
    # the step tmax/samples must be a normal double (5e-324/16 is 0), and
    # the top periodogram bin 2 pi N (samples // 2) / tmax must stay finite
    if cfg.tmax is not None and (cfg.tmax / cfg.samples < sys.float_info.min or math.isinf(
            2.0 * math.pi * max(cfg.n) * (cfg.samples // 2) / cfg.tmax)):
        raise ValueError("--tmax is too small for a time grid of --samples steps")
    if cfg.command == "modes" and len({_mode_stem(h) for h in fields}) < len(fields):
        raise ValueError(f"modes names each waveform file by --h to 10 digits, "
                         f"and the values {cfg.h} repeat a name")
    if cfg.command == "gap" and len(cfg.n) > 1 and max(cfg.n) > MAX_GAP_SCAN_N:
        raise ValueError(f"gap scan supports N <= {MAX_GAP_SCAN_N}")
    # t_max is 40 pi N by default; gap evolves nothing (t_max 1) but may scan N to 60
    n_max = max(*cfg.n, *GAP_SCAN_N) if cfg.command == "gap" else max(cfg.n)
    t_max = 1.0 if cfg.command == "gap" else cfg.tmax or 40.0 * math.pi * n_max
    size = n_max * (1.0 + max(fields, default=1.0) + abs(cfg.g or 0.0)) * max(t_max, 1.0)
    if cfg.command not in ("modes", "correlation", "oracle") and not size <= PHASE_BOUND:
        raise ValueError(f"--h, --g and --tmax must keep N (1 + h + |g|) max(tmax, 1) "
                         f"<= {PHASE_BOUND:g}, past which the energies or phases E t overflow")


def _mode_stem(h: float) -> str:
    return f"mode_h{h:.10g}"


def _one(values: list, key: str):
    """The value of a list flag of a subcommand that runs one point."""
    if len(values) != 1:
        raise ValueError(f"this subcommand takes exactly one --{key} value")
    return values[0]


def _point(cfg: argparse.Namespace) -> tuple[int, float | None, float]:
    """The (N, h, g) of a one-point run: h is None without --h (quasicrystal
    picks its own), g is --g or else (oracle reads none) 1/N^2."""
    N, h = _one(cfg.n, "n"), None if cfg.h is None else _one(cfg.h, "h")
    return N, h, default_kick(N) if cfg.g is None else cfg.g


def _create(cfg: argparse.Namespace, name: str):
    """Open ``name`` in ``--out`` for binary writing, making ``--out`` first:
    a run that fails before its first file leaves no directory."""
    os.makedirs(cfg.out, exist_ok=True)
    return open(os.path.join(cfg.out, name), "wb")


def _write_json(cfg: argparse.Namespace, name: str, payload) -> None:
    with _create(cfg, name) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n")


def _table(cfg: argparse.Namespace, stem: str, header: str, rows) -> str:
    """Write one table to ``--out`` as ``stem.csv`` and return that name."""
    name = f"{stem}.csv"
    table = np.asarray(rows, dtype=np.float64).reshape(len(rows), header.count(",") + 1)
    with _create(cfg, name) as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.writelines(csv_pieces(table))
    return name


def _waveform(cfg: argparse.Namespace, stem: str, label: str,
              modes: ProjectedModes, tgrid: np.ndarray, N: int) -> str:
    """Write the summed modes' m_x, m_y = 2 <S_x, S_y>/N over ``tgrid`` as
    the table ``stem`` with columns t,mx_<label>,my_<label>."""
    wx, wy = projected_solution(modes, tgrid)
    return _table(cfg, stem, f"t,mx_{label},my_{label}",
                  np.column_stack([tgrid, wx.values.real * 2.0 / N, wy.values.real * 2.0 / N]))


def _time_grid(cfg: argparse.Namespace, N: int) -> np.ndarray:
    if cfg.tmax is None:
        return default_time_grid(N, samples=cfg.samples)
    return np.arange(cfg.samples) * (cfg.tmax / cfg.samples)


def _series_run(cfg: argparse.Namespace, N: int, h: float, g: float):
    """Prepare the localized state, write its series table and start the
    summary; also return what ``spectrum`` reads of the run."""
    params = LmgParams(N=N, h=h, gamma=cfg.gamma)
    if cfg.trial:
        prepared, prep = trial_localized_state(N, h), "trial"
    else:
        prepared = localize_ground_state(params, g=g, phi_n=cfg.phi_n)
        prep = "kicked"
    state = prepared.state
    tgrid = _time_grid(cfg, N)
    eig0 = eigensystem(build_hamiltonian(params))
    # <S+> = <Sx> + i <Sy>: m_x and m_y from one line sum
    plus = observable_series(eig0, state, _Raising(N), tgrid)
    modes = projected_init(state, N, h)
    ax, ay = analytic_sum(modes, min(CUTOFF_K, N), tgrid)
    scale = 2.0 / N
    mx = plus.values.real * scale
    rows = np.column_stack(
        [
            tgrid,
            mx,
            plus.values.imag * scale,
            ax.values.real * scale,
            ay.values.real * scale,
        ]
    )
    summary = _base_summary(cfg, N, h, g)
    summary["delta_e"] = prepared.delta_e
    summary["preparation"] = prep
    if cfg.gamma < 1.0:  # gamma = 1 closed forms, which gap keeps for its PT table
        summary.update(m0=None, nu=None, omega0=None, mode=None)
    summary["files"] = [_table(cfg, "series", SERIES_HEADER, rows)]
    return summary, _series(plus.t, mx), eig0, state


def _base_summary(cfg: argparse.Namespace, N: int, h: float, g: float) -> dict:
    mode = classify_mode(N, h) if h < 1.0 else None
    ground = ground_M(N, h)
    return {
        "n": N,
        "h": h,
        "gamma": cfg.gamma,
        "g": g,
        "m0": list(ground.levels) if ground.degenerate else ground.m0,
        "nu": 1.0 / N,
        "omega0": None if mode is None else mode.omega0,
        "mode": "symmetric" if mode is None else mode.label,
        "delta_e": None,
        "peaks": [],
        "files": [],
    }


def cmd_evolve(cfg: argparse.Namespace) -> dict:
    return _series_run(cfg, *_point(cfg))[0]


def cmd_spectrum(cfg: argparse.Namespace) -> dict:
    N, h, g = _point(cfg)
    summary, mx_series, eig0, state = _series_run(cfg, N, h, g)
    spec = periodogram(mx_series, N)
    peaks = find_peaks(spec, PEAK_FRACTION)
    lines = line_spectrum(eig0, state, collective_operators(N).sx, threshold=1e-8 * N)
    summary["peaks"] = [
        {"freq_over_nu": p.freq_over_nu, "height": p.height} for p in peaks
    ]
    _write_json(cfg, "spectrum_peaks.json", {"peaks": summary["peaks"]})
    nu = 1.0 / N
    summary["files"] += [
        _table(
            cfg,
            "spectrum",
            SPECTRUM_HEADER,
            np.column_stack([spec.freq_over_nu, spec.magnitudes]),
        ),
        "spectrum_peaks.json",
        _table(
            cfg,
            "lines",
            "freq_over_nu,weight_abs,weight_re,weight_im",
            [
                (f / nu, abs(w), w.real, w.imag)
                for f, w in zip(lines.frequencies, lines.weights)
            ],
        ),
    ]
    return summary


def cmd_modes(cfg: argparse.Namespace) -> dict:
    N = _one(cfg.n, "n")
    files = []
    table_rows = []
    tgrid = _time_grid(cfg, N)
    modes = []
    for h in cfg.h:
        freqs = intrinsic_frequencies(N, h)
        modes.append({"h": h, "mode": classify_mode(N, h).label})
        table_rows.append((h, N * h, freqs.m0, freqs.omega0, float(freqs.degenerate)))
        ideal = ProjectedModes(
            1.0 / N, np.array([freqs.omega0]), np.array([N / 2.0]), np.zeros(1)
        )
        files.append(_waveform(cfg, _mode_stem(h), "ideal", ideal, tgrid, N))
    files.insert(0, _table(cfg, "modes", "h,nh,m0,omega0,degenerate", table_rows))
    summary = _base_summary(cfg, N, cfg.h[0], 0.0)
    summary["modes"] = modes
    summary["files"] = files
    return summary


def cmd_correlation(cfg: argparse.Namespace) -> dict:
    N, h = _one(cfg.n, "n"), _one(cfg.h, "h")
    tgrid = _time_grid(cfg, N)
    result = correlation_fN(N, h, tgrid)
    oracle_members = None
    if N <= MAX_CORRELATION_N:
        oracle_members = dict(full_space_correlation(N, h, tgrid))
    files = []
    for member in result.members:
        cols = [tgrid, member.closed_form.values.real, member.closed_form.values.imag]
        header = "t,fn_closed_re,fn_closed_im"
        if oracle_members is not None:  # paired by S_z
            if member.m0 not in oracle_members:
                raise OracleMismatchError(f"no full-space ground level at M0 = {member.m0:g}")
            fn_oracle = oracle_members[member.m0].values
            cols += [fn_oracle.real, fn_oracle.imag]
            header += ",fn_oracle_re,fn_oracle_im"
        files.append(
            _table(cfg, f"correlation_m{member.m0:.10g}", header, np.column_stack(cols))
        )
    summary = _base_summary(cfg, N, h, 0.0)
    summary["frequencies"] = [
        list(member.frequencies) for member in result.members
    ]
    summary["files"] = files
    return summary


def cmd_gap(cfg: argparse.Namespace) -> dict:
    # first --n value drives the degenerate-PT part; the list drives the scan
    N, h = cfg.n[0], _one(cfg.h, "h")
    files = []
    summary = _base_summary(cfg, N, h, 0.0)
    # the PT part uses gamma = 1 and the scan gamma = 0; --gamma applies to neither
    summary["gamma"] = None

    if ground_M(N, h).degenerate:
        # the PT splitting is that of the gamma = 1 H, whatever --gamma says
        params = LmgParams(N=N, h=h)
        rows = []
        for g in PT_KICKS:
            pt = degenerate_pt_gap(N, h, g)
            w = eigensystem(build_hamiltonian(params, g=g)).energies
            rows.append((g, float(w[1] - w[0]), pt.splitting))
        files.append(_table(cfg, "gap_pt", "g,splitting_numeric,splitting_pt", rows))
    else:  # no PT table: no key describes a PT point
        summary.update(n=None, m0=None, nu=None, omega0=None, mode=None)

    n_values = cfg.n if len(cfg.n) > 1 else list(GAP_SCAN_N)
    scan = gamma0_gap_scan(n_values, h)
    symmetric = h > 1.0
    rows = []
    # the third column is the well overlap 2 alpha, which falls ever further
    # below the splitting; it is not an estimate of it (see wkb_rate).  The
    # symmetric phase h > 1 has no wells, hence nan.
    for n_val, splitting in scan:
        overlap = math.nan if symmetric else newman_alpha(n_val, h).gap
        rows.append((n_val, splitting, overlap))
    files.append(
        _table(cfg, "gap_gamma0", "n,splitting,tunneling_gap_estimate", rows)
    )
    resolvable = [(n_val, s) for n_val, s in scan if s > SPLITTING_FLOOR]
    summary["gamma0_unresolved_n"] = sorted(
        n_val for n_val, s in scan if s <= SPLITTING_FLOOR
    )
    # at and above h = 1, and inside the critical window N (1 - h^2)^(3/2) < 1
    # at the scan's smallest N, the splitting does not decay exponentially
    # in N, so an exponential rate would mean nothing
    if h < 1.0 and min(n_values) * (1.0 - h * h) ** 1.5 >= 1.0 and len(resolvable) >= 3:
        ns = np.array([n_val for n_val, _ in resolvable], dtype=float)
        ss = np.array([s for _, s in resolvable])
        rate = -float(np.polyfit(ns, np.log(ss), 1)[0])
        summary["gamma0_fitted_rate"] = rate
    rates_defined = 0.0 < h and not symmetric
    summary["c_h"] = newman_alpha(N, h).c_h if rates_defined else None
    summary["wkb_rate"] = wkb_rate(h) if rates_defined else None
    summary["files"] = files
    return summary


def cmd_quasicrystal(cfg: argparse.Namespace) -> dict:
    N, h, g = _point(cfg)
    kappa = cfg.kappa
    fields = quasicrystal_h(N, kappa)
    if len(fields) == 0 and h is None:
        raise ValueError(f"no field in [0, 1) at N={N}; pass --h")
    # two-tone waveform: the ground-mode component of an actual kicked run
    h_pick = float(fields[len(fields) // 2]) if h is None else h
    tgrid = _time_grid(cfg, N)
    params = LmgParams(N=N, h=h_pick)
    localized = localize_ground_state(params, g=g, phi_n=cfg.phi_n)
    files = [_table(cfg, "quasicrystal_h", "index,h", list(enumerate(fields)))]
    ground_mode = projected_init(localized.state, N, h_pick).first(1)
    files.append(_waveform(cfg, "waveform", "mode", ground_mode, tgrid, N))
    word = cut_and_project_sequence(kappa, CUT_PROJECT_LENGTH)
    with _create(cfg, "cut_project.txt") as fh:
        fh.write(word.encode("utf-8") + b"\n")
    files.append("cut_project.txt")
    summary = _base_summary(cfg, N, h_pick, g)
    summary["kappa"] = kappa
    summary["h_values"] = [float(v) for v in fields]
    summary["files"] = files
    return summary


def cmd_oracle(cfg: argparse.Namespace) -> dict:
    N, h, g = _point(cfg)
    report = sector_vs_full_checks(N, h, g)
    worst = report.worst()
    row = (N, h, report.ground_energy, report.ground_sz, report.correlation,
           report.localized_mx, worst)
    name = _table(
        cfg,
        "oracle",
        "n,h,ground_energy_dev,ground_sz_dev,correlation_dev,localized_mx_dev,worst",
        [row],
    )
    summary = _base_summary(cfg, N, h, g)
    summary["worst_deviation"] = worst
    summary["tolerance"] = ORACLE_TOLERANCE
    summary["files"] = [name]
    if not worst <= ORACLE_TOLERANCE:  # NaN fails too
        _write_json(cfg, "summary.json", summary)
        raise OracleMismatchError(
            f"sector vs full-space deviation {worst:.3e} exceeds {ORACLE_TOLERANCE:.3e}"
        )
    return summary


_COMMANDS = {
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "modes": cmd_modes,
    "correlation": cmd_correlation,
    "gap": cmd_gap,
    "quasicrystal": cmd_quasicrystal,
    "oracle": cmd_oracle,
}


_SUBPARSERS: dict[str, argparse.ArgumentParser] = {}
_PARSER = build_parser(_SUBPARSERS)


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--g -1e-3`` as ``--g=-1e-3``: argparse reads only the shapes -1 and
    -.5 as negative numbers and takes any other leading ``-`` for a flag, so
    a value-taking flag is joined with a next token its type parses."""
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        kind = _FLAGS.get(flag[2:], {}).get("type") if flag.startswith("--") else None
        if kind is not None and token.startswith("-"):
            try:
                kind(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{flag}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg, unread = _PARSER.parse_known_args(argv)
        if unread:  # the subcommand's parser reports them, under its usage line
            _SUBPARSERS[cfg.command].error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        validate_config(cfg)
        _write_json(cfg, "summary.json", _COMMANDS[cfg.command](cfg))
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
