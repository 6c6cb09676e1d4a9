"""Command-line front end: run experiments, emit CSV/JSON data files.

Subcommands: evolve, spectrum, modes, correlation, gap, quasicrystal,
oracle.  Each run writes its tables into ``--out`` as CSV or JSON
(``--format``) plus a ``summary.json``.  Outputs are deterministic
(17-significant-digit floats, LF endings, sorted JSON keys), so identical
configs give byte-identical files.  Exit codes: 0 success, 1 usage error,
2 numeric failure, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

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
from .spinspace import _Raising, build_sector, collective_operators
from .ssb import (
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
ORACLE_TOLERANCE = 1e-9
# gamma = 0 splittings at or under this are double-precision noise: the fit
# skips them and summary.json lists their N as unresolved
SPLITTING_FLOOR = 1e-13


@dataclass
class RunConfig:
    command: str
    # empty n/h lists mean "not given"; commands fill their own defaults
    n: list[int] = field(default_factory=list)
    h: list[float] = field(default_factory=list)
    gamma: float = 1.0
    g: list[float] | None = None
    phi_n: float = 0.0
    tmax: float | None = None
    samples: int = 4096
    cutoff_k: int = 3
    kappa: float = 0.6180339887498949
    window: str = "hann"
    threshold: float | None = None
    trial: bool = False
    out: str = "."
    format: str = "csv"

    def single_n(self) -> int:
        if not self.n:
            return 100
        if len(self.n) != 1:
            raise ValueError("this subcommand takes exactly one --n value")
        return self.n[0]

    def single_h(self) -> float:
        if not self.h:
            return 0.716
        if len(self.h) != 1:
            raise ValueError("this subcommand takes exactly one --h value")
        return self.h[0]

    def peak_threshold(self) -> float:
        return 0.01 if self.threshold is None else self.threshold

    def single_g(self, N: int) -> float:
        if self.g is None:
            return default_kick(N)
        if len(self.g) != 1:
            raise ValueError("this subcommand takes exactly one --g value")
        return self.g[0]


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part != ""]


def _shared_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, declared once as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--n", type=_parse_int_list, default=None)
    p.add_argument("--h", type=_parse_float_list, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--g", type=_parse_float_list, default=None)
    p.add_argument("--phi-n", dest="phi_n", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--cutoff-k", dest="cutoff_k", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--window", choices=("hann", "none"), default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--trial", action="store_const", const=True, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--config", type=str, default=None)
    return p


_SHARED_FLAGS = _shared_flags()
# the keys a --config file may set: every shared flag but --config
_FLAG_ACTIONS = {
    action.option_strings[0][2:]: action
    for action in _SHARED_FLAGS._actions
    if action.dest != "config"
}
_FLAG_KEYS = tuple(_FLAG_ACTIONS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmglab",
        description="Finite-size LMG symmetry-breaking dynamics laboratory",
    )
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
        sub.add_parser(name, help=text, parents=[_SHARED_FLAGS])
    return parser


def _is_number(value, kind) -> bool:
    """Whether a JSON value is a number a flag of type ``kind`` (int or
    float) would read; JSON true and false are not numbers here."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (kind is float and isinstance(value, float))


def _config_value(key: str, value):
    """A --config value checked against its flag's type and converted as
    the flag would be; any other JSON type is a ValueError naming the key."""
    kind = _FLAG_ACTIONS[key].type
    if kind in (_parse_int_list, _parse_float_list):
        item = int if kind is _parse_int_list else float
        if isinstance(value, str):
            try:
                return kind(value)
            except ValueError:
                raise ValueError(f"config key {key!r}: cannot parse {value!r}") from None
        if isinstance(value, list) and all(_is_number(x, item) for x in value):
            return [item(x) for x in value]
    elif kind in (int, float):
        if _is_number(value, kind):
            return kind(value)
    elif key == "trial":
        if isinstance(value, bool):
            return value
    elif isinstance(value, str):
        return value
    raise ValueError(f"config key {key!r} has the wrong JSON type: {value!r}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_values = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("a config file holds one JSON object")
        unknown = set(raw) - set(_FLAG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        file_values = {key: _config_value(key, value) for key, value in raw.items()}
    for key in _FLAG_KEYS:
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        flag_value = getattr(args, attr)
        if flag_value is not None:
            setattr(cfg, attr, flag_value)
        elif key in file_values:
            setattr(cfg, attr, file_values[key])
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if any(n < 1 for n in cfg.n):
        raise ValueError("N must be >= 1")
    if any(h < 0.0 for h in cfg.h):
        raise ValueError("h must be >= 0")
    if not 0.0 <= cfg.gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    reals = [*cfg.h, *(cfg.g or []), cfg.phi_n]
    if cfg.threshold is not None:
        reals.append(cfg.threshold)
    if not all(math.isfinite(x) for x in reals):
        raise ValueError("h, g, phi-n and threshold must be finite")
    if cfg.threshold is not None and cfg.threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    # oracle and correlation work on the free gamma = 1 H (the oracle adds its
    # own 1/N^2 kick along x), modes on its closed forms, gap kicks along x and
    # a trial state takes no kick: these flags would be recorded, not applied
    if cfg.command in ("oracle", "correlation", "modes"):
        if cfg.gamma != 1.0:
            raise ValueError(f"{cfg.command} supports gamma = 1 only")
        if cfg.g is not None or cfg.phi_n != 0.0:
            raise ValueError(f"{cfg.command} takes no --g or --phi-n")
    if cfg.command in ("oracle", "correlation") and any(h >= 1.0 for h in cfg.h):
        raise ValueError(f"{cfg.command} needs h < 1")
    if cfg.trial and (cfg.g is not None or cfg.phi_n != 0.0):
        raise ValueError("--trial takes no --g or --phi-n")
    if cfg.command == "gap" and cfg.phi_n != 0.0:
        raise ValueError("gap takes no --phi-n")
    if cfg.samples < 16:
        raise ValueError("samples must be >= 16")
    if cfg.cutoff_k < 0:
        raise ValueError("cutoff-k must be >= 0")
    if cfg.tmax is not None and not 0.0 < cfg.tmax < math.inf:
        raise ValueError("tmax must be positive and finite")
    if cfg.window not in ("hann", "none"):
        raise ValueError("window must be hann or none")
    if cfg.format not in ("csv", "json"):
        raise ValueError("format must be csv or json")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_table(path: str, header: str, rows) -> str:
    columns = header.split(",")
    if path.endswith(".json"):
        payload = {
            col: [_fmt(row[i]) for row in rows] for i, col in enumerate(columns)
        }
        _write_json(path, payload)
        return path
    table = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(columns))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.writelines(csv_pieces(table))
    return path


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _table(cfg: RunConfig, stem: str, header: str, rows) -> str:
    """Write one table to ``--out`` as ``stem.csv`` or ``stem.json``."""
    return _write_table(os.path.join(cfg.out, f"{stem}.{cfg.format}"), header, rows)


def _time_grid(cfg: RunConfig, N: int) -> np.ndarray:
    if cfg.tmax is None:
        return default_time_grid(N, samples=cfg.samples)
    return np.arange(cfg.samples) * (cfg.tmax / cfg.samples)


def _series_run(cfg: RunConfig, N: int, h: float, g: float):
    """Prepare the localized state, write its series table and start the
    summary; also return what ``spectrum`` reads of the run."""
    sector = build_sector(N)
    params = LmgParams(N=N, h=h, gamma=cfg.gamma)
    if cfg.trial:
        prepared, prep = trial_localized_state(sector, h), "trial"
    else:
        prepared = localize_ground_state(params, g=g, phi_n=cfg.phi_n)
        prep = "kicked"
    state = prepared.state
    tgrid = _time_grid(cfg, N)
    eig0 = eigensystem(build_hamiltonian(params, sector))
    # <S+> = <Sx> + i <Sy>: m_x and m_y from one line sum
    plus = observable_series(eig0, state, _Raising(sector), tgrid)
    modes = projected_init(state, sector, h)
    ax, ay = analytic_sum(modes, min(cfg.cutoff_k, N), tgrid)
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
    summary["files"] = [_table(cfg, "series", SERIES_HEADER, rows)]
    return summary, _series(plus.t, mx), eig0, state, sector


def _base_summary(cfg: RunConfig, N: int, h: float, g: float) -> dict:
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


def cmd_evolve(cfg: RunConfig) -> dict:
    N, h = cfg.single_n(), cfg.single_h()
    return _series_run(cfg, N, h, cfg.single_g(N))[0]


def cmd_spectrum(cfg: RunConfig) -> dict:
    N, h = cfg.single_n(), cfg.single_h()
    g = cfg.single_g(N)
    summary, mx_series, eig0, state, sector = _series_run(cfg, N, h, g)
    spec = periodogram(mx_series, N, window=cfg.window)
    peaks = find_peaks(spec, cfg.peak_threshold())
    sx = collective_operators(sector).sx
    lines = line_spectrum(eig0, state, sx, threshold=1e-8 * N)
    summary["peaks"] = [
        {"freq_over_nu": p.freq_over_nu, "height": p.height} for p in peaks
    ]
    nu = 1.0 / N
    summary["files"] += [
        _table(
            cfg,
            "spectrum",
            SPECTRUM_HEADER,
            np.column_stack([spec.freq_over_nu, spec.magnitudes]),
        ),
        _write_json(
            os.path.join(cfg.out, "spectrum_peaks.json"), {"peaks": summary["peaks"]}
        ),
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


def cmd_modes(cfg: RunConfig) -> dict:
    N = cfg.single_n()
    h_grid = cfg.h if cfg.h else [0.710, 0.716, 0.720]
    files = []
    table_rows = []
    tgrid = _time_grid(cfg, N)
    for h in h_grid:
        mode = classify_mode(N, h)
        freqs = intrinsic_frequencies(N, h)
        table_rows.append(
            (h, N * h, freqs.m0, freqs.omega0, 1.0 if mode.degenerate else 0.0)
        )
        ideal = ProjectedModes(
            1.0 / N, np.array([freqs.omega0]), np.array([N / 2.0]), np.zeros(1)
        )
        wx, wy = projected_solution(ideal, tgrid)
        files.append(
            _table(
                cfg,
                f"mode_h{h:.10g}",
                "t,mx_ideal,my_ideal",
                np.column_stack(
                    [tgrid, wx.values.real * 2.0 / N, wy.values.real * 2.0 / N]
                ),
            )
        )
    files.insert(0, _table(cfg, "modes", "h,nh,m0,omega0,degenerate", table_rows))
    summary = _base_summary(cfg, N, h_grid[0], 0.0)
    summary["modes"] = [
        {"h": h, "mode": classify_mode(N, h).label} for h in h_grid
    ]
    summary["files"] = files
    return summary


def cmd_correlation(cfg: RunConfig) -> dict:
    N, h = cfg.single_n(), cfg.single_h()
    sector = build_sector(N)
    tgrid = _time_grid(cfg, N)
    result = correlation_fN(sector, h, tgrid)
    oracle_members = None
    if N <= MAX_CORRELATION_N:
        oracle_members = full_space_correlation(N, h, tgrid)
    files = []
    for idx, member in enumerate(result.members):
        cols = [
            tgrid,
            member.direct.values.real,
            member.direct.values.imag,
            member.closed_form.values.real,
            member.closed_form.values.imag,
        ]
        header = "t,fn_direct_re,fn_direct_im,fn_closed_re,fn_closed_im"
        if oracle_members is not None:
            cols.append(oracle_members[idx][1].values.real)
            cols.append(oracle_members[idx][1].values.imag)
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


def cmd_gap(cfg: RunConfig) -> dict:
    # first --n value drives the degenerate-PT part; the list drives the scan
    N = cfg.n[0] if cfg.n else 100
    h = cfg.single_h()
    files = []
    summary = _base_summary(cfg, N, h, 0.0)
    # the PT part uses gamma = 1 and the scan gamma = 0; --gamma applies to neither
    summary["gamma"] = None

    ground = ground_M(N, h)
    if ground.degenerate:
        sector = build_sector(N)
        kicks = cfg.g if cfg.g is not None else [1e-6, 1e-5, 1e-4]
        # the PT splitting is that of the gamma = 1 H, whatever --gamma says
        params = LmgParams(N=N, h=h)
        rows = []
        for g in kicks:
            pt = degenerate_pt_gap(sector, h, g)
            w = eigensystem(build_hamiltonian(params, sector, g=g)).energies
            rows.append((g, float(w[1] - w[0]), pt.splitting))
        files.append(_table(cfg, "gap_pt", "g,splitting_numeric,splitting_pt", rows))

    n_values = cfg.n if len(cfg.n) > 1 else list(range(20, 61, 4))
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
    # in the symmetric phase the splitting decays as a power of N, so an
    # exponential rate would mean nothing
    if not symmetric and len(resolvable) >= 3:
        ns = np.array([n_val for n_val, _ in resolvable], dtype=float)
        ss = np.array([s for _, s in resolvable])
        rate = -float(np.polyfit(ns, np.log(ss), 1)[0])
        summary["gamma0_fitted_rate"] = rate
    rates_defined = 0.0 < h and not symmetric
    summary["c_h"] = -math.log(h) if rates_defined else None
    summary["wkb_rate"] = wkb_rate(h) if rates_defined else None
    summary["files"] = files
    return summary


def cmd_quasicrystal(cfg: RunConfig) -> dict:
    N = cfg.single_n()
    kappa = cfg.kappa
    fields = quasicrystal_h(N, kappa)
    if len(fields) == 0 and not cfg.h:
        raise ValueError(f"no field in [0, 1) at N={N}; pass --h")
    # two-tone waveform: the ground-mode component of an actual kicked run
    h_pick = cfg.single_h() if cfg.h else float(fields[len(fields) // 2])
    tgrid = _time_grid(cfg, N)
    params = LmgParams(N=N, h=h_pick, gamma=cfg.gamma)
    localized = localize_ground_state(params, g=cfg.single_g(N), phi_n=cfg.phi_n)
    files = [_table(cfg, "quasicrystal_h", "index,h", list(enumerate(fields)))]
    sector = build_sector(N)
    ground_mode = projected_init(localized.state, sector, h_pick).first(1)
    wx, wy = projected_solution(ground_mode, tgrid)
    files.append(
        _table(
            cfg,
            "waveform",
            "t,mx_mode,my_mode",
            np.column_stack(
                [tgrid, wx.values.real * 2.0 / N, wy.values.real * 2.0 / N]
            ),
        )
    )
    word = cut_and_project_sequence(kappa, CUT_PROJECT_LENGTH)
    word_path = os.path.join(cfg.out, "cut_project.txt")
    with open(word_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(word + "\n")
    files.append(word_path)
    summary = _base_summary(cfg, N, h_pick, 0.0)
    summary["kappa"] = kappa
    summary["h_values"] = [float(v) for v in fields]
    summary["files"] = files
    return summary


def cmd_oracle(cfg: RunConfig) -> dict:
    tolerance = ORACLE_TOLERANCE if cfg.threshold is None else cfg.threshold
    n_values = cfg.n if cfg.n else [4, 6, 8]
    h_values = cfg.h if cfg.h else [0.3, 0.5, 0.7]
    if max(n_values) > MAX_CORRELATION_N:
        raise ValueError(f"oracle supports N <= {MAX_CORRELATION_N}")
    rows = []
    worst = 0.0
    for n_val in n_values:
        for h_val in h_values:
            report = sector_vs_full_checks(n_val, h_val)
            worst = max(worst, report.worst())
            rows.append(
                (
                    n_val,
                    h_val,
                    report.ground_energy,
                    report.ground_sz,
                    report.correlation,
                    report.localized_mx,
                    report.worst(),
                )
            )
    path = _table(
        cfg,
        "oracle",
        "n,h,ground_energy_dev,ground_sz_dev,correlation_dev,localized_mx_dev,worst",
        rows,
    )
    summary = _base_summary(cfg, n_values[0], h_values[0], 0.0)
    summary["worst_deviation"] = worst
    summary["tolerance"] = tolerance
    summary["files"] = [path]
    if worst > tolerance:
        _write_json(os.path.join(cfg.out, "summary.json"), summary)
        raise OracleMismatchError(
            f"sector vs full-space deviation {worst:.3e} exceeds {tolerance:.3e}"
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


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = _config_from_args(args)
        validate_config(cfg)
        os.makedirs(cfg.out, exist_ok=True)
        summary = _COMMANDS[cfg.command](cfg)
        _write_json(os.path.join(cfg.out, "summary.json"), summary)
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
