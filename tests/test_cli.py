import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lmglab
from lmglab import cli, evolve, spectra
from lmglab.cli import (
    _FLAGS,
    _table,
    build_parser,
    main,
    validate_config,
)
from lmglab.model import LmgParams, ground_M
from lmglab.oracle import OracleReport
from lmglab.ssb import localize_ground_state, order_parameter, wkb_rate

FAST = ["--samples", "64"]

# the flags each subcommand reads, besides --out
READS = {
    "evolve": "n h gamma g phi-n tmax samples trial",
    "spectrum": "n h gamma g phi-n tmax samples trial",
    "modes": "n h tmax samples",
    "correlation": "n h tmax samples",
    "gap": "n h gamma",
    "quasicrystal": "n h g phi-n kappa tmax samples",
    "oracle": "n h",
}
FLAG_VALUES = {
    "n": ["6"], "h": ["0.5"], "gamma": ["0.5"], "g": ["0.01"], "phi-n": ["0.3"],
    "tmax": ["50"], "samples": ["64"], "kappa": ["0.4"], "trial": [],
    # no subcommand reads them: every table is CSV, flags alone set a run,
    # every periodogram is Hann-windowed, and the analytic cutoff, the peak
    # fraction and the oracle's tolerance are constants
    "format": ["csv"], "config": ["run.json"], "window": ["hann"],
    "cutoff-k": ["2"], "threshold": ["0.02"],
}
UNREAD = [
    (command, flag)
    for command, reads in READS.items()
    for flag in FLAG_VALUES
    if flag not in reads.split()
]
# a run with no flag given, and the defaults of the subcommands that differ
DEFAULTS = dict(
    n=[100], h=[0.716], gamma=1.0, g=None, phi_n=0.0, tmax=None, samples=4096,
    kappa=0.6180339887498949, trial=False, out=".",
)
COMMAND_DEFAULTS = {
    "modes": dict(h=[0.710, 0.716, 0.720]),
    "oracle": dict(n=[6], h=[0.5]),
    "quasicrystal": dict(h=None),
}


def run(command, **flags):
    """The parsed run of ``command`` given ``flags``: every flag, by name."""
    return {"command": command, **DEFAULTS, **COMMAND_DEFAULTS.get(command, {}), **flags}


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        )
    return header, rows


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def written(out):
    """Every file in ``out``, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestEvolve:
    def test_series_schema_and_summary(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(
            ["evolve", "--n", "100", "--h", "0.716", "--g", "1e-4", "--out", out]
            + FAST
        )
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "series.csv"))
        assert header == "t,mx_exact,my_exact,mx_analytic,my_analytic"
        assert rows.shape == (64, 5)
        # analytic truncation tracks the exact waveform
        scale = np.max(np.abs(rows[:, 1]))
        assert np.max(np.abs(rows[:, 1] - rows[:, 3])) < 0.02 * scale
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["n"] == 100
        assert summary["m0"] == 36.0
        assert summary["mode"] == "generic"
        assert summary["delta_e"] > 0.0

    def test_zero_kick_gives_flat_series(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(
            ["evolve", "--n", "40", "--h", "0.5", "--g", "0", "--out", out] + FAST
        )
        assert rc == 0
        _, rows = read_csv(os.path.join(out, "series.csv"))
        assert np.max(np.abs(rows[:, 1])) <= 1e-10

    def test_trial_preparation(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(
            ["evolve", "--n", "100", "--h", "0.72", "--trial", "--out", out] + FAST
        )
        assert rc == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["preparation"] == "trial"
        assert summary["delta_e"] == pytest.approx(2e-4, rel=1e-10, abs=0)

    def test_determinism(self, tmp_path):
        args = ["evolve", "--n", "30", "--h", "0.4", "--g", "1e-3"] + FAST
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("series.csv", "summary.json"):
            with open(os.path.join(out1, name), "rb") as fh:
                blob1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                blob2 = fh.read()
            assert blob1 == blob2.replace(out2.encode(), out1.encode())


class TestSpectrum:
    def test_files_and_peaks(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(
            ["spectrum", "--n", "100", "--h", "0.716", "--g", "1e-4", "--out", out]
        )
        assert rc == 0
        header, _ = read_csv(os.path.join(out, "spectrum.csv"))
        assert header == "freq_over_nu,magnitude"
        sidecar = read_json(os.path.join(out, "spectrum_peaks.json"))
        freqs = sorted(p["freq_over_nu"] for p in sidecar["peaks"][:2])
        assert freqs[0] == pytest.approx(0.6, abs=0.05)
        assert freqs[1] == pytest.approx(1.4, abs=0.05)
        header, lines = read_csv(os.path.join(out, "lines.csv"))
        assert header == "freq_over_nu,weight_abs,weight_re,weight_im"
        assert lines.shape[0] >= 4

    @pytest.mark.parametrize("gamma", ["1", "0.5"])
    def test_kicked_op_builds_two_line_lists_and_two_phase_sums(
        self, tmp_path, monkeypatch, gamma
    ):
        # m_x and m_y from one <S+> line list, lines.csv from the Sx one; one
        # phase sum for that series and one for both analytic columns
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module, name in (
            (evolve, "bohr_lines"),
            (spectra, "bohr_lines"),
            (evolve, "_phase_sum"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        out = str(tmp_path / "run")
        argv = ["spectrum", "--n", "50", "--h", "0.6", "--gamma", gamma, "--out", out]
        assert main(argv + FAST) == 0
        assert calls.count("bohr_lines") == 2
        assert calls.count("_phase_sum") == 2

    def test_anisotropic_summary_holds_no_isotropic_closed_form(self, tmp_path):
        # m0, nu, omega0 and the mode are those of the gamma = 1 ground level
        out = tmp_path / "run"
        argv = ["spectrum", "--n", "40", "--h", "0.6", "--gamma", "0.5", "--out", str(out)]
        assert main(argv + FAST) == 0
        summary = read_json(out / "summary.json")
        assert [summary[key] for key in ("m0", "nu", "omega0", "mode")] == [None] * 4
        assert summary["gamma"] == 0.5

    def test_cutoff_k_at_gamma_one_sets_only_the_analytic_columns(
        self, tmp_path, monkeypatch
    ):
        # K = cli.CUTOFF_K = 3; another K moves the two analytic columns alone
        argv = ["spectrum", "--n", "40", "--h", "0.6", "--samples", "256"]
        for name, k in (("default", None), ("k3", 3), ("k5", 5)):
            if k is not None:
                monkeypatch.setattr(cli, "CUTOFF_K", k)
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
        default, k3, k5 = (written(tmp_path / name) for name in ("default", "k3", "k5"))
        assert k3 == default
        del k5["series.csv"], default["series.csv"]
        assert k5 == default
        _, series3 = read_csv(tmp_path / "default" / "series.csv")
        _, series5 = read_csv(tmp_path / "k5" / "series.csv")
        assert np.array_equal(series5[:, :3], series3[:, :3])
        # more modes sum closer to the exact series
        deviation = [np.max(np.abs(s[:, 1:3] - s[:, 3:5])) for s in (series5, series3)]
        assert deviation[0] < deviation[1]

    def test_trial_state_round_mode_single_tone(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["spectrum", "--n", "100", "--h", "0.72", "--trial", "--out", out])
        assert rc == 0
        peaks = read_json(os.path.join(out, "spectrum_peaks.json"))["peaks"]
        assert peaks[0]["freq_over_nu"] == pytest.approx(1.0, abs=0.05)
        assert all(p["height"] < 0.2 * peaks[0]["height"] for p in peaks[1:])


class TestModes:
    def test_classification_table(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(
            [
                "modes",
                "--n", "100",
                "--h", "0.710,0.716,0.720",
                "--out", out,
            ]
            + FAST
        )
        assert rc == 0
        summary = read_json(os.path.join(out, "summary.json"))
        labels = {m["h"]: m["mode"] for m in summary["modes"]}
        assert labels[0.710] == "crescent"
        assert labels[0.716] == "generic"
        assert labels[0.720] == "round"
        header, rows = read_csv(os.path.join(out, "modes.csv"))
        assert header == "h,nh,m0,omega0,degenerate"
        assert rows.shape == (3, 5)
        assert os.path.exists(os.path.join(out, "mode_h0.716.csv"))

    @pytest.mark.parametrize(
        "n, h, label",
        # Nh within 1e-9 of an integer of the other parity than N, yet the
        # levels do not tie; Nh 1e-8 off an integer, yet the levels tie
        [(10, "0.50000000003", "generic"), (1000, "0.60100000001", "crescent")],
    )
    def test_label_and_flag_follow_the_ground_level(self, tmp_path, n, h, label):
        out = str(tmp_path / "run")
        assert main(["modes", "--n", str(n), "--h", h, "--out", out] + FAST) == 0
        ground = ground_M(n, float(h))
        _, (row,) = read_csv(os.path.join(out, "modes.csv"))
        assert bool(row[4]) == ground.degenerate
        assert row[2] == ground.m0
        expected_omega0 = 1.0 / n if ground.degenerate else float(h) - 2.0 * ground.m0 / n
        assert row[3] == pytest.approx(expected_omega0, rel=1e-12, abs=0)
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["mode"] == label
        assert summary["modes"] == [{"h": float(h), "mode": label}]


class TestCorrelation:
    def test_member_files_with_oracle_column(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["correlation", "--n", "8", "--h", "0.5", "--out", out] + FAST)
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "correlation_m2.csv"))
        assert header.startswith("t,fn_closed_re,fn_closed_im")
        assert header.endswith("fn_oracle_re,fn_oracle_im")
        # closed form and oracle agree
        assert np.max(np.abs(rows[:, 1] - rows[:, 3])) <= 1e-10

    @pytest.mark.parametrize(
        "n,h,header",
        [
            ("8", "0.5", "t,fn_closed_re,fn_closed_im,fn_oracle_re,fn_oracle_im"),
            ("61", "0.71", "t,fn_closed_re,fn_closed_im"),
        ],
        ids=["n8", "n61"],
    )
    def test_header_is_one_closed_form(self, tmp_path, n, h, header):
        out = tmp_path / "run"
        assert main(["correlation", "--n", n, "--h", h, "--out", str(out)] + FAST) == 0
        files = sorted(out.glob("correlation_m*.csv"))
        assert files
        for path in files:
            assert read_csv(path)[0] == header

    def test_degenerate_pair_writes_two_member_files(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["correlation", "--n", "6", "--h", "0.5", "--out", out] + FAST)
        assert rc == 0
        assert os.path.exists(os.path.join(out, "correlation_m1.csv"))
        assert os.path.exists(os.path.join(out, "correlation_m2.csv"))

    @pytest.mark.parametrize("j", [1, 3, 5])
    @pytest.mark.parametrize("p", [10, 11])
    def test_oracle_column_pairs_members_by_sz(self, tmp_path, j, p):
        # just above a crossing h = j/6 the oracle's wider degeneracy
        # tolerance finds a second ground member that the sector side does
        # not; the column of each member file is the full-space member of
        # its M0
        out = tmp_path / "run"
        h = j / 6 + 10.0**-p
        assert main(["correlation", "--n", "6", "--h", repr(h), "--out", str(out)] + FAST) == 0
        files = sorted(out.glob("correlation_m*.csv"))
        assert [f.name for f in files] == [
            f"correlation_m{m0:.10g}.csv" for m0 in ground_M(6, h).levels
        ]
        for path in files:
            header, rows = read_csv(path)
            assert header.endswith("fn_oracle_re,fn_oracle_im")
            assert np.max(np.abs(rows[:, 1] - rows[:, 3])) <= 1e-9
            assert np.max(np.abs(rows[:, 2] - rows[:, 4])) <= 1e-9

    def test_member_missing_from_the_oracle_exits_three(self, tmp_path, monkeypatch, capsys):
        def only_upper(N, h, tgrid):
            return [(m, series) for m, series in full(N, h, tgrid) if m != 1.0]

        full = cli.full_space_correlation
        monkeypatch.setattr(cli, "full_space_correlation", only_upper)
        out = str(tmp_path / "run")
        assert main(["correlation", "--n", "6", "--h", "0.5", "--out", out] + FAST) == 3
        assert "no full-space ground level at M0 = 1" in capsys.readouterr().err

    def test_large_n_skips_oracle_column(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["correlation", "--n", "60", "--h", "0.57", "--out", out] + FAST)
        assert rc == 0
        files = [f for f in os.listdir(out) if f.startswith("correlation")]
        header, _ = read_csv(os.path.join(out, files[0]))
        assert "oracle" not in header


class TestGap:
    def test_scan_and_pt_tables(self, tmp_path):
        # the PT splitting is a gamma = 1 quantity, so gap_pt.csv must set
        # it next to the gamma = 1 numeric splitting whatever --gamma says
        for gamma in ("1", "0", "0.5"):
            out = str(tmp_path / f"run{gamma}")
            rc = main(
                ["gap", "--n", "100,20,24,28,32", "--h", "0.71", "--gamma", gamma,
                 "--out", out]
            )
            assert rc == 0
            header, rows = read_csv(os.path.join(out, "gap_pt.csv"))
            assert header == "g,splitting_numeric,splitting_pt"
            assert np.allclose(rows[:, 1], rows[:, 2], rtol=0.05)
            header, rows = read_csv(os.path.join(out, "gap_gamma0.csv"))
            assert header == "n,splitting,tunneling_gap_estimate"
            summary = read_json(os.path.join(out, "summary.json"))
            assert summary["gamma0_fitted_rate"] > 0.0
            assert summary["c_h"] == pytest.approx(-math.log(0.71), rel=1e-12, abs=0)
            assert summary["wkb_rate"] == pytest.approx(wkb_rate(0.71), rel=1e-12, abs=0)

    @pytest.mark.parametrize("flags", [["--gamma", "0.5"], []])
    def test_records_no_gamma(self, tmp_path, flags):
        # neither part of the run uses --gamma, so summary.json records none
        out = str(tmp_path / "run")
        assert main(["gap", "--n", "40", "--h", "0.71", *flags, "--out", out]) == 0
        assert read_json(os.path.join(out, "summary.json"))["gamma"] is None

    def test_symmetric_phase_scan(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["gap", "--n", "20,40,60", "--h", "1.5", "--out", out])
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "gap_gamma0.csv"))
        assert header == "n,splitting,tunneling_gap_estimate"
        assert rows[:, 0].tolist() == [20, 40, 60]
        assert np.all(np.isfinite(rows[:, 1])) and np.all(rows[:, 1] > 0.0)
        # no mean-field wells above h = 1, so no overlap estimate
        assert np.all(np.isnan(rows[:, 2]))
        summary = read_json(os.path.join(out, "summary.json"))
        assert summary["c_h"] is None
        assert summary["wkb_rate"] is None
        assert "gamma0_fitted_rate" not in summary
        assert summary["gamma0_unresolved_n"] == []

    def test_critical_field_writes_positive_zero_rate(self, tmp_path):
        # c(h) = -log h is -0.0 at h = 1, which summary.json wrote as -0.0
        out = tmp_path / "run"
        assert main(["gap", "--n", "20,24,28", "--h", "1", "--out", str(out)]) == 0
        text = (out / "summary.json").read_text(encoding="utf-8")
        assert '"c_h": 0.0,' in text and '"wkb_rate": 0.0' in text
        assert "-0.0" not in text

    @pytest.mark.parametrize("h, fitted", [("0.99", False), ("0.9", True)])
    def test_no_rate_inside_the_critical_window(self, tmp_path, h, fitted):
        # N (1 - h^2)^(3/2) at the scan's smallest N, 20, is 0.056 at h = 0.99,
        # where an exponential fit read 0.0359 against wkb_rate 0.00095, and
        # 1.66 at h = 0.9
        out = str(tmp_path / "run")
        assert main(["gap", "--h", h, "--out", out]) == 0
        summary = read_json(os.path.join(out, "summary.json"))
        assert ("gamma0_fitted_rate" in summary) == fitted
        assert summary["wkb_rate"] == pytest.approx(wkb_rate(float(h)), rel=1e-12, abs=0)

    def test_g_without_a_degenerate_ground_exits_one(self, tmp_path, capsys):
        # gap reads no --g: its PT kicks are cli.PT_KICKS
        out = tmp_path / "run"
        argv = ["gap", "--n", "40", "--h", "0.5", "--g", "1e-4", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "lmglab gap: error: unrecognized arguments: --g 1e-4" in err
        assert not out.exists()

    def test_g_at_a_degenerate_ground_writes_the_pt_table(self, tmp_path):
        # N h = 21: a crescent point, whose ground level is a degenerate pair
        out = tmp_path / "run"
        argv = ["gap", "--n", "40", "--h", "0.525", "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out / "gap_pt.csv")
        assert rows[:, 0].tolist() == list(cli.PT_KICKS) == [1e-6, 1e-5, 1e-4]
        summary = read_json(out / "summary.json")
        assert summary["files"] == ["gap_pt.csv", "gap_gamma0.csv"]

    @pytest.mark.parametrize("h, pt", [("0.6", None), ("0.61", (100, [30.0, 31.0], "crescent"))],
                             ids=["round", "crescent"])
    def test_summary_describes_a_pt_point_only_where_it_solved_one(self, tmp_path, h, pt):
        # the PT point is the first --n, 100: round at h = 0.6, so no PT
        # table and no n, m0, mode, nu or omega0; a crescent at h = 0.61
        out = tmp_path / "run"
        assert main(["gap", "--h", h, "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        keys = [summary[key] for key in ("n", "m0", "mode", "nu", "omega0")]
        if pt is None:
            assert summary["files"] == ["gap_gamma0.csv"]
            assert keys == [None] * 5
        else:
            assert summary["files"] == ["gap_pt.csv", "gap_gamma0.csv"]
            assert keys == [*pt, 0.01, 0.01]

    def test_sub_floor_splittings_are_flagged(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(
            ["gap", "--n", "20,40,60,100", "--h", "0.3", "--gamma", "0", "--out", out]
        )
        assert rc == 0
        summary = read_json(os.path.join(out, "summary.json"))
        # true splittings ~ exp(-0.92 N) sit far under double precision
        assert summary["gamma0_unresolved_n"] == [40, 60, 100]
        assert "gamma0_fitted_rate" not in summary


class TestQuasicrystal:
    def test_outputs(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["quasicrystal", "--n", "100", "--out", out] + FAST)
        assert rc == 0
        header, rows = read_csv(os.path.join(out, "quasicrystal_h.csv"))
        assert header == "index,h"
        assert rows.shape[0] == 50
        assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] < 1.0))
        with open(os.path.join(out, "cut_project.txt"), "r", encoding="utf-8") as fh:
            word = fh.read().strip()
        assert word.startswith("DUDDUDUDDUDDU")
        assert set(word) == {"D", "U"}
        header, wave = read_csv(os.path.join(out, "waveform.csv"))
        assert header == "t,mx_mode,my_mode"
        assert wave.shape[1] == 3
        # ground-mode component of a weakly kicked state: bounded by m_x = 1
        assert np.max(np.abs(wave[:, 1])) < 1.0

    def test_single_spin_has_no_field_and_needs_h(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = main(["quasicrystal", "--n", "1", "--out", out] + FAST)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_single_spin_with_explicit_h(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["quasicrystal", "--n", "1", "--h", "0.3", "--out", out] + FAST)
        assert rc == 0
        header, wave = read_csv(os.path.join(out, "waveform.csv"))
        assert wave.shape == (64, 3)


# every subcommand that kicks, as (argv, N, h, gamma, phi_n, the kick it
# applies): --g when given, 1/N^2 otherwise; oracle reads no --g
KICKS = {
    "evolve": (["evolve", "--n", "40", "--h", "0.6"], 40, 0.6, 1.0, 0.0, 1.0 / 40**2),
    "evolve --g": (["evolve", "--n", "40", "--h", "0.6", "--g", "0.01"],
                   40, 0.6, 1.0, 0.0, 0.01),
    "spectrum": (["spectrum", "--n", "30", "--h", "0.6", "--gamma", "0.5"],
                 30, 0.6, 0.5, 0.0, 1.0 / 30**2),
    "spectrum --g --phi-n": (["spectrum", "--n", "30", "--h", "0.6", "--gamma", "0.5",
                              "--g", "0.003", "--phi-n", "0.7"], 30, 0.6, 0.5, 0.7, 0.003),
    "quasicrystal": (["quasicrystal", "--n", "100", "--phi-n", "0.5"],
                     100, None, 1.0, 0.5, 1.0 / 100**2),
    "quasicrystal --g": (["quasicrystal", "--n", "100", "--phi-n", "0.5", "--g", "0.01"],
                         100, None, 1.0, 0.5, 0.01),
    "oracle": (["oracle", "--n", "6", "--h", "0.5"], 6, 0.5, 1.0, 0.0, 1.0 / 6**2),
}


@pytest.mark.parametrize("case", KICKS)
def test_summary_records_the_kick_applied(tmp_path, case):
    argv, N, h, gamma, phi_n, g = KICKS[case]
    out = tmp_path / "run"
    samples = [] if argv[0] == "oracle" else FAST
    assert main([*argv, *samples, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["g"] == g
    if argv[0] in ("evolve", "spectrum"):
        # row 0 of the series is (2/N) <S+> of the state kicked with that g
        psi = localize_ground_state(LmgParams(N=N, h=h, gamma=gamma), summary["g"], phi_n).state
        _, rows = read_csv(out / "series.csv")
        m_x, m_y = (order_parameter(psi, angle, N) for angle in (0.0, math.pi / 2.0))
        assert abs(rows[0, 1] - m_x) <= 1e-12 and abs(rows[0, 2] - m_y) <= 1e-12


def per_value_csv(header, rows):
    """The CSV bytes of the original writer: one `%.17g` per value."""
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestTableWriter:
    @pytest.mark.parametrize(
        "rows",
        [
            [
                (math.nan, math.inf, -math.inf),
                (-0.0, 5e-324, 1e300),
                (3, np.float64(0.1), -7),
                (np.float64(-2.5e-17), 1.0 / 3.0, 12345678901234567),
            ],
            np.array([[math.nan, -0.0, 5e-324], [1e300, -math.inf, 0.1]]),
            [],
            np.zeros((0, 3)),
        ],
    )
    def test_bytes_match_per_value_writer(self, tmp_path, rows):
        header = "a,b,c"
        cfg = argparse.Namespace(**run("evolve", out=str(tmp_path)))
        assert _table(cfg, "table", header, rows) == "table.csv"
        with open(tmp_path / "table.csv", "rb") as fh:
            assert fh.read() == per_value_csv(header, rows)


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--n", "20", "--h", "0.4"] + FAST,
            ["spectrum", "--n", "20", "--h", "0.4"] + FAST,
            ["modes", "--n", "20", "--h", "0.4"] + FAST,
            ["correlation", "--n", "6", "--h", "0.5"] + FAST,
            ["gap", "--n", "20,24,28", "--h", "0.55"],
            ["quasicrystal", "--n", "20"] + FAST,
            ["oracle", "--n", "4", "--h", "0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_summary_is_the_same_under_any_out(self, tmp_path, argv):
        # summary.json names its files relative to --out, so two output
        # paths of different length give the same bytes
        outs = [tmp_path / "a", tmp_path / "a_longer_path" / "b"]
        for out in outs:
            assert main(argv + ["--out", str(out)]) == 0
        first, second = (out.joinpath("summary.json").read_bytes() for out in outs)
        assert first == second
        files = json.loads(first)["files"]
        assert files and all((outs[0] / name).is_file() for name in files)

    COMMANDS = [
        ["evolve", "--n", "40", "--h", "0.716", "--g", "1e-4"],
        ["spectrum", "--n", "50", "--h", "0.716", "--g", "1e-4"],
        ["spectrum", "--n", "50", "--h", "0.72", "--trial"],
        ["spectrum", "--n", "30", "--h", "0.6", "--gamma", "0.5"],
        ["modes", "--n", "100", "--h", "0.710,0.716,0.720"],
        ["correlation", "--n", "8", "--h", "0.5"],
        ["gap", "--n", "100,20,24,28", "--h", "0.71"],
        ["gap", "--n", "20,40", "--h", "1.5"],
        ["quasicrystal", "--n", "60"],
        ["oracle", "--n", "6", "--h", "0.3"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
    def test_every_csv_is_its_own_per_value_reformat(self, tmp_path, argv):
        # "%.17g" round-trips every float, so a table written exactly comes
        # back byte for byte when parsed and formatted value by value
        out = str(tmp_path / "run")
        # gap and oracle take no --samples
        samples = [] if argv[0] in ("gap", "oracle") else ["--samples", "512"]
        assert main(argv + samples + ["--out", out]) == 0
        tables = [name for name in os.listdir(out) if name.endswith(".csv")]
        assert tables
        for name in tables:
            header, rows = read_csv(os.path.join(out, name))
            rows = rows.reshape(-1, len(header.split(",")))
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == per_value_csv(header, rows)


class TestOracleCommand:
    def test_results_do_not_depend_on_process_history(self, tmp_path):
        # the oracle keeps per-N solves for the whole process: runs after
        # other N and h write the bytes of a fresh process
        for n, h in [("8", "0.3"), ("6", "0.7"), ("10", "0.45"), ("8", "0.95")]:
            for command in ("oracle", "correlation"):
                samples = FAST if command == "correlation" else []
                out = str(tmp_path / f"warm_{command}_{n}_{h}")
                assert main([command, "--n", n, "--h", h, "--out", out] + samples) == 0
        src = os.path.dirname(os.path.dirname(lmglab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for i, argv in enumerate((["oracle", "--n", "8", "--h", "0.55"],
                                  ["oracle", "--n", "10", "--h", "0.7"],
                                  ["correlation", "--n", "10", "--h", "0.55"] + FAST)):
            warm, fresh = tmp_path / f"warm{i}", tmp_path / f"fresh{i}"
            assert main(argv + ["--out", str(warm)]) == 0
            subprocess.run([sys.executable, "-m", "lmglab", *argv, "--out", str(fresh)],
                           env=env, check=True)
            names = sorted(p.name for p in warm.iterdir())
            assert names == sorted(p.name for p in fresh.iterdir())
            for name in names:
                assert (warm / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_success(self, tmp_path):
        # with no flags the oracle checks its one default point, N = 6, h = 0.5
        out = str(tmp_path / "run")
        assert main(["oracle", "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "oracle.csv"))
        assert rows.shape == (1, 7)
        assert rows[0, :2].tolist() == [6, 0.5]
        assert rows[0, -1] <= 1e-9
        summary = read_json(os.path.join(out, "summary.json"))
        assert (summary["n"], summary["h"]) == (6, 0.5)
        assert summary["worst_deviation"] == rows[0, -1]

    def test_mismatch_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ORACLE_TOLERANCE", 1e-30)
        out = str(tmp_path / "run")
        assert main(["oracle", "--n", "4", "--h", "0.5", "--out", out]) == 3
        assert read_json(os.path.join(out, "summary.json"))["tolerance"] == 1e-30

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_nan_deviation_exits_three(self, tmp_path, monkeypatch, position):
        devs = [1e-15] * 4
        devs[position] = math.nan
        report = OracleReport(6, 0.5, 0.0, *devs)
        monkeypatch.setattr(cli, "sector_vs_full_checks", lambda N, h, g: report)
        out = tmp_path / "run"
        assert main(["oracle", "--out", str(out)]) == 3
        assert math.isnan(read_json(out / "summary.json")["worst_deviation"])

    @pytest.mark.parametrize("n_values", ["11", "4,11"])
    def test_oversized_n_fails_before_any_solve(self, tmp_path, monkeypatch, n_values):
        calls = []

        def counting_eigh(a, UPLO="L"):
            calls.append(np.shape(a))
            raise AssertionError("eigh reached")

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        out = str(tmp_path / "run")
        rc = main(["oracle", "--n", n_values, "--h", "0.5", "--out", out])
        assert rc == 1
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--gamma", "0.5"],
            ["oracle", "--g", "0.01"],
            ["oracle", "--phi-n", "0.3"],
            ["correlation", "--gamma", "0.5"],
            ["correlation", "--g", "0.01"],
            ["sweep", "--run", "oracle", "--gamma", "0.5"],
            ["modes", "--gamma", "0.5"],
            ["modes", "--g", "0.1"],
            ["modes", "--phi-n", "0.3"],
            ["gap", "--phi-n", "0.3"],
            ["evolve", "--trial", "--g", "0.01"],
            ["evolve", "--trial", "--phi-n", "0.3"],
            ["spectrum", "--trial", "--g", "0.01"],
            ["spectrum", "--trial", "--phi-n", "0.3"],
            ["correlation", "--gamma", "1"],
            ["quasicrystal", "--gamma", "1"],
        ],
    )
    def test_flags_it_would_ignore_exit_one(self, tmp_path, argv):
        # these commands run at gamma = 1 (modes and quasicrystal from its
        # closed forms) and choose their own kick, gap kicks along x and a
        # trial state takes no kick, so these flags would be recorded in
        # summary.json without taking effect; a flag the command does not
        # read is refused even at the value it would have had
        out = str(tmp_path / "run")
        assert main(argv + ["--n", "4", "--h", "0.5", "--out", out]) == 1
        assert not os.path.exists(os.path.join(out, "summary.json"))


class TestSweep:
    """The parallel grid runner is gone (a shell loop over single runs does
    the same): its subcommand, --run and --jobs are usage errors."""

    def test_requires_valid_run(self, tmp_path):
        rc = main(["sweep", "--run", "sweep", "--out", str(tmp_path)])
        assert rc == 1
        rc = main(["sweep", "--out", str(tmp_path)])
        assert rc == 1

    def test_jobs_flag_exits_one(self, tmp_path):
        out = str(tmp_path / "run")
        argv = ["evolve", "--n", "12", "--h", "0.4", "--jobs", "2", "--out", out]
        assert main(argv + FAST) == 1
        assert not os.path.exists(os.path.join(out, "summary.json"))


class TestNumericFailure:
    def test_eigensolver_failure_exits_two(self, tmp_path, monkeypatch):
        def no_convergence(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        out = str(tmp_path / "run")
        rc = main(["spectrum", "--n", "20", "--h", "0.5", "--out", out] + FAST)
        assert rc == 2


    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--h", "0.5", "--g", "1e200"],
            ["spectrum", "--h", "0.5", "--g", "1e300"],
            ["spectrum", "--h", "1e300"],
            ["spectrum", "--h", "1e300", "--gamma", "0.5"],
            ["spectrum", "--h", "0.5", "--gamma", "0.5", "--g", "1e200"],
            ["evolve", "--h", "1e200"],
            ["quasicrystal", "--g", "1e200"],
        ],
    )
    def test_huge_kick_or_field_writes_finite_tables(self, tmp_path, capsys, argv):
        # the kicked ground state's window test squared numbers past 1e154:
        # an OverflowError traceback and exit 1
        out = tmp_path / "run"
        assert main([*argv, "--n", "100", "--out", str(out)] + FAST) == 0
        assert capsys.readouterr().err == ""
        for table in out.glob("*.csv"):
            assert np.all(np.isfinite(read_csv(table)[1])), table.name


class TestImportCost:
    def test_cli_import_leaves_scipy_out(self):
        # scipy's import alone costs more than all of lmglab.cli
        src = os.path.dirname(os.path.dirname(lmglab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, lmglab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestUsageErrors:
    def test_bad_values_exit_one(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["evolve", "--n", "0", "--h", "0.5", "--out", out]) == 1
        assert main(["evolve", "--n", "10", "--h", "-0.5", "--out", out]) == 1
        assert main(["evolve", "--n", "10", "--h", "0.5", "--gamma", "2", "--out", out]) == 1
        assert main(["evolve", "--n", "10,20", "--h", "0.5", "--out", out]) == 1

    @pytest.mark.parametrize("tmax", ["nan", "inf", "-1"])
    def test_bad_tmax_exits_one_without_output(self, tmp_path, tmax):
        out = str(tmp_path / "run")
        args = ["evolve", "--n", "20", "--h", "0.5", "--samples", "16"]
        assert main(args + ["--tmax", tmax, "--out", out]) == 1
        assert not os.path.exists(os.path.join(out, "series.csv"))

    def test_bad_tmax_rejected_by_validation(self):
        for tmax in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError):
                validate_config(argparse.Namespace(**run("evolve", tmax=tmax)))

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evolve", "--n", ","], "--n"),
            (["modes", "--h", ","], "--h"),
            (["oracle", "--n", ",", "--h", ","], "--n"),
            (["quasicrystal", "--n", "20", "--h", ","], "--h"),
            (["quasicrystal", "--n", "20", "--g", ","], "--g"),
        ],
    )
    def test_empty_list_exits_one_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evolve", "--n", "0"], "--n"),
            (["evolve", "--h", "-0.5"], "--h"),
            (["evolve", "--gamma", "2"], "--gamma"),
            (["evolve", "--h", "nan"], "--h"),
            (["evolve", "--phi-n", "inf"], "--phi-n"),
            (["oracle", "--threshold", "-1"], "--threshold"),
            (["correlation", "--n", "6", "--h", "1"], "--h"),
            (["evolve", "--trial", "--g", "0.1"], "--trial"),
            (["evolve", "--n", "2", "--h", "0.5", "--trial"], "--trial"),
            (["evolve", "--n", "10", "--h", "1.2", "--trial"], "--trial"),
            # above h = 1 - 1/N the ground level is the edge M = N/2, with no
            # neighbour above it for the trial state
            (["evolve", "--n", "100", "--h", "0.99999999999", "--trial"], "--trial"),
            (["evolve", "--samples", "8"], "--samples"),
            (["evolve", "--cutoff-k", "-1"], "--cutoff-k"),
            (["evolve", "--gamma", "0.5", "--cutoff-k", "5"], "--cutoff-k"),
            (["spectrum", "--gamma", "0.5", "--cutoff-k", "5"], "--cutoff-k"),
            (["evolve", "--tmax", "-1"], "--tmax"),
            # a subnormal step overflows the periodogram bins; a zero one
            # is no grid
            (["spectrum", "--n", "50", "--h", "0.6", "--samples", "16", "--tmax", "1e-310"],
             "--tmax"),
            (["quasicrystal", "--n", "50", "--samples", "16", "--tmax", "5e-324"], "--tmax"),
            (["modes", "--h", "0.5,0.5"], "--h"),
            (["quasicrystal", "--kappa", "1"], "--kappa"),
            (["gap", "--n", "40", "--h", "0.5", "--g", "1e-4"], "--g"),
            # the oracle checks one point; a grid is a shell loop
            (["oracle", "--n", "4,6", "--h", "0.5"], "--n"),
            (["oracle", "--n", "6", "--h", "0.3,0.5"], "--h"),
        ],
        ids=["n", "h", "gamma", "h-nan", "phi-n", "threshold", "broken-phase-h",
             "trial-g", "trial-n", "trial-h", "trial-edge-h", "samples", "cutoff-k",
             "evolve-cutoff-k-gamma", "spectrum-cutoff-k-gamma", "tmax",
             "tmax-subnormal-step", "tmax-zero-step", "modes-h", "kappa", "gap-g",
             "oracle-n-list", "oracle-h-list"],
    )
    def test_rejection_names_its_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        if flag[2:] in READS[argv[0]].split():
            assert err.startswith("error: ") and flag in err
        else:
            # a flag its subcommand does not read is refused by that parser
            assert f"lmglab {argv[0]}: error: unrecognized arguments: {flag}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--n", "100", "--h", "1e306"],
            ["spectrum", "--n", "100", "--h", "1e308", "--g", "1e308"],
            ["evolve", "--n", "100", "--h", "1e306", "--gamma", "0.5"],
            ["quasicrystal", "--n", "100", "--h", "1e306"],
            ["spectrum", "--n", "100", "--h", "1e250", "--tmax", "1e200"],
            # one spin, but the default scan builds H up to N = 60
            ["gap", "--n", "1", "--h", "7e306"],
        ],
    )
    def test_phases_past_the_float_limit_exit_one(self, tmp_path, capsys, argv):
        # the energies or the Bohr phases E t overflowed: NaN tables with exit 0,
        # or for gap a failed eigensolve with exit 2
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--h", "--g", "--tmax")), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["modes", "correlation"])
    def test_broken_phase_commands_take_a_huge_tmax(self, tmp_path, capsys, command):
        # their frequencies are O(1) at h < 1, so E t stays finite
        out = tmp_path / "run"
        argv = [command, "--n", "100", "--h", "0.5", "--tmax", "1e306", "--out", str(out)]
        assert main(argv + FAST) == 0
        assert capsys.readouterr().err == ""
        for table in out.glob("*.csv"):
            assert np.all(np.isfinite(read_csv(table)[1])), table.name

    def test_gap_scan_size_is_checked_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gap", "--n", "100,3000", "--h", "0.71", "--out", str(out)]) == 1
        assert "gap scan supports N <= 2000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--h", "nan"],
            ["evolve", "--h", "inf"],
            ["evolve", "--g", "nan"],
            ["evolve", "--phi-n", "inf"],
            ["quasicrystal", "--g", "-inf"],
        ],
        # stable ids, so runs of this suite compare case by case across versions
        ids=[f"argv{i}-None" for i in range(5)],
    )
    def test_non_finite_reals_exit_one(self, tmp_path, argv):
        # a nan field crashed the window solve
        out = str(tmp_path / "run")
        assert main(argv + ["--n", "6", "--out", out] + FAST) == 1
        assert not os.path.exists(os.path.join(out, "summary.json"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--n", "6", "--h", "0.5", "--threshold", "-1"],
            ["spectrum", "--n", "50", "--h", "0.6", "--threshold", "-1"] + FAST,
        ],
        ids=["oracle", "spectrum"],
    )
    def test_negative_threshold_exits_one_without_output(self, tmp_path, capsys, argv):
        # neither reads --threshold: the oracle's tolerance and spectrum's
        # peak fraction are cli.ORACLE_TOLERANCE and cli.PEAK_FRACTION
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 1
        assert "error: unrecognized arguments: --threshold -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "correlation", "modes"])
    @pytest.mark.parametrize("h", ["1", "1.2", "0.5,1"])
    def test_broken_phase_commands_reject_h_at_least_one(
        self, tmp_path, capsys, command, h
    ):
        out = tmp_path / "run"
        assert main([command, "--n", "6", "--h", h, "--out", str(out)]) == 1
        assert command in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--h", "0.6", "--g", "1e-4,1e-3"],
            ["spectrum", "--h", "0.6", "--g", "1e-4,1e-3"],
            ["quasicrystal", "--g", "1e-4,1e-3"],
            ["quasicrystal", "--h", "0.3,0.5"],
        ],
        ids=["evolve-g", "spectrum-g", "quasicrystal-g", "quasicrystal-h"],
    )
    def test_extra_values_exit_one_without_output(self, tmp_path, argv):
        # the first value used to run and the others to vanish without a word
        out = tmp_path / "run"
        assert main(argv + ["--n", "40", "--out", str(out)] + FAST) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--n", "20,2001", "--h", "0.5"],
            ["oracle", "--n", "11", "--h", "0.5"],
            ["quasicrystal", "--n", "1"],
            ["evolve", "--n", "2", "--h", "0.5", "--trial"],
            ["evolve", "--n", "10", "--h", "1.2", "--trial"],
        ],
        ids=["gap-n", "oracle-n", "quasicrystal-no-field", "trial-n", "trial-h"],
    )
    def test_command_usage_error_makes_no_out(self, tmp_path, capsys, argv):
        # these are found by the command itself, after validation; --out
        # used to be made before it ran and was left empty
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("h", ["0.5,0.50000000001", "0.5,0.5"])
    def test_modes_h_values_of_one_file_name_exit_one(self, tmp_path, capsys, h):
        # the second waveform overwrote the first, and summary.json listed
        # the file twice
        out = tmp_path / "run"
        assert main(["modes", "--n", "10", "--h", h, "--out", str(out)] + FAST) == 1
        err = capsys.readouterr().err
        assert "modes" in err and "0.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["g", "phi-n"])
    def test_negative_value_in_exponent_form(self, tmp_path, flag):
        # argparse reads only -1 and -.5 as numbers and took -1e-3 for a flag
        out = tmp_path / "run"
        argv = ["evolve", "--n", "10", "--h", "0.5", f"--{flag}", "-1e-3"]
        assert main(argv + ["--out", str(out)] + FAST) == 0
        # without --g the kick is the default 1/N^2
        assert read_json(out / "summary.json")["g"] == {"g": -0.001, "phi-n": 0.01}[flag]

    def test_negative_kick_list_in_exponent_form(self, tmp_path, capsys):
        # joined as --h=-1e-3,0.5, so validation, not argparse, refuses it
        out = tmp_path / "run"
        argv = ["modes", "--n", "20", "--h", "-1e-3,0.5"]
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --h must be >= 0\n"
        assert not out.exists()

    def test_flag_before_a_flag_still_lacks_its_value(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evolve", "--g", "--h", "0.4", "--out", str(out)]) == 1
        assert "argument --g: expected one argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag", UNREAD, ids=[f"{c}--{f}" for c, f in UNREAD]
    )
    def test_unread_flag_exits_one_naming_it(self, tmp_path, capsys, command, flag):
        out = tmp_path / "run"
        argv = [command, "--n", "6", "--h", "0.5", f"--{flag}", *FLAG_VALUES[flag]]
        assert main(argv + ["--out", str(out)]) == 1
        assert f"--{flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_unread_flag_is_reported_by_its_subcommand(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gap", "--n", "10", "--samples", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: lmglab gap [-h] [--n N]")
        assert "lmglab gap: error: unrecognized arguments: --samples 5" in err
        assert not out.exists()

    def test_unknown_flag(self):
        assert main(["evolve", "--bogus", "1"]) == 1

    def test_missing_command(self):
        assert main([]) == 1

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "lmglab" in capsys.readouterr().out


class TestParser:
    def test_flag_keys(self):
        assert tuple(_FLAGS) == (
            "n", "h", "gamma", "g", "phi-n", "tmax", "samples", "kappa",
            "trial", "out",
        )

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["evolve", "--n", "30", "--h", "0.4", "--g", "1e-3", "--phi-n", "0.2",
                 "--tmax", "50", "--samples", "64", "--trial", "--out", "o"],
                dict(n=[30], h=[0.4], g=1e-3, phi_n=0.2, tmax=50.0, samples=64,
                     trial=True, out="o"),
            ),
            (["spectrum", "--n", "100", "--h", "0.5", "--gamma", "0.5"],
             dict(n=[100], h=[0.5], gamma=0.5)),
            (["modes", "--n", "100", "--h", "0.71,0.716"],
             dict(n=[100], h=[0.71, 0.716])),
            (["correlation", "--n", "8", "--h", "0.5", "--samples", "32"],
             dict(n=[8], h=[0.5], samples=32)),
            (["gap", "--n", "100,20,24", "--h", "0.71", "--gamma", "0"],
             dict(n=[100, 20, 24], h=[0.71], gamma=0.0)),
            (["quasicrystal", "--n", "100", "--kappa", "0.4"],
             dict(n=[100], kappa=0.4)),
            (["oracle", "--n", "4,6", "--h", "0.3"],
             dict(n=[4, 6], h=[0.3])),
        ],
    )
    def test_each_subcommand_reads_the_shared_flags(self, argv, expected):
        cfg = vars(build_parser().parse_args(argv))
        assert cfg == run(argv[0], **expected)

    def test_run_is_a_sweep_flag_only(self):
        assert main(["evolve", "--run", "evolve"]) == 1

