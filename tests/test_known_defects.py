"""The ledger of known defects: one strict expected failure per number that
lmglab reports wrong today without a flag.

Each test asserts the right answer, so it fails at this tree and the suite
reports it as xfailed.  A change that mends a defect makes its test pass,
which strict mode turns into a failure; that change removes the mark, and
the test stays as the defect's regression check.  The ROADMAP item named in
each reason holds the plan for the mend.  The mpmath reference that an entry
asserts against is itself checked where its value is known.
"""

import json

import mpmath
import pytest

from lmglab.cli import main
from lmglab.model import LmgParams
from lmglab.spectra import CRESCENT, GENERIC, ROUND
from lmglab.ssb import gamma0_gap_scan, localize_ground_state


def known_defect(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def assert_m_n(state, truth):
    """m_n within 0.01 of the truth, unless the run flags it unresolved."""
    if getattr(state, "m_n_resolved", True):
        assert abs(state.m_n - truth) <= 0.01, state.m_n


def run_summary(tmp_path, *argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))


def gamma0_splitting(N, h, dps=60):
    """Lowest-pair splitting of H_N = -Sx^2/N^2 - h Sz/N, the per-spin gamma = 0
    Hamiltonian, from its even-m and odd-m parity blocks formed from exact
    entries and solved at ``dps`` digits (``h`` a decimal string)."""
    with mpmath.workdps(dps):
        S = mpmath.mpf(N) / 2
        casimir = S * (S + 1)
        ms = [-S + j for j in range(N + 1)]
        grounds = []
        for block in (ms[0::2], ms[1::2]):
            A = mpmath.zeros(len(block), len(block))
            for i, m in enumerate(block):
                A[i, i] = (-(casimir - m * m) / (2 * N) - mpmath.mpf(h) * m) / N
                if i + 1 < len(block):
                    # <M+2|Sx^2|M> = a_(M+1) a_(M+2) / 4, a_M = sqrt(S(S+1) - M(M-1))
                    A[i, i + 1] = A[i + 1, i] = -mpmath.sqrt(
                        (casimir - m * (m + 1)) * (casimir - (m + 1) * (m + 2))) / (4 * N * N)
            grounds.append(min(mpmath.eigsy(A, eigvals_only=True)))
        return float(abs(grounds[0] - grounds[1]))


def test_gamma0_splitting_reference():
    # ROADMAP item 6's table lists N times the splitting at N = 61; at
    # N = 20 double precision resolves the splitting, and the scan agrees
    assert abs(61 * gamma0_splitting(61, "0.3") - 2.4106e-24) <= 1e-4 * 2.4106e-24
    [(_, scanned)] = gamma0_gap_scan([20], 0.3)
    reference = gamma0_splitting(20, "0.3")
    assert abs(scanned - reference) <= 1e-6 * reference


@known_defect("ROADMAP items 20 and 3: the gamma = 0.5 kicked m_n reads 1.8e-14, "
              "truth 0.750")
def test_anisotropic_kick_below_the_splitting_localizes():
    # g lies far below eps ||H||, yet above the splitting, which localizes
    assert_m_n(localize_ground_state(LmgParams(N=60, h=0.6, gamma=0.5), g=7.47e-17), 0.750)


@known_defect("ROADMAP item 12: the gamma = 1 crescent m_n at g N^2 = 1e-14 reads 0, "
              "limit about 0.40")
def test_crescent_kick_localizes():
    # Nh = 601 is odd against even N: a degenerate ground pair
    assert_m_n(localize_ground_state(LmgParams(N=1000, h=0.601), g=1e-20), 0.40)


def test_anisotropic_summary_has_no_isotropic_mode(tmp_path):
    # mended (ROADMAP item 16): it reported the isotropic mode 'round'
    summary = run_summary(tmp_path, "spectrum", "--n", "200", "--h", "0.63",
                          "--gamma", "0.5", "--samples", "256")
    assert summary.get("mode") not in {ROUND, CRESCENT, GENERIC}


@known_defect("ROADMAP item 21: a gamma < 1 series.csv writes the isotropic "
              "K-mode sum as mx_analytic, 1.12 from mx_exact")
def test_anisotropic_series_has_no_isotropic_analytic_columns(tmp_path):
    # at gamma = 1 the same run's K = 3 sum lies 7.4e-4 from the exact series
    run_summary(tmp_path, "evolve", "--n", "100", "--h", "0.6", "--gamma", "0.5",
                "--samples", "256")
    header, *rows = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()
    columns = dict(zip(header.split(","), zip(*(map(float, row.split(",")) for row in rows))))
    if "mx_analytic" in columns:  # item 21 may drop the column instead
        exact, analytic = columns["mx_exact"], columns["mx_analytic"]
        deviation = max(abs(a - b) for a, b in zip(analytic, exact))
        assert deviation <= 0.01, deviation


def test_critical_gap_writes_no_exponential_rate(tmp_path):
    # mended (ROADMAP item 13): it fitted an exponential rate 0.0352 next to
    # wkb_rate 0.0
    summary = run_summary(tmp_path, "gap", "--h", "1")
    assert summary.get("gamma0_fitted_rate") is None


@known_defect("ROADMAP item 6: gap --h 0.3 writes the rounding floor 5.55e-17 as "
              "the N = 60 gamma = 0 splitting, truth 9.9966e-26")
def test_gamma0_gap_below_the_rounding_floor(tmp_path):
    assert main(["gap", "--h", "0.3", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "gap_gamma0.csv").read_text(encoding="utf-8").splitlines()[1:]
    splitting = {int(n): float(value) for n, value, _ in (row.split(",") for row in rows)}
    reference = gamma0_splitting(60, "0.3")
    assert abs(splitting[60] - reference) <= 1e-12 * reference, splitting[60]
