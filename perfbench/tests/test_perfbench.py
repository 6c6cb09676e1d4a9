"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cheap(op) -> bool:
    p = op.params
    if op.command == "oracle":
        return p["N"] <= 6
    if op.command == "gap":
        return len(p["Ns"]) <= 4
    return p["N"] <= 80 and p.get("samples", 4096) == 4096


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = [op.argv for op in workloads.make_ops(workload, 7, 2)]
    again = [op.argv for op in workloads.make_ops(workload, 7, 2)]
    other = [op.argv for op in workloads.make_ops(workload, 8, 2)]
    assert first == again
    assert first != other
    assert len(first) == len(other)


def test_dynamics_composition():
    ops = workloads.make_ops("dynamics", 5, 3)
    counts = {}
    for op in ops:
        counts[op.command] = counts.get(op.command, 0) + 1
    assert counts == {"spectrum": 30, "evolve": 12, "correlation": 6,
                      "quasicrystal": 6, "modes": 6}
    assert sum(op.params["samples"] == 16384 for op in ops) == 15
    assert sum(op.params.get("trial", False) for op in ops) == 3
    assert all(50 <= op.params["N"] <= 500 for op in ops)
    kicked = [op for op in ops if op.command in ("spectrum", "evolve")]
    nh = [op.params["N"] * op.params["h"] for op in kicked]
    integral = sum(abs(x - round(x)) < 1e-9 for x in nh)
    assert 0.3 * len(kicked) <= integral <= 0.7 * len(kicked)


def test_validation_covers_every_small_n():
    ops = workloads.make_ops("validation", 5, 1)
    assert sorted((op.command, op.params["N"]) for op in ops) == sorted(
        (cmd, n) for cmd in ("oracle", "correlation") for n in range(4, 11))


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (21, 36, 42, 56, 60, 100, 1000):
        q = worker.tail_percentile(n)
        assert n * (100 - q) >= 1000
        assert n * (100 - q - 1) < 1000
    assert worker.tail_percentile(20) == 50


def test_benchmark_json_names_and_units():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_smoke_run_traced(tmp_path):
    spec = _spec()
    cli = worker.import_cli()
    ops = [op for w in workloads.WORKLOADS for op in workloads.make_ops(w, 3, 1) if _cheap(op)]
    assert {op.command for op in ops} >= {"spectrum", "evolve", "gap", "oracle", "correlation"}
    plain = worker.run_pass(cli, ops, tmp_path)
    assert [r["errors"] for r in plain] == [[]] * len(ops)

    original = cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_pass(cli, ops, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert not any(r["errors"] for r in traced)
    assert tracer.missing == []

    layers, info = worker.per_layer(ops, plain, traced, tracer, 1)
    assert info["absent"] == []
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    for name, (value, unit) in layers.items():
        assert math.isfinite(value) and UNIT.fullmatch(unit), name
    assert layers["tridiag.eig_calls"][0] > 0
    assert layers["tridiag.residual_max"][0] < 1e-12
    assert layers["oracle.max_dev"][0] < checks.ORACLE_TOL
    assert layers["cli.self_s"][0] > 0

    e2e, extra = worker.end_to_end(plain)
    assert set(e2e) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    assert e2e["success_rate"][0] == 1.0 and extra["error_rate"] == 0.0
    assert all(value > 0 for value, _ in e2e.values())


def test_times_are_divided_by_the_probe_slowness():
    probe = Probe(("py", "vec", "eigh", "matvec"))
    for _ in range(3):
        probe()
    assert all(len(times) == 3 for times in probe.samples.values())
    assert set(workloads.PROBES) == set(workloads.WORKLOADS)
    steeper = Probe(("py", "vec", "eigh", "matvec"), 2.0)
    steeper.samples = probe.samples
    assert steeper.slowness() == pytest.approx(probe.slowness() ** 2)
    assert 0.0 < probe.slowness() < 100.0
    assert probe.slowness(1, 3) > 0.0
    records = [{"seconds": s, "errors": []} for s in (1.0, 2.0, 3.0, 4.0)]
    plain, _ = worker.end_to_end(records)
    slow, info = worker.end_to_end([{**r, "slowness": 2.0} for r in records])
    for name in ("wall_s", "op_s.iqm", "op_s.tail_mean"):
        assert slow[name][0] == pytest.approx(plain[name][0] / 2.0)
    assert info["wall_s.measured"] == pytest.approx(plain["wall_s"][0]) == 10.0
    assert info["slowness"] == 2.0


def test_slowness_around_a_long_op_spans_its_neighbours():
    seconds = [1.0, 1.0, 6.0, 1.0, 1.0, 1.0, 1.0]
    local = [1.0, 1.1, 2.0, 1.2, 1.3, 1.4, 1.5]
    # op 2 took 6 s, longer than all the others together, so its window
    # grows to the whole list, whose median is 1.3
    assert worker.slowness_around(2, seconds, local) == 1.3
    # a short op takes its two neighbours
    assert worker.slowness_around(5, seconds, local) == 1.4
    assert worker.slowness_around(0, [1.0], [0.9]) == 0.9


def test_anisotropic_spectrum_solves_three_times(tmp_path):
    cli = worker.import_cli()
    op = workloads._kicked_op("spectrum", 40, 0.55, 0.5, None, 0.0, 4096)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = worker.run_pass(cli, [op], tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert records[0]["errors"] == []
    layers, _ = tracing.layer_metrics(tracer, {0: "spectrum"}, 1)
    assert layers["tridiag.eig_calls_per_spectrum_op"] == 3
    assert layers["evolve.observable_series_dense_share"] == 1.0


def test_missing_function_is_reported_absent(monkeypatch):
    cli = worker.import_cli()
    import lmglab.ssb

    monkeypatch.delattr(lmglab.ssb, "gamma0_gap_scan")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "ssb.gamma0_gap_scan" in tracer.missing
    _, absent = tracing.layer_metrics(tracer, {}, 1)
    assert absent == ["ssb.gap_scan_s"]
    assert cli.main.__module__ == "lmglab.cli"


def test_checks_catch_a_wrong_series(tmp_path):
    cli = worker.import_cli()
    op = workloads._kicked_op("evolve", 30, 0.61, 1.0, 1e-4, 0.0, 4096)
    out = tmp_path / "op"
    assert worker.run_op(cli, op.argv, out) == 0
    assert checks.check_op(op, str(out), 0) == []
    series = out / "series.csv"
    lines = series.read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) + 1e-5)
    lines[-1] = ",".join(row)
    series.write_text("\n".join(lines) + "\n")
    assert any("mx_exact" in e for e in checks.check_op(op, str(out), 0))
    assert checks.check_op(op, str(out), 2) == ["exit code 2"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dynamics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
