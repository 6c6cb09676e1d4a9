"""One benchmark process: import lmglab, warm up, run a workload's op list.

Started by run.py, never by hand.  The process prints ``READY`` once
``import lmglab`` and one untimed warm-up op are done (run.py times set-up
up to that line) and then runs the speed probe (probe.py) a few times.
With ``--setup-only`` it prints the slowness the probe measured and stops;
otherwise it runs the op list as a single closed-loop client and prints
one JSON line with its results.  ``lmglab.cli.main`` is called in process;
before each op the free heap is released and the probe runs, and each op
writes into a fresh ``--out`` directory under ``.perfbench_tmp/`` in the
checkout, is checked against the references in checks.py outside the timed
window, and is then deleted.

With ``--trace 1`` the op list is run twice, untraced and then traced, and
the per-layer metrics come from the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads
from probe import Probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
# probe samples taken right after set-up in every process
SETUP_PROBES = 5


def import_cli():
    """lmglab.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import lmglab.cli

    if not Path(lmglab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"lmglab imported from {lmglab.cli.__file__}, not {SRC}")
    return lmglab.cli


def run_op(cli, argv, out: Path) -> int:
    try:
        return cli.main([*argv, "--out", str(out)])
    except Exception:  # an op that crashes is a failed op, not a failed run
        traceback.print_exc()
        return -1


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    return lambda: trim(0)


# Hands the heap that earlier ops freed back to the system before each op,
# as a fresh CLI process would start without it.  Without it the peak RSS
# of a run depended on which ops happened to run before the largest one
# (374-428 MB over five dynamics seeds).
release_free_heap = _malloc_trim()


def run_pass(cli, ops, scratch: Path, tracer=None, probe=None) -> list[dict]:
    """Every op once, in order.  A probe, if given, runs before each op and
    after the last, and each record gets the slowness around its op (see
    slowness_around)."""
    records = []
    for i, op in enumerate(ops):
        release_free_heap()
        if probe is not None:
            probe()
        out = scratch / f"op{i}"
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        rc = run_op(cli, op.argv, out)
        seconds = time.perf_counter() - start
        errors = checks.check_op(op, str(out), rc)
        written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        if errors:
            print(f"perfbench: FAILED {op.describe()}: {'; '.join(errors)}", file=sys.stderr)
        records.append({"argv": list(op.argv), "seconds": seconds, "errors": errors,
                        "bytes": written, "rss_mb": peak_rss_mb()})
    if probe is not None:
        probe()
        first = len(probe.samples[probe.parts[0]]) - len(records) - 1
        local = [probe.slowness(first + i, first + i + 2) for i in range(len(records))]
        seconds = [r["seconds"] for r in records]
        for i, record in enumerate(records):
            record["slowness"] = slowness_around(i, seconds, local)
    return records


def slowness_around(i: int, seconds: list[float], local: list[float]) -> float:
    """The median of the probe slowness next to each op (``local``: the
    probes just before and after it) over the ops around op i, widened one
    op on each side at a time until they took three times as long as op i.

    The probes next to a long op miss changes of speed during it; the ops
    around it sample the same stretch of time more often.
    """
    lo = hi = i
    while sum(seconds[lo:hi + 1]) < 3.0 * seconds[i] and (lo > 0 or hi < len(seconds) - 1):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(seconds) - 1)
    return statistics.median(local[lo:hi + 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it
    (floored at the median for runs too short to have one)."""
    return max(50, math.floor(100.0 - 1000.0 / n)) if n > 0 else 50


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """Gated metrics, and the plain median and tail percentile for the record.

    Each op time is divided by the slowness the probe measured around it
    (probe.py), so the gated times are seconds at the probe's reference
    speed; the measured ones are kept in the info as ``<name>.measured``.

    The median and the tail percentile of a few dozen ops jump whenever the
    ops next to them are far apart in cost, so the gated centre is the
    interquartile mean and the gated tail the mean of the ops beyond the
    tail percentile (see README.md).
    """
    times = np.sort([r["seconds"] / r.get("slowness", 1.0) for r in records])
    measured = np.sort([r["seconds"] for r in records])
    n = len(times)
    q = tail_percentile(n)
    tail = float(np.percentile(times, q))
    beyond = times[times > tail]
    failed = sum(1 for r in records if r["errors"])
    metrics = {
        "wall_s": (float(times.sum()), "s"),
        "op_s.iqm": (float(times[n // 4: n - n // 4].mean()), "s"),
        "op_s.tail_mean": (float(beyond.mean()) if beyond.size else tail, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": (1.0 - failed / n, "ratio"),
    }
    info = {"error_rate": failed / n, "op_samples": n, "op_s.p50": float(np.median(times)),
            "op_s.tail": tail, "tail_percentile": q, "tail_samples_beyond": int(beyond.size),
            "wall_s.measured": float(measured.sum()),
            "op_s.iqm.measured": float(measured[n // 4: n - n // 4].mean()),
            "slowness": float(np.median([r.get("slowness", 1.0) for r in records]))}
    return metrics, info


def per_layer(ops, plain: list[dict], traced: list[dict], tracer, batches: int) -> tuple[dict, dict]:
    values, absent = tracing.layer_metrics(
        tracer, {i: op.command for i, op in enumerate(ops)}, batches)
    traced_s = sum(r["seconds"] for r in traced) - tracer.check_seconds()
    values["cli.bytes_written"] = sum(r["bytes"] for r in traced) / batches
    values["trace.overhead_ratio"] = traced_s / sum(r["seconds"] for r in plain)
    values["src_lines"] = sum(len(p.read_bytes().splitlines())
                              for p in sorted((SRC / "lmglab").rglob("*.py")))
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    metrics = {name: (values[name], units[name]) for name in units}
    info = {"absent": absent, "wrapped_missing": tracer.missing, "spans": len(tracer.spans)}
    return metrics, info


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        backend = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        backend = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": backend, "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    scratch = TMP / str(os.getpid())
    try:
        # lmglab's own prints must not interleave with the protocol lines
        with contextlib.redirect_stdout(sys.stderr):
            cli = import_cli()
            if run_op(cli, workloads.WARMUP[args.workload], scratch / "warmup") != 0:
                print("perfbench: warm-up op failed", file=sys.stderr)
                return 2
        print("READY", file=protocol, flush=True)
        # the machine's speed right after set-up, to scale the set-up time
        setup_probe = Probe(*workloads.SETUP_PROBE)
        for _ in range(SETUP_PROBES):
            setup_probe()
        if args.setup_only:
            print(json.dumps({"slowness": setup_probe.slowness()}), file=protocol, flush=True)
            return 0

        with contextlib.redirect_stdout(sys.stderr):
            batches = workloads.batches_for(args.workload, args.seconds)
            if args.trace:
                batches = max(1, batches // 2)
            ops = workloads.make_ops(args.workload, args.seed, batches)
            probe = Probe(*workloads.PROBES[args.workload])
            plain = run_pass(cli, ops, scratch, probe=probe)
            records = plain
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run_pass(cli, ops, scratch, tracer)
                finally:
                    tracer.uninstall()
                records = plain + traced
                metrics, info = per_layer(ops, plain, traced, tracer, batches)
                OUT.mkdir(exist_ok=True)
                with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent", "op"],
                               "spans": tracer.spans,
                               "ops": [op.describe() for op in ops]}, fh)
            else:
                metrics, info = end_to_end(plain)
            info.update(batches=batches, ops=len(ops), setup_slowness=setup_probe.slowness(),
                        probe_s=probe.medians(), probe_samples=len(probe.samples[probe.parts[0]]),
                        environment=environment())
        result = {
            "attempted": len(records),
            "failed": sum(1 for r in records if r["errors"]),
            "metrics": metrics,
            "info": info,
            "ops": [{k: r[k] for k in ("argv", "seconds", "slowness", "rss_mb", "errors") if k in r}
                    for r in records],
        }
        print(json.dumps(result), file=protocol, flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
