"""lmglab benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The op list is fixed by the workload,
the seed and --seconds (see workloads.py); the program under test only ever
sees the generated CLI arguments.  Set-up is timed in SETUP_SAMPLES fresh
processes, from spawn until ``import lmglab`` and one warm-up op are done;
each process then runs a speed probe (probe.py), and the median of the
set-up times, each divided by its process's slowness, is reported.  The last
of those processes then runs the op list.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Before the final JSON line the run prints one ``name value unit`` line per
metric plus the run's metadata; the whole result, per-op times included, is
also written to .perfbench_out/.  Exit code 0 means the run completed
(``correct`` says whether every op passed its checks); any other code means
no result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
# the whole run, set-up included, must end well inside 180 s
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment with one BLAS thread (see README.md)."""
    env = dict(os.environ)
    env.update({key: "1" for key in BLAS_ENV})
    return env


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run one worker; returns (seconds until READY, the lines after it)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before a worker could start")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"worker exited with code {code}")
    return setup, rest


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a hash
    of the lmglab sources, so results from a plain checkout stay traceable."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lmglab" / "__init__.py").is_file():
        print(f"perfbench: no lmglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setup, lines = spawn([*common, "--setup-only"], env, deadline)
            setups.append((setup, json.loads(lines[-1])["slowness"]))
        setup, lines = spawn(common, env, deadline)
        worker = json.loads(lines[-1])
        setups.append((setup, worker["info"]["setup_slowness"]))
    except (RunError, IndexError, KeyError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    metrics = dict(worker["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(t / slow for t, slow in setups), "s")
    info = worker["info"]
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, setup_samples=[t for t, _ in setups],
                setup_slowness=[slow for _, slow in setups], **source_identity())
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"metrics": metrics, "info": info, "ops": worker["ops"]}, fh, indent=1)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"error_rate {info['error_rate']:.6g} ratio "
              f"({worker['failed']} of {worker['attempted']} ops failed their checks)")
        print(f"op_s.p50 {info['op_s.p50']:.6g} s (median of {info['op_samples']} ops)")
        print(f"op_s.tail {info['op_s.tail']:.6g} s (p{info['tail_percentile']} of "
              f"{info['op_samples']} ops; op_s.tail_mean is the mean of the "
              f"{info['tail_samples_beyond']} beyond it)")
        print(f"setup_s is the median of {len(setups)} set-ups, each divided by the "
              f"slowness its process measured ({min(info['setup_slowness']):.3g} to "
              f"{max(info['setup_slowness']):.3g})")
        print(f"wall_s and op_s.* divide each op's time by the slowness around it "
              f"(median {info['slowness']:.4g}; measured wall_s {info['wall_s.measured']:.6g} s)")
    print("meta " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
