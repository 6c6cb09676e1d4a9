"""Rewrite digest.json, the output snapshot that tests/test_snapshot.py checks.

    PYTHONPATH=src python tests/snapshot/refresh.py

runs the 92 benchmark ops of ops.json (the seed-4242 op lists of the
``dynamics``, ``anisotropic`` and ``validation`` workloads, copied once)
with the lmglab on the path, once per OpenBLAS thread count of ``THREADS``,
each in a fresh process with ``OPENBLAS_NUM_THREADS`` set, and records a
digest of every file they write, with the numpy, BLAS, CPU features and C
library it ran on.

A refresh records what the program writes now.  It is never a way to make
a failing snapshot pass: a change that refreshes the digest names in
CHANGES.md every file whose digest changed, and why.  After writing the
digest the script prints each file whose SHA-256 differs from the digest it
replaced, and whether the test's tolerant comparison (``file_mismatches``)
still holds for it.

The digest of a file holds its SHA-256, one hex string where every thread
count wrote the same bytes and otherwise a hex string per count, keyed by
the count as text, and from the run at ``THREADS[0]``:
- for a CSV table, its header, its row count and, per column, the sum, the
  sum of |x|, max|x| and the values at 8 fixed rows, each as ``%.17g``;
- for a JSON file, its parsed value.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from lmglab.cli import main as run_cli

HERE = Path(__file__).resolve().parent
OPS = HERE / "ops.json"
DIGEST = HERE / "digest.json"
SAMPLED_ROWS = 8
RTOL = 1e-12
NOISE_ATOL = 1e-13
# the OpenBLAS thread counts with a SHA-256 of their own: 1 as CI and the
# benchmark's workers pin it, 2 as the digest's two CPUs run unpinned; the
# numbers of the tolerant comparison come from the first
THREADS = (2, 1)


def blas_threads() -> int | None:
    """The threads of the OpenBLAS loaded in this process, asked through its
    own getter; None where there is no such library or getter."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if (get := getattr(lib, name, None)) is not None:
                return int(get())
    return None


def platform_key() -> dict:
    """What decides the last bit of a float result besides lmglab and the
    BLAS thread count: numpy, its BLAS, the SIMD kernels numpy dispatches
    to and the C maths library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1
        features = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": sorted(name for name, on in features.items() if on),
        "libc": " ".join(platform.libc_ver()),
    }


def sampled_rows(rows: int) -> list[int]:
    """The fixed rows whose values a table's digest records."""
    return sorted({round(i * (rows - 1) / (SAMPLED_ROWS - 1)) for i in range(SAMPLED_ROWS)}
                  if rows else set())


def table_digest(text: str) -> dict:
    header, *lines = text.splitlines()
    table = np.array([line.split(",") for line in lines], dtype=np.float64)
    table = table.reshape(len(lines), header.count(",") + 1)
    rows = sampled_rows(len(lines))
    fmt = np.vectorize(lambda x: "%.17g" % x, otypes=[str])
    stats = np.stack([table.sum(axis=0), np.abs(table).sum(axis=0),
                      np.abs(table).max(axis=0, initial=0.0)])
    return {"header": header, "rows": len(lines), "stats": fmt(stats).tolist(),
            "sampled": fmt(table[rows]).tolist()}


def file_digest(path: Path) -> dict:
    data = path.read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".csv":
        entry.update(table_digest(data.decode("utf-8")))
    elif path.suffix == ".json":
        entry["value"] = json.loads(data)
    return entry


def ops() -> dict:
    return json.loads(OPS.read_text(encoding="utf-8"))


def run_ops(out: Path, workload: str) -> list[dict]:
    """Run every op of ``workload`` into its own directory under ``out``;
    the exit code and file digests of each, in op order."""
    result = []
    for i, argv in enumerate(ops()[workload]):
        op_out = out / workload / f"{i:02d}"
        rc = run_cli([*argv, "--out", str(op_out)])
        files = sorted(op_out.iterdir()) if op_out.exists() else []
        result.append({"rc": rc, "files": {path.name: file_digest(path) for path in files}})
    return result


def run_all() -> dict:
    """Every op's exit code and file digests, by workload, run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        return {workload: run_ops(Path(tmp), workload) for workload in ops()}


def run_all_at(threads: int) -> dict:
    """``run_all`` in a fresh process whose OpenBLAS runs ``threads`` threads."""
    code = ("import json, sys\n"
            "from snapshot.refresh import blas_threads, run_all\n"
            f"if blas_threads() != {threads}:\n"
            f"    sys.exit('OpenBLAS did not take OPENBLAS_NUM_THREADS={threads}')\n"
            "json.dump(run_all(), sys.stdout)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(HERE.parent), *sys.path]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def merge_threads(runs: dict) -> dict:
    """One digest of ``run_all``'s results keyed by thread count: the run at
    ``THREADS[0]`` with each file's SHA-256 made one hash where every run
    wrote the same bytes and a hash per thread count where they differ."""
    merged = runs[THREADS[0]]
    for workload, merged_ops in merged.items():
        for i, op in enumerate(merged_ops):
            by_threads = {threads: runs[threads][workload][i] for threads in THREADS}
            if len({(run["rc"], tuple(run["files"])) for run in by_threads.values()}) > 1:
                raise RuntimeError(f"{workload} op {i} exits or names its files "
                                   f"differently by thread count")
            for name, entry in op["files"].items():
                hashes = {str(threads): run["files"][name]["sha256"]
                          for threads, run in by_threads.items()}
                if len(set(hashes.values())) > 1:
                    entry["sha256"] = dict(sorted(hashes.items()))
    return merged


def is_noise(name: str) -> bool:
    return name.endswith("_dev") or name.startswith("worst")


def close(a, b, tol: float) -> bool:
    x, y = float(a), float(b)
    return x == y or (math.isnan(x) and math.isnan(y)) or abs(x - y) <= tol


def table_mismatches(old: dict, new: dict) -> list[str]:
    if (old["header"], old["rows"]) != (new["header"], new["rows"]):
        return [f"header or rows {old['header']!r} x {old['rows']} -> "
                f"{new['header']!r} x {new['rows']}"]
    found = []
    for j, name in enumerate(old["header"].split(",")):
        _, abs_total, peak = (float(row[j]) for row in old["stats"])
        if is_noise(name):
            value_tol, sum_tol = NOISE_ATOL, NOISE_ATOL * old["rows"]
        else:
            value_tol, sum_tol = RTOL * peak, RTOL * abs_total
        tols = (sum_tol, sum_tol, value_tol)  # sum, sum of |x|, max|x|
        pairs = [(a[j], b[j], tol) for a, b, tol in zip(old["stats"], new["stats"], tols)]
        pairs += [(a[j], b[j], value_tol) for a, b in zip(old["sampled"], new["sampled"])]
        if not all(close(*pair) for pair in pairs):
            found.append(f"column {name}")
    return found


def json_mismatches(old, new, key: str = "") -> list[str]:
    if isinstance(old, dict):
        if not isinstance(new, dict) or old.keys() != new.keys():
            return [f"keys of {key or 'the file'}"]
        return [m for k in old for m in json_mismatches(old[k], new[k], k)]
    if isinstance(old, list):
        if not isinstance(new, list) or len(old) != len(new):
            return [f"length of {key}"]
        return [m for a, b in zip(old, new) for m in json_mismatches(a, b, key)]
    if isinstance(old, float) and type(new) in (float, int):
        tol = NOISE_ATOL if is_noise(key) else RTOL * max(1.0, abs(old))
        return [] if close(old, new, tol) else [f"value of {key}"]
    return [] if (type(old), old) == (type(new), new) else [f"value of {key}"]


def file_mismatches(old: dict, new: dict) -> list[str]:
    """How the digest ``new`` of a file differs from ``old`` beyond the
    tolerances, its bytes aside: tables within 1e-12 of a column's scale,
    JSON numbers within 1e-12 of their magnitude (at least 1), the oracle's
    deviations (``*_dev``, ``worst*``) within 1e-13 absolute."""
    if "header" in old:
        return table_mismatches(old, new)
    if "value" in old:
        return json_mismatches(old["value"], new["value"])
    return []


def report(old: dict, new: dict) -> None:
    """Print each file whose SHA-256 differs between two digests and whether
    ``file_mismatches`` finds it within the tolerances."""
    if old["platform"] != new["platform"]:
        print("the platform changed: bytes may differ in the last bits")
    changed = 0
    for workload, new_ops in new["ops"].items():
        old_ops = old["ops"].get(workload, [])
        if len(old_ops) != len(new_ops):
            print(f"{workload}: {len(old_ops)} -> {len(new_ops)} ops")
        for i, (was, now) in enumerate(zip(old_ops, new_ops)):
            if was["rc"] != now["rc"]:
                print(f"{workload} op {i}: exit {was['rc']} -> {now['rc']}")
            for name in sorted(was["files"].keys() | now["files"].keys()):
                a, b = was["files"].get(name), now["files"].get(name)
                if a is None or b is None:
                    print(f"{workload} op {i} {name}: {'new' if a is None else 'gone'}")
                elif a["sha256"] != b["sha256"]:
                    changed += 1
                    problems = file_mismatches(a, b)
                    verdict = "fails: " + ", ".join(problems) if problems else "holds"
                    print(f"{workload} op {i} {name}: bytes changed, tolerant comparison {verdict}")
    print(f"{changed} files changed bytes")


def main() -> None:
    old = json.loads(DIGEST.read_text(encoding="utf-8")) if DIGEST.exists() else None
    digest = {"platform": platform_key(),
              "ops": merge_threads({threads: run_all_at(threads) for threads in THREADS})}
    DIGEST.write_text(json.dumps(digest, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST} ({DIGEST.stat().st_size} bytes)", file=sys.stderr)
    if old is not None:
        report(old, digest)


if __name__ == "__main__":
    main()
