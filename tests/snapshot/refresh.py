"""Rewrite digest.json, the output snapshot that tests/test_snapshot.py checks.

    PYTHONPATH=src python tests/snapshot/refresh.py

runs the 92 benchmark ops of ops.json (the seed-4242 op lists of the
``dynamics``, ``anisotropic`` and ``validation`` workloads, copied once) in
process with the lmglab on the path, and records a digest of every file
they write, with the numpy, BLAS, BLAS threads, CPU features and C library
it ran on.

A refresh records what the program writes now.  It is never a way to make
a failing snapshot pass: a change that refreshes the digest names in
CHANGES.md every file whose digest changed, and why.

The digest of a file holds its SHA-256, and:
- for a CSV table, its header, its row count and, per column, the sum, the
  sum of |x|, max|x| and the values at 8 fixed rows, each as ``%.17g``;
- for a JSON file, its parsed value.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from lmglab.cli import main as run_cli

HERE = Path(__file__).resolve().parent
OPS = HERE / "ops.json"
DIGEST = HERE / "digest.json"
SAMPLED_ROWS = 8


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
    """What decides the last bit of a float result besides lmglab: numpy,
    its BLAS and the threads it splits a product over, the SIMD kernels
    numpy dispatches to and the C maths library."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1
        features = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
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


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digest = {"platform": platform_key(),
                  "ops": {workload: run_ops(Path(tmp), workload) for workload in ops()}}
    DIGEST.write_text(json.dumps(digest, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST} ({DIGEST.stat().st_size} bytes)", file=sys.stderr)


if __name__ == "__main__":
    main()
