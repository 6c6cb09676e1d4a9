"""The output snapshot: the 92 benchmark ops of tests/snapshot/ops.json write
what tests/snapshot/digest.json recorded.

Every op reruns in process.  Its exit code, its file names, each table's
header and row count and each JSON file's keys must match exactly.  The
numbers must match within 1e-12 of their scale: a table column's max|x|
for its values and max|x|, its sum of |x| for its two sums, a JSON
number's own magnitude (at least 1).  The oracle's deviation columns and
keys (``*_dev``, ``worst*``) are rounding noise, within 1e-13 absolute.
Where the digest was made on this platform (``platform_key``) and OpenBLAS
runs a thread count the digest recorded (``THREADS``), every file must also
match byte for byte, through its SHA-256 at that thread count.

``tests/snapshot/refresh.py`` rewrites the digest; a refresh is never a way
to make this test pass.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

from snapshot.refresh import (
    DIGEST,
    THREADS,
    blas_threads,
    file_mismatches,
    platform_key,
    run_ops,
)


@functools.cache
def recorded() -> dict:
    return json.loads(DIGEST.read_text(encoding="utf-8"))


def byte_check_live() -> bool:
    """Whether the SHA-256s are compared here: on the digest's platform, at
    a thread count the digest recorded."""
    return recorded()["platform"] == platform_key() and blas_threads() in THREADS


def recorded_sha256(entry: dict, threads: int) -> str:
    """A file's recorded SHA-256 at ``threads`` OpenBLAS threads."""
    hashes = entry["sha256"]
    return hashes if isinstance(hashes, str) else hashes[str(threads)]


@pytest.mark.parametrize("workload", ["dynamics", "anisotropic", "validation"])
def test_outputs_match_the_snapshot(tmp_path, workload):
    threads, byte_for_byte = blas_threads(), byte_check_live()
    ops, ran = recorded()["ops"][workload], run_ops(tmp_path, workload)
    assert len(ran) == len(ops), "ops.json and digest.json list different ops"
    found = []
    for i, (old, new) in enumerate(zip(ops, ran)):
        where = f"{workload} op {i}"
        if old["rc"] != new["rc"] or old["files"].keys() != new["files"].keys():
            found.append(f"{where}: exit {old['rc']} -> {new['rc']}, files "
                         f"{sorted(old['files'])} -> {sorted(new['files'])}")
            continue
        for name, entry in old["files"].items():
            now = new["files"][name]
            problems = file_mismatches(entry, now)
            if byte_for_byte and recorded_sha256(entry, threads) != now["sha256"]:
                problems.append("bytes")
            found += [f"{where} {name}: {problem}" for problem in problems]
    assert not found, "\n".join(found[:40])


@pytest.mark.parametrize("threads", THREADS)
def test_byte_check_is_live_at_each_recorded_thread_count(threads):
    # under OPENBLAS_NUM_THREADS=1, as CI sets it, and 2, as this platform
    # runs unpinned
    if recorded()["platform"] != platform_key():
        pytest.skip("the digest was made on another platform")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(sys.path))
    code = "from test_snapshot import byte_check_live; print(byte_check_live())"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout == "True\n"
