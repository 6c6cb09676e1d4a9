"""The output snapshot: the 92 benchmark ops of tests/snapshot/ops.json write
what tests/snapshot/digest.json recorded.

Every op reruns in process.  Its exit code, its file names, each table's
header and row count and each JSON file's keys must match exactly.  The
numbers must match within 1e-12 of their scale: a table column's max|x|
for its values and max|x|, its sum of |x| for its two sums, a JSON
number's own magnitude (at least 1).  The oracle's deviation columns and
keys (``*_dev``, ``worst*``) are rounding noise, within 1e-13 absolute.
Where the digest was made on this platform (``platform_key``), every file
must also match byte for byte, through its SHA-256.

``tests/snapshot/refresh.py`` rewrites the digest; a refresh is never a way
to make this test pass.
"""

import functools
import json

import pytest

from snapshot.refresh import DIGEST, file_mismatches, platform_key, run_ops


@functools.cache
def recorded() -> dict:
    return json.loads(DIGEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["dynamics", "anisotropic", "validation"])
def test_outputs_match_the_snapshot(tmp_path, workload):
    byte_for_byte = recorded()["platform"] == platform_key()
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
            if byte_for_byte and entry["sha256"] != now["sha256"]:
                problems.append("bytes")
            found += [f"{where} {name}: {problem}" for problem in problems]
    assert not found, "\n".join(found[:40])
