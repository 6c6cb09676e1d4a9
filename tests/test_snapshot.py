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
import math

import pytest

from snapshot.refresh import DIGEST, platform_key, run_ops

RTOL = 1e-12
NOISE_ATOL = 1e-13


@functools.cache
def recorded() -> dict:
    return json.loads(DIGEST.read_text(encoding="utf-8"))


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
            if "header" in entry:
                problems = table_mismatches(entry, now)
            elif "value" in entry:
                problems = json_mismatches(entry["value"], now["value"])
            else:
                problems = []
            if byte_for_byte and entry["sha256"] != now["sha256"]:
                problems.append("bytes")
            found += [f"{where} {name}: {problem}" for problem in problems]
    assert not found, "\n".join(found[:40])
