"""Print where the benchmark ops raise the process's peak resident memory.

    PYTHONPATH=src python tests/snapshot/memory.py [--workload validation]

replays the ops of ops.json in process, one workload or all in order, and
hands the free heap back to the system (glibc's ``malloc_trim(0)``) before
each op, as the benchmark's worker does.  A profiler checks ``ru_maxrss``
at every Python and C call and return; each rise is printed with its op
and with the innermost lmglab function on the stack when it was seen,
resolved to one of ``FUNCTIONS`` where one of them is on it.  The peak of
a benchmark process is the last line's.  A change that claims or weighs a
memory gain cites this measured traffic, not a guess at which arrays are
resident.  It is a tool, not a test: the numbers depend on the machine and
the C library.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import io
import json
import resource
import sys
import tempfile

from traffic import OPS

# the lmglab functions a rise is named after when one of them is running
FUNCTIONS = ("csv_pieces", "_tables", "correlation_fN", "full_space_correlation",
             "sector_vs_full_checks", "localize_ground_state", "eigensystem")


def release_free_heap():
    """glibc's malloc_trim(0), or nothing where the C library has none."""
    with contextlib.suppress(AttributeError, OSError):
        ctypes.CDLL(None).malloc_trim(ctypes.c_size_t(0))


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def where(frame, package: str) -> str:
    """The innermost of ``FUNCTIONS`` on the stack from ``frame`` out, or
    else the innermost lmglab function, or else "-"."""
    innermost = None
    while frame is not None:
        code = frame.f_code
        if code.co_filename.startswith(package):
            if code.co_name in FUNCTIONS:
                return code.co_qualname
            innermost = innermost or code.co_qualname
        frame = frame.f_back
    return innermost or "-"


def replay(ops: dict, package: str) -> list[tuple]:
    """Run the ops under a profiler; each rise of ru_maxrss as (workload, op
    index, argv, kB before, kB after, function)."""
    from lmglab.cli import main

    rises, seen, current = [], [maxrss_kb()], [None]

    def on_event(frame, event, arg):
        now = maxrss_kb()
        if now > seen[0]:
            rises.append((*current[0], seen[0], now, where(frame, package)))
            seen[0] = now

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for workload, argvs in ops.items():
            for i, argv in enumerate(argvs):
                release_free_heap()
                current[0] = (workload, i, argv)
                sys.setprofile(on_event)
                try:
                    main([*argv, "--out", f"{tmp}/{workload}/{i:02d}"])
                finally:
                    sys.setprofile(None)
                on_event(None, "return", None)
    return rises


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="replay only this workload's ops")
    args = parser.parse_args()
    ops = json.loads(OPS.read_text(encoding="utf-8"))
    if args.workload is not None:
        ops = {args.workload: ops[args.workload]}
    importlib.import_module("lmglab.cli")
    package = importlib.util.find_spec("lmglab").submodule_search_locations[0]
    start = maxrss_kb()
    rises = replay(ops, package)
    print(f"ru_maxrss after importing lmglab: {start / 1024:.3f} MB")
    for workload, i, argv, before, after, function in rises:
        print(f"{workload} op {i:02d} {' '.join(argv)}: +{after - before} kB "
              f"to {after / 1024:.3f} MB in {function}")
    print(f"peak: {max([start] + [r[4] for r in rises]) / 1024:.3f} MB")


if __name__ == "__main__":
    main()
