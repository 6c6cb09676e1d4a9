"""How fast the machine runs right now, gauged by fixed work outside lmglab.

The CPUs the benchmark gets are shared with other tenants, and their speed
drifts by up to 1.8x within minutes: long enough that a whole run can sit in
a slow or a fast stretch.  A ``Probe`` is timed before every op and after
the last.  It is made of fixed parts of the kinds of work the timed code
spends its time on, because the drift slows kinds of work unequally:

* ``py``: a pure-Python loop (the interpreter: lmglab's tridiagonal
  sweeps, CLI formatting, imports);
* ``vec``: a vectorized numpy expression on preallocated arrays;
* ``eigh``: a dense symmetric eigensolve of order 240 (LAPACK);
* ``matvec``: products of a dense matrix of order 1024 with a vector
  (memory-bound BLAS, as in the 2^10-dimensional oracle).

The slowness next to an op is the geometric mean over the probe's parts of
their mean time in the probes just before and just after the op, each
divided by a fixed reference time, raised to the probe's exponent: how much
faster than the probe the timed work slows down (in the log) when the
machine does.  worker.slowness_around turns it into the op's slowness, and
the gated times are the measured op times divided by their op's slowness:
seconds at the reference speed.  See README.md for which parts and exponent
each workload uses and how well they track the drift.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median seconds of each part on the machine the benchmark was tuned on
# (2-CPU x86-64 Xeon sandbox, Python 3.11, numpy 2.4, one OpenBLAS thread);
# any fixed value would do, since only ratios between runs matter.
REFERENCE_S = {"py": 0.0065, "vec": 0.0054, "eigh": 0.0067, "matvec": 0.0082}
LOOP = 60_000
VECTOR = 100_000
EIGH_ORDER = 240
MATVEC_ORDER = 1024
MATVEC_REPEATS = 20


class Probe:
    def __init__(self, parts: tuple[str, ...], exponent: float = 1.0):
        rng = np.random.default_rng(0)
        self.parts = parts
        self.exponent = exponent
        # inputs and outputs preallocated, so that the probe's time does not
        # depend on the state of the heap the ops leave behind; only the
        # parts in use allocate, so the probe adds little to the peak RSS
        self.vector = rng.standard_normal(max(VECTOR, MATVEC_ORDER))
        if "vec" in parts:
            self.complex = np.empty(VECTOR, dtype=np.complex128)
            self.real = np.empty(VECTOR)
        if "eigh" in parts:
            a = rng.standard_normal((EIGH_ORDER, EIGH_ORDER))
            self.symmetric = a + a.T
        if "matvec" in parts:
            self.dense = rng.standard_normal((MATVEC_ORDER, MATVEC_ORDER))
        self.samples: dict[str, list[float]] = {part: [] for part in parts}
        # one untimed call, so that no sample pays for first-touch costs
        self()
        for times in self.samples.values():
            times.clear()

    def _py(self) -> None:
        x = 0
        for i in range(LOOP):
            x += i * i % 7

    def _vec(self) -> None:
        np.multiply(self.vector, 1j, out=self.complex)
        np.exp(self.complex, out=self.complex)
        np.multiply(self.complex, self.vector, out=self.complex)
        np.abs(self.complex, out=self.real)
        float(self.real.sum())

    def _eigh(self) -> None:
        np.linalg.eigh(self.symmetric)

    def _matvec(self) -> None:
        for _ in range(MATVEC_REPEATS):
            self.dense @ self.vector[:MATVEC_ORDER]

    def __call__(self) -> None:
        for part in self.parts:
            start = time.perf_counter()
            getattr(self, "_" + part)()
            self.samples[part].append(time.perf_counter() - start)

    def slowness(self, first: int = 0, last: int | None = None) -> float:
        """Geometric mean over the parts of median time / reference time,
        over the samples first..last-1 (all of them by default), raised to
        the exponent."""
        return math.exp(self.exponent * statistics.fmean(
            math.log(statistics.median(times[first:last]) / REFERENCE_S[part])
            for part, times in self.samples.items()))

    def medians(self) -> dict[str, float]:
        return {part: statistics.median(times) for part, times in self.samples.items()}
