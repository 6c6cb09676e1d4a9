"""Seeded op lists for the three benchmark workloads.

An op is one ``lmglab`` subcommand with its arguments, minus ``--out``.
Each workload has a fixed *batch composition*: how many ops of each
subcommand a batch holds, and which of them get the expensive options.  A
run's op list is that composition repeated ``batches`` times, with N
stratified over the whole list: the range of N is cut into one band per op
of a subcommand and each op draws its N inside its own band, and each band
of N is paired with a fixed band of h (or gamma, or kappa).  The seed only
draws the values inside the bands (N, h, g, phi_n, gamma, kappa) and the
order of the ops.  Stratifying keeps the cost of an op list nearly the same
from seed to seed, which is what gives a steady time to solution.

Everything here is pure Python (no numpy), so generating an op list costs
nothing and is identical on every platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("dynamics", "anisotropic", "validation")

# Wall seconds one batch takes at the seed commit on a 2-CPU x86-64 sandbox
# (OpenBLAS, 1 thread) under the load typical there.  A run executes
# seconds / nominal batches, rounded half up, so the op count is fixed by
# --seconds alone and never by the speed of the commit under test:
# percentiles then rest on the same sample count on both sides of a
# comparison.
NOMINAL_BATCH_S = {"dynamics": 14.0, "anisotropic": 13.0, "validation": 15.0}

# The speed probe (probe.py) each workload's op times are divided by: its
# parts, and the exponent of their slowness.  Chosen on a 2-CPU x86-64
# sandbox whose speed drifted by up to 1.7x between runs.  Over windows of
# about 25 s, a cycle of validation's N = 8..10 oracle and correlation ops
# varied by a coefficient of variation of 0.064 raw, 0.060 divided by
# py+vec and 0.028 divided by eigh+matvec.  Over two sets of ten runs each
# of dynamics and anisotropic, the largest quartile spread of wall_s,
# op_s.iqm and op_s.tail_mean was 0.56 raw, 0.128 divided by py+vec and
# 0.070 divided by py+vec to the power 1.15; over ten validation runs,
# 0.105 raw and 0.032 divided by eigh+matvec (0.037 to the power 1.15).
# Set-up is interpreter start and imports on every workload; over the same
# sets its spread was at most 0.54 raw, 0.125 and 0.117.
PROBES = {"dynamics": (("py", "vec"), 1.15), "anisotropic": (("py", "vec"), 1.15),
          "validation": (("eigh", "matvec"), 1.0)}
SETUP_PROBE = (("py", "vec"), 1.15)

# One cheap op per workload, run once after import and before timing starts.
WARMUP = {
    "dynamics": ("spectrum", "--n", "50", "--h", "0.716"),
    "anisotropic": ("spectrum", "--n", "40", "--h", "0.6", "--gamma", "0.5"),
    "validation": ("oracle", "--n", "6", "--h", "0.5"),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``params`` holds the values the checks need."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)

    def describe(self) -> str:
        return "lmglab " + " ".join(self.argv)


def batches_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_BATCH_S[workload] + 0.5))


def _strata(rng: random.Random, k: int, lo: float, hi: float, log: bool) -> list[int]:
    """k integers, one per equal band of [lo, hi], each drawn uniformly from
    the middle fifth of its band.  Op cost grows steeply with N, so a wider
    draw would let the seed move the median op time more than the machine
    does."""
    out = []
    for i in range(k):
        u = (i + 0.4 + 0.2 * rng.random()) / k
        if log:
            x = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        else:
            x = lo + u * (hi - lo)
        out.append(int(round(x)))
    return out


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(rng: random.Random, i: int, k: int) -> float:
    """A point of [0, 1) for the i-th of k ops: the golden-ratio sequence
    jittered inside a band of width 1/k.  It pairs every band of N with a
    fixed band of h (or gamma), so the cost of a list does not hinge on which
    large-N op happens to draw an expensive field."""
    return (i * GOLDEN + rng.random() / k) % 1.0


def _field(N: int, kind: str, u: float, lo: float, hi: float) -> float:
    """h at position u of [lo, hi]: round (N h integer, parity of N),
    crescent (opposite parity) or generic (N h at least 0.15 away from any
    integer, so that no line of m_x falls within 3 bins of zero frequency)."""
    h0 = lo + u * (hi - lo)
    if kind == "generic":
        j = round(N * h0)
        if abs(N * h0 - j) < 0.15:
            h0 = (j + 0.3) / N if (j + 0.3) / N <= hi else (j - 0.3) / N
        return h0
    want = N % 2 if kind == "round" else (N + 1) % 2
    j = math.floor(N * h0)
    if j % 2 != want:
        j += 1
    while j > hi * N:
        j -= 2
    while j < lo * N:
        j += 2
    return j / N


def _field_kind(i: int) -> str:
    """A quarter round, a quarter crescent, the rest generic."""
    return ("round", "generic", "crescent", "generic")[i % 4]


def _kick(rng: random.Random, i: int) -> tuple[float | None, float]:
    """(g, phi_n) for the i-th op: half the kicks use the default 1/N^2
    (None), half a draw log-uniform in [1e-5, 1e-3]; a quarter point off the
    x axis.  The pattern is offset every four ops so that round, crescent
    and generic fields all meet every kind of kick."""
    j = i + i // 4
    g = None if j % 2 == 0 else math.exp(rng.uniform(math.log(1e-5), math.log(1e-3)))
    phi = rng.uniform(0.1, 2.0 * math.pi - 0.1) if j % 4 == 3 else 0.0
    return g, phi


def _fmt(x: float) -> str:
    return repr(float(x))


def _kicked_op(command: str, N: int, h: float, gamma: float, g, phi: float,
               samples: int, trial: bool = False) -> Op:
    argv = [command, "--n", str(N), "--h", _fmt(h)]
    if gamma != 1.0:
        argv += ["--gamma", _fmt(gamma)]
    if g is not None:
        argv += ["--g", _fmt(g)]
    if phi != 0.0:
        argv += ["--phi-n", _fmt(phi)]
    if samples != 4096:
        argv += ["--samples", str(samples)]
    if trial:
        argv.append("--trial")
    params = dict(N=N, h=h, gamma=gamma, g=(1.0 / N**2 if g is None else g),
                  phi_n=phi, samples=samples, trial=trial)
    return Op(command, tuple(argv), params)


def _dynamics(rng: random.Random, B: int) -> list[Op]:
    """gamma = 1, N log-uniform in [50, 500], h in [0.3, 0.9].  A batch
    holds 10 spectrum, 4 evolve (one with --trial) and 2 each of
    correlation, quasicrystal and modes; 5 of its 20 ops sample 16384 points
    instead of 4096."""
    ops = []
    for command, k, long_every, long_at in (("spectrum", 10, 5, 2), ("evolve", 4, 4, 1)):
        k *= B
        for i, N in enumerate(_strata(rng, k, 50, 500, log=True)):
            h = _field(N, _field_kind(i), _spread(rng, i, k), 0.3, 0.9)
            trial = command == "evolve" and i % 4 == 2
            g, phi = (None, 0.0) if trial else _kick(rng, i)
            samples = 16384 if i % long_every == long_at else 4096
            ops.append(_kicked_op(command, N, h, 1.0, g, phi, samples, trial))
    k = 2 * B
    for i, N in enumerate(_strata(rng, k, 50, 500, log=True)):
        h = _field(N, _field_kind(i), _spread(rng, i, k), 0.3, 0.9)
        ops.append(Op("correlation", ("correlation", "--n", str(N), "--h", _fmt(h)),
                      dict(N=N, h=h, samples=4096)))
    for i, N in enumerate(_strata(rng, k, 50, 500, log=True)):
        kappa = 0.2 + 0.7 * _spread(rng, i, k)
        g, phi = _kick(rng, i)
        samples = 16384 if i % 2 == 1 else 4096
        argv = ["quasicrystal", "--n", str(N), "--kappa", _fmt(kappa)]
        if g is not None:
            argv += ["--g", _fmt(g)]
        if phi != 0.0:
            argv += ["--phi-n", _fmt(phi)]
        if samples != 4096:
            argv += ["--samples", str(samples)]
        ops.append(Op("quasicrystal", tuple(argv),
                      dict(N=N, kappa=kappa, samples=samples)))
    for i, N in enumerate(_strata(rng, k, 50, 500, log=True)):
        u = _spread(rng, i, k)
        hs = [_field(N, kind, (u + shift) % 1.0, 0.3, 0.9)
              for kind, shift in (("round", 0.0), ("crescent", 1 / 3), ("generic", 2 / 3))]
        samples = 16384 if i % 2 == 0 else 4096
        argv = ["modes", "--n", str(N), "--h", ",".join(_fmt(h) for h in hs)]
        if samples != 4096:
            argv += ["--samples", str(samples)]
        ops.append(Op("modes", tuple(argv), dict(N=N, hs=hs, samples=samples)))
    return ops


def _anisotropic(rng: random.Random, B: int) -> list[Op]:
    """A batch holds 9 spectrum ops at gamma in (0, 1) with N uniform in
    [40, 200] and h in [0.3, 0.9], and 3 gamma = 0 gap scans over 4, 6 and 8
    values of N in [20, 160] with h in [0.3, 0.8]."""
    ops = []
    k = 9 * B
    for i, N in enumerate(_strata(rng, k, 40, 200, log=False)):
        h = _field(N, "generic", _spread(rng, i, k), 0.3, 0.9)
        gamma = 0.05 + 0.9 * _spread(rng, i + k, k)
        g, phi = _kick(rng, i)
        ops.append(_kicked_op("spectrum", N, h, gamma, g, phi, 4096))
    k = 3 * B
    for i in range(k):
        Ns = sorted(set(_strata(rng, (4, 6, 8)[i % 3], 20, 160, log=False)))
        h = 0.3 + 0.5 * _spread(rng, i, k)
        ops.append(Op(
            "gap",
            ("gap", "--n", ",".join(str(n) for n in Ns), "--h", _fmt(h), "--gamma", "0"),
            dict(Ns=Ns, h=h),
        ))
    return ops


def _validation(rng: random.Random, B: int) -> list[Op]:
    """A batch holds one oracle point and one correlation op at every N in
    4..10, with h in [0.2, 0.9]."""
    ops = []
    k = 7 * B
    for command in ("oracle", "correlation"):
        for i in range(k):
            N = 4 + i % 7
            h = _field(N, _field_kind(i), _spread(rng, i, k), 0.2, 0.9)
            ops.append(Op(command, (command, "--n", str(N), "--h", _fmt(h)),
                          dict(N=N, h=h, samples=4096)))
    return ops


_BUILDERS = {"dynamics": _dynamics, "anisotropic": _anisotropic,
             "validation": _validation}


def make_ops(workload: str, seed: int, batches: int) -> list[Op]:
    """The run's op list, in the order the client sends it."""
    # str seeds hash through sha512, so this is stable across processes
    rng = random.Random(f"{workload}:{seed}:{batches}")
    ops = _BUILDERS[workload](rng, batches)
    rng.shuffle(ops)
    return ops
