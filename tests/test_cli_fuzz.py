"""A fuzz of the command line: random subcommands with a random subset of
the flags each reads, at edge values (odd N, fields a hair off a level
crossing h = j/N, h = 1, negative numbers, empty lists).  Every run ends in
a clean exit code, a usage error writes nothing, and every table written
is rectangular."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lmglab.cli import _COMMAND_FLAGS, main


def joined(values):
    return ",".join(repr(v) for v in values)


def rarely(common, edge, one_in=10):
    """``common``, or one draw in ``one_in`` ``edge``."""
    return st.sampled_from(range(one_in)).flatmap(
        lambda i: edge if i == one_in - 1 else common
    )


def fields(N):
    """A field at N: a hair off a crossing, on one, anywhere in [0, 1.5],
    or rarely h = 1 or a negative one."""
    near = st.builds(
        lambda j, sign: j / N + sign * 1e-11, st.integers(1, N), st.sampled_from((-1, 1))
    )
    on = st.builds(lambda j: j / N, st.integers(0, N))
    return rarely(st.one_of(near, on, st.floats(0.0, 1.5)), st.sampled_from((1.0, -0.5)))


def listed(element, max_size, first=()):
    """A comma list of ``first`` and then up to ``max_size`` values, or one
    draw in five the empty list ``,``."""
    values = st.lists(element, min_size=1 - len(first), max_size=max_size)
    return rarely(values.map(lambda rest: joined([*first, *rest])), st.just(","), 5)


def values(key, N, cap):
    """The tokens after ``--key``, for a run whose first N is ``N``."""
    if key == "trial":
        return st.just([])
    strategies = {
        "n": listed(rarely(st.integers(1, cap), st.sampled_from((0, -3))), 2, first=[N]),
        "h": listed(fields(N), 3),
        "gamma": rarely(st.floats(0.0, 1.0), st.sampled_from((-0.1, 1.5))),
        "g": listed(st.sampled_from((0.0, 1e-6, 1e-4, 1e-2, -1e-3)), 2),
        "phi-n": st.floats(-3.5, 3.5),
        "tmax": rarely(st.floats(1.0, 500.0), st.sampled_from((0.0, -10.0))),
        "samples": rarely(st.integers(16, 256), st.integers(-5, 15)),
        "cutoff-k": rarely(st.integers(0, 5), st.just(-1)),
        "kappa": rarely(st.floats(0.05, 0.95), st.sampled_from((0.0, 1.0, -0.5))),
        "window": st.sampled_from(("hann", "none")),
        "threshold": st.sampled_from((0.0, 1e-9, 1e-2, 0.5, -0.1)),
    }
    return strategies[key].map(lambda v: [v if isinstance(v, str) else repr(v)])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    cap = 10 if command == "oracle" else 101
    N = draw(st.integers(1, cap))
    argv = [command]
    for key in draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), unique=True)):
        argv += [f"--{key}", *draw(values(key, N, cap))]
    return argv


@seed(1)
@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "--out", str(out)])
        assert rc in (0, 1, 3), (argv, err.getvalue())
        if rc == 3:
            assert argv[0] in ("oracle", "correlation"), argv
        if rc == 1:
            assert not out.exists(), (argv, err.getvalue())
            return
        for table in out.glob("*.csv"):
            header, *rows = table.read_text(encoding="utf-8").splitlines()
            cells = header.count(",") + 1
            assert all(row.count(",") + 1 == cells for row in rows), (argv, table.name)
