"""A fuzz of the command line: random subcommands with a random subset of
the flags each reads, at edge values (odd N, fields a hair off a level
crossing h = j/N, h = 1, negative numbers, empty lists, kicks and fields
of 1e150 to 1e250).  Every run ends in a clean exit code, a usage error
names a flag or the subcommand and writes nothing, every table written is
rectangular with a float in each cell, finite except where
``non_finite_allowed`` says, a gamma < 1 summary holds no gamma = 1 closed
form, and a second run into another --out writes the same bytes."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lmglab.cli import _COMMAND_FLAGS, _FLAGS, main


def joined(values):
    return ",".join(repr(v) for v in values)


def rarely(common, edge, one_in=10):
    """``common``, or one draw in ``one_in`` ``edge``."""
    return st.sampled_from(range(one_in)).flatmap(
        lambda i: edge if i == one_in - 1 else common
    )


# 1e150 to 1e250, past 1e154, where squares of the energies overflow
HUGE = st.floats(150.0, 250.0).map(lambda e: 10.0**e)


def fields(N):
    """A field at N: a hair off a crossing, on one, anywhere in [0, 1.5],
    or rarely h = 1, a negative one or a huge one."""
    near = st.builds(
        lambda j, sign: j / N + sign * 1e-11, st.integers(1, N), st.sampled_from((-1, 1))
    )
    on = st.builds(lambda j: j / N, st.integers(0, N))
    return rarely(st.one_of(near, on, st.floats(0.0, 1.5)),
                  st.one_of(st.sampled_from((1.0, -0.5)), HUGE))


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
        # gamma = 1 often, the one value with the gamma = 1 closed forms
        "gamma": rarely(st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                        st.sampled_from((-0.1, 1.5))),
        "g": rarely(st.sampled_from((0.0, 1e-6, 1e-4, 1e-2, -1e-3)),
                    st.builds(lambda sign, g: sign * g, st.sampled_from((1, -1)), HUGE)),
        "phi-n": st.floats(-3.5, 3.5),
        "tmax": rarely(st.floats(1.0, 500.0), st.sampled_from((0.0, -10.0, 1e-310, 5e-324))),
        "samples": rarely(st.integers(16, 256), st.integers(-5, 15)),
        "kappa": rarely(st.floats(0.05, 0.95), st.sampled_from((0.0, 1.0, -0.5))),
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


def run(argv, out):
    """The exit code and stderr of ``argv`` run into ``out``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", str(out)])
    return rc, err.getvalue()


def non_finite_allowed(out, table, column):
    """Whether a cell of ``table`` in ``column`` may be non-finite: only the
    well overlap of gap_gamma0.csv in the symmetric phase h > 1, which has
    no wells."""
    if (table, column) != ("gap_gamma0.csv", 2):
        return False
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))["h"] > 1.0


# each rare --tmax value once, on a subcommand that reads --tmax, with
# otherwise valid flags: the random draws seldom reach the --tmax checks,
# as another flag of the same line is often rejected first
TMAX_EDGES = [
    ["spectrum", "--n", "7", "--tmax", "0.0"],
    ["correlation", "--n", "5", "--tmax", "-10.0"],
    ["modes", "--n", "5", "--tmax", "1e-310"],
    ["quasicrystal", "--n", "7", "--tmax", "5e-324"],
]


def tmax_examples(test):
    """``test`` with an explicit example for each line of ``TMAX_EDGES``."""
    for argv in TMAX_EDGES:
        test = example(argv=argv)(test)
    return test


def written(out):
    """Every file in ``out``, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@seed(1)
@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
@example(argv=["gap", "--n", "5", "--h", "1.2"])  # the one allowed nan column
# the gamma = 1 closed forms: quasicrystal reads no --gamma, and a
# gamma < 1 summary holds none of them
@example(argv=["quasicrystal", "--n", "7", "--gamma", "1.0"])
@example(argv=["evolve", "--n", "7", "--gamma", "0.5", "--samples", "16"])
# a kick and a field past 1e154, which overflowed the kicked ground state's
# window test
@example(argv=["spectrum", "--n", "100", "--h", "0.5", "--g", "1e200"])
@example(argv=["evolve", "--n", "100", "--h", "1e200"])
@tmax_examples
def test_fuzzed_command_lines_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        rc, err = run(argv, out)
        assert rc in (0, 1, 3), (argv, err)
        assert rc == 1 or argv not in TMAX_EDGES, (argv, err)
        if rc == 3:
            assert argv[0] in ("oracle", "correlation"), argv
        if rc == 1:
            # the message after argparse's usage line and its prog prefix
            message = err.rsplit("error: ", 1)[-1]
            named = [f"--{key}" for key in _FLAGS if f"--{key}" in message]
            assert named or argv[0] in message, (argv, err)
            assert "--tmax" in named or argv not in TMAX_EDGES, (argv, err)
            assert not out.exists(), (argv, err)
            return
        for table in out.glob("*.csv"):
            header, *rows = table.read_text(encoding="utf-8").splitlines()
            cells = header.count(",") + 1
            assert all(row.count(",") + 1 == cells for row in rows), (argv, table.name)
            for row in rows:
                for column, cell in enumerate(map(float, row.split(","))):
                    if not math.isfinite(cell):
                        assert non_finite_allowed(out, table.name, column), (argv, table.name, row)
        if rc == 0:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            if summary["gamma"] is not None and summary["gamma"] < 1.0:
                closed_forms = [summary[key] for key in ("m0", "nu", "omega0", "mode")]
                assert closed_forms == [None] * 4, argv
            again = Path(tmp) / "elsewhere" / "run"
            assert run(argv, again)[0] == 0, argv
            assert written(again) == written(out), argv
