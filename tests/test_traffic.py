"""The traffic gate: the 92 benchmark ops of tests/snapshot/ops.json enter
every function of src/lmglab except the ones kept on purpose, so new dead
code shows here at review.

``snapshot.traffic.replay`` runs the ops in process under ``sys.settrace``.
lmglab is imported afresh under the tracer, as in a new process: its
``functools`` caches start cold, so the builders behind them are entered,
and the parser that ``cli`` builds at import counts.  The modules imported
before go back into ``sys.modules`` afterwards.  Only function code objects
are compared; which statement lines run is left to the traffic report.
"""

import importlib.util
import json
import sys
from pathlib import Path

from snapshot.traffic import OPS, replay, unentered

# ROADMAP item 11's keeps: public names the ops never reach, held for the
# acceptance checks and the open items
KEEPS = {
    "TimeSeries.__post_init__",
    "propagate",
    "lifetime_bound",
    "full_space_operators",
    "frequency_scaling_fit",
    "degenerate_pt_gap",
    "two_well_eigenvalues",
}


def fresh_replay(ops: dict, package: str) -> set:
    """The code objects the ops enter, lmglab imported under the tracer."""
    def ours(name):
        return name == "lmglab" or name.startswith("lmglab.")

    saved = {name: module for name, module in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        return replay(ops, package)[0]
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_the_ops_enter_every_function_but_the_keeps():
    package = importlib.util.find_spec("lmglab").submodule_search_locations[0]
    entered = fresh_replay(json.loads(OPS.read_text(encoding="utf-8")), package)
    never = set()
    for path in sorted(Path(package).glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        never |= {code.co_qualname for code in unentered(module, entered)}
    assert never == KEEPS
