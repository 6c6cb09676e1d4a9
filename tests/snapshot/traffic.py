"""Print the lmglab code that the benchmark ops never run.

    PYTHONPATH=src python tests/snapshot/traffic.py

replays every op of ops.json in process under ``sys.settrace`` and prints
the ops' exit codes and, per module of the lmglab package, the functions
that no op enters and the statement lines that no op runs outside them.
Runs of never-run lines that hold only ``raise`` statements are listed
after the others, so the branches that do more than reject an input
stand out.
Importing lmglab counts as running, so a module's ``def`` and ``class``
lines run.  A simplicity change can cite this measured traffic, not a grep,
for code it calls unused; code that only tests or library callers reach
shows up here too.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

OPS = Path(__file__).resolve().parent / "ops.json"


def code_objects(code: types.CodeType):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def key(code: types.CodeType) -> tuple:
    return code.co_filename, code.co_firstlineno, code.co_qualname


def lines_of(code: types.CodeType) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def replay(ops: dict, package: str) -> tuple[set, dict, Counter]:
    """Run every op under a tracer; the code objects entered and the lines
    run, by file, in the files under ``package``, and the exit codes."""
    entered, ran, codes = set(), defaultdict(set), Counter()

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        entered.add(key(frame.f_code))
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        from lmglab.cli import main

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for workload, argvs in ops.items():
                for i, argv in enumerate(argvs):
                    codes[main([*argv, "--out", f"{tmp}/{workload}/{i:02d}"])] += 1
    finally:
        sys.settrace(previous)
    return entered, ran, codes


def runs(lines: list[int], executable: list[int]) -> list[tuple[int, int]]:
    """``lines`` as (first, last) runs with no other executable line between."""
    position = {line: i for i, line in enumerate(executable)}
    found = []
    for line in lines:
        if found and position[line] == position[found[-1][1]] + 1:
            found[-1] = (found[-1][0], line)
        else:
            found.append((line, line))
    return found


def unentered(module: types.CodeType, entered: set) -> list[types.CodeType]:
    """The named functions of ``module`` that were never entered, leaving out
    those nested in one of them."""
    missed = [c for c in code_objects(module)
              if key(c) not in entered and not c.co_name.startswith("<")]
    return [c for c in missed if not any(c is not o and c in code_objects(o) for o in missed)]


def report(path: Path, entered: set, ran: set) -> list[str]:
    """What of the module at ``path`` never ran, as printable lines."""
    source = path.read_text(encoding="utf-8")
    module = compile(source, str(path), "exec")
    if key(module) not in entered:
        return [f"{path.name}: never imported"]
    text = source.splitlines()
    executable, hidden = set(), set()
    for code in code_objects(module):
        executable |= lines_of(code)
        if key(code) not in entered:
            # a function no op enters is reported whole, not line by line
            hidden |= lines_of(code)
    outer = unentered(module, entered)
    missed = sorted(executable - ran - hidden)
    raising = {line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
               for line in range(node.lineno, node.end_lineno + 1)}
    found = runs(missed, sorted(executable))
    raise_only = [(first, last) for first, last in found
                  if all(line in raising for line in missed if first <= line <= last)]
    out = [f"{path.name}: {len(missed)} of {len(executable)} statement lines never run"
           + f", {len(outer)} functions never entered" * bool(outer)]
    for code in sorted(outer, key=lambda c: c.co_firstlineno):
        out.append(f"  never entered: {code.co_qualname} (line {code.co_firstlineno})")
    for label, group in (("never run", [r for r in found if r not in raise_only]),
                         ("never raised", raise_only)):
        for first, last in group:
            span = f"line {first}" if first == last else f"lines {first}-{last}"
            out.append(f"  {label}: {span}: {text[first - 1].strip()}")
    return out


def main() -> None:
    ops = json.loads(OPS.read_text(encoding="utf-8"))
    package = importlib.util.find_spec("lmglab").submodule_search_locations[0]
    start = time.perf_counter()
    entered, ran, codes = replay(ops, package)
    exits = ", ".join(f"{n} exit {rc}" for rc, n in sorted(codes.items()))
    print(f"replayed the ops of {OPS.name} in {time.perf_counter() - start:.1f} s: {exits}")
    for path in sorted(Path(package).glob("*.py")):
        print("\n".join(report(path, entered, ran[str(path)])))


if __name__ == "__main__":
    main()
