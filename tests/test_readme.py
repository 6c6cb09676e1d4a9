"""README's examples stay runnable: the library quick start runs and finds
the peaks it promises, and every ``lmglab`` command line parses and passes
validation (none is run).  Its flag table lists, row by row, the flags each
subcommand's ``--help`` lists, and its defaults table the parser's defaults."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lmglab.cli import _COMMAND_FLAGS, _FLAGS, build_parser, validate_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def command_lines():
    """Every ``lmglab`` line of the shell blocks, with each loop variable
    replaced by the first value its ``for`` line gives it."""
    lines = []
    for block in code_blocks("sh"):
        loop_values = dict(re.findall(r"^\s*for (\w+) in (\S+)", block, re.M))
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("lmglab "):
                lines.append(
                    re.sub(r"\$\{?(\w+)\}?", lambda m: loop_values[m.group(1)], line)
                )
    return lines


def test_quick_start_finds_its_peaks():
    (block,) = [b for b in code_blocks("python") if "find_peaks" in b]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), namespace)
    freqs = [p.freq_over_nu for p in namespace["peaks"][:3]]
    assert freqs == pytest.approx([0.6, 1.4, 2.6], abs=1e-9)


def test_command_lines_are_found():
    assert len(command_lines()) >= 8


@pytest.mark.parametrize("line", command_lines())
def test_command_line_is_valid(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    validate_config(args)


def flag_table():
    """The README's per-subcommand flag table: {subcommand: [flag, ...]},
    with the flags every subcommand takes, as its header names them."""
    ((shared, table),) = re.findall(
        r"^\| subcommand \| flags it reads \(besides (.*)\) \|\n"
        r"\| --- \| --- \|\n((?:\|.*\n)+)",
        README, re.M,
    )
    shared = re.findall(r"--[a-z][a-z-]*", shared)
    rows = {}
    for line in table.splitlines():
        names, flags = line.strip("|").split("|")
        for name in re.findall(r"`(\w+)`", names):
            rows[name] = [*re.findall(r"--[a-z][a-z-]*", flags), *shared]
    return rows


def test_flag_table_names_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    choices = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1)
    assert sorted(flag_table()) == sorted(choices.split(","))


@pytest.mark.parametrize("command", sorted(flag_table()))
def test_flag_table_row_is_the_subcommand_help(command, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    listed = dict.fromkeys(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert [flag for flag in listed if flag != "--help"] == flag_table()[command]


def default_table():
    """The README's defaults table: {flag: {subcommand: stated default}},
    where the subcommand "" stands for those without their own."""
    (table,) = re.findall(
        r"^\| flag \| default \|\n\| --- \| --- \|\n((?:\|.*\n)+)", README, re.M
    )
    rows = {}
    for line in table.splitlines():
        flag, cell = (part.strip() for part in line.strip("|").split("|"))
        first, *own = cell.split("; ")
        own = (re.fullmatch(r"`(\w+)`: (.*)", part).groups() for part in own)
        rows[flag.strip("`")] = {"": first, **dict(own)}
    return rows


def parsed(key, text):
    """A stated default as the parser holds it: a literal in backticks read
    by the flag's type, ``off`` False, and words (worked out at run time) None."""
    literal = re.fullmatch(r"`([^`]*)`", text)
    if literal is None:
        return False if text == "off" else None
    return _FLAGS[key].get("type", str)(literal.group(1))


def test_default_table_names_every_flag():
    table = default_table()
    assert list(table) == [f"--{key}" for key in _FLAGS]
    for flag, stated in table.items():
        assert all(flag[2:] in _COMMAND_FLAGS[command] for command in stated if command)


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_stated_defaults_are_the_parsers(command):
    run = vars(build_parser().parse_args([command]))
    for key in (*_COMMAND_FLAGS[command], "out"):
        stated = default_table()[f"--{key}"]
        text = stated.get(command, stated[""])
        assert run[key.replace("-", "_")] == parsed(key, text), (command, key)
