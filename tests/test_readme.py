"""The README's examples still run against the package.

The python quick tour is executed as written, and every ``tailvol`` command
shown in a shell block is parsed by the CLI's own argument parser, so a
renamed or removed function or flag that the README still shows fails here.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from tailvol.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def _tailvol_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["tailvol"]:
                commands.append(argv[1:])
    return commands


def test_readme_python_tour_runs():
    (tour,) = _blocks("python")
    namespace: dict = {}
    exec(compile(tour, str(README), "exec"), namespace)
    assert 0.0 < namespace["fair_vol"] < 1.0
    assert namespace["surf"].vols[0].size > 0


def test_readme_shows_commands():
    # guards the parametrized test below against an empty parameter set
    assert _tailvol_commands()


@pytest.mark.parametrize("argv", _tailvol_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["estimate", "r.csv", "--out", "f.json", "--base-length", "1000"])
    assert exc.value.code == 2


def test_readme_names_every_subcommand_option():
    # a flag no README line names is one no user can find
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    text = README.read_text()
    unnamed = sorted(
        f"{name} {flag}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
    )
    assert not unnamed
