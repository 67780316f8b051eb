"""README's command-line synopsis names exactly the flags each subcommand takes."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from moddeg.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def synopsis_flags() -> dict[str, set[str]]:
    """Flags per subcommand in the first code block under "## Command line";
    a line starting with ``moddeg NAME`` opens a subcommand, indented lines
    continue it."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    flags: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        opener = re.match(r"moddeg\s+(\w+)", line)
        if opener:
            command = opener.group(1)
            flags.setdefault(command, set())
        if command is not None:
            flags[command].update(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", line))
    return flags


def parser_flags() -> dict[str, list[tuple[str, ...]]]:
    """Each subcommand's options, one tuple of aliases per option, help left out."""
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: [
            tuple(action.option_strings) for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        ]
        for name, parser in sub.choices.items()
    }


@pytest.mark.parametrize("command", sorted(parser_flags()))
def test_synopsis_matches_the_parser(command):
    documented = synopsis_flags().get(command, set())
    options = parser_flags()[command]
    known = {alias for aliases in options for alias in aliases}
    assert sorted(documented - known) == [], "README names flags the parser lacks"
    missing = [aliases[0] for aliases in options if documented.isdisjoint(aliases)]
    assert missing == [], "README's synopsis leaves out parser flags"


def test_synopsis_names_no_unknown_subcommand():
    assert set(synopsis_flags()) == set(parser_flags())
