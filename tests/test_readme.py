"""Every `$ gamma0 …` example in README.md prints the lines it shows.

Each example runs through ``gamma0.cli.main`` in-process.  An example whose
output is cut by a ``...`` line shows the first lines of the output before
it and the last lines after it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from gamma0.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ gamma0 "


def _examples():
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        command, *shown = block.splitlines()
        if command.startswith(PROMPT):
            yield command[len(PROMPT):], shown


EXAMPLES = list(_examples())


def test_readme_has_cli_examples():
    commands = [command.split()[0] for command, _ in EXAMPLES]
    assert set(commands) >= {"invariants", "polygon", "bounds", "cashew", "generators", "sweep"}


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(command, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command))
    assert code == 0
    lines = out.getvalue().splitlines()
    if "..." in shown:
        cut = shown.index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert len(lines) >= len(head) + len(tail)
        assert lines[: len(head)] == head
        assert lines[len(lines) - len(tail):] == tail
    else:
        assert lines == shown
