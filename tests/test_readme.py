"""Every example in README.md gives what it shows.

Each `$ gamma0 …` example runs through ``gamma0.cli.main`` in-process.  An
example whose output is cut by a ``...`` line shows the first lines of the
output before it and the last lines after it.  The ```python library block
runs statement by statement, and an expression whose trailing ``# …``
comment is a Python literal must equal it.
"""

import ast
import contextlib
import io
import re
import shlex
import tokenize
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



def _library_block():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    return block


def _statements(block):
    """Each statement of the block with the comment that ends its last line, or None."""
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    for stmt in ast.parse(block).body:
        yield stmt, comments.get(stmt.end_lineno)


NOTHING_SHOWN = object()


def _shown(comment):
    """The literal a comment shows, or NOTHING_SHOWN for prose such as ``LabeledPolygon``."""
    try:
        return ast.literal_eval(comment or "")
    except (ValueError, SyntaxError):
        return NOTHING_SHOWN


def test_readme_library_block_gives_what_it_shows():
    block = _library_block()
    namespace, checked = {}, []
    for stmt, comment in _statements(block):
        shown = _shown(comment)
        if isinstance(stmt, ast.Expr) and shown is not NOTHING_SHOWN:
            source = ast.get_source_segment(block, stmt)
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == shown, source
            checked.append(source)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert set(checked) >= {
        "P.denominator_sequence()",
        "P.labels",
        "sys.counts()",
        "verify_system(sys).ok",
        "m_bounds(41)",
        "m_exact_search(41)",
    }
