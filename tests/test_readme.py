"""The examples in README.md print and return what the README says.

Every ``trajq`` command in the README's ``sh`` blocks (``\\`` continues a
command on the next line) runs through ``trajq.cli.main`` from the root of
the repository; the ``# `` lines under it are its expected output.

Every ``python`` block runs from the root of the repository too. An
expression statement followed by a ``# <repr>`` line, or ending in a
``# <repr>: ...`` comment, must produce a value with that repr.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from trajq.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _examples() -> list[tuple[str, list[str]]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if line.startswith("trajq "):
                out = []
                for below in lines[i + 1 :]:
                    if not below.startswith("# "):
                        break
                    out.append(below[2:])
                examples.append((line, out))
    return examples


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def _python_blocks() -> list[tuple[str, str]]:
    """(README.md:<line of the fence>, code) for every ``python`` block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [
        (f"README.md:{text.count(chr(10), 0, m.start()) + 1}", m.group(1))
        for m in re.finditer(r"```python\n(.*?)```", text, re.S)
    ]


def _expected_repr(stmt: ast.stmt, lines: list[str]) -> str | None:
    """The repr the README gives for an expression statement, if any."""
    comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
    if comment.startswith("# "):
        return comment[2:].split(": ", 1)[0]
    below = lines[stmt.end_lineno] if stmt.end_lineno < len(lines) else ""
    return below[2:] if below.startswith("# ") else None


PYTHON_BLOCKS = _python_blocks()


def test_the_readme_python_blocks_check_values():
    checked = 0
    for _, block in PYTHON_BLOCKS:
        lines = block.splitlines()
        checked += sum(
            isinstance(stmt, ast.Expr) and _expected_repr(stmt, lines) is not None
            for stmt in ast.parse(block).body
        )
    assert checked >= 4


@pytest.mark.parametrize("where, block", PYTHON_BLOCKS, ids=[w for w, _ in PYTHON_BLOCKS])
def test_readme_python_block(where, block, monkeypatch):
    monkeypatch.chdir(ROOT)
    lines = block.splitlines()
    scope: dict = {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), where, "eval"), scope)
            expected = _expected_repr(stmt, lines)
            assert expected is None or repr(value) == expected, ast.unparse(stmt)
        else:
            exec(compile(ast.Module([stmt], []), where, "exec"), scope)
