"""The command line examples in README.md print what the README says.

Every ``trajq`` command in the README's ``sh`` blocks (``\\`` continues a
command on the next line) runs through ``trajq.cli.main`` from the root of
the repository; the ``# `` lines under it are its expected output.
"""

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
