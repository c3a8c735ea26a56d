"""README's examples against the program: every `$ cfk ...` block runs
through cfk.cli.main and must print what README shows, line by line, where
a line `...` stands for any run of elided lines; and every dotted `cfk.`
name in README must resolve."""
import importlib
import re
import shlex
from pathlib import Path

import pytest

from cfk.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def examples() -> list[tuple[str, list[str]]]:
    """Each `$ cfk ...` line inside a fenced block, with the lines after
    it up to the next `$ ` line or the end of the block."""
    found: list[tuple[str, list[str]]] = []
    output = None
    for line in README.splitlines():
        if line.startswith("```"):
            output = None
        elif line.startswith("$ "):
            output = []
            found.append((line[2:], output))
        elif output is not None:
            output.append(line)
    return found


EXAMPLES = examples()


def test_every_readme_example_is_collected():
    commands = {shlex.split(command)[1] for command, _ in EXAMPLES}
    assert commands == {"invariants", "dinv", "genus", "cable-bounds", "validate"}


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_readme_shows(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # file paths in README are relative to the checkout
    program, *argv = shlex.split(command)
    assert program == "cfk"
    assert main(argv) == 0
    out = capsys.readouterr().out
    pattern = "".join("(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                      for line in expected)
    assert re.fullmatch(pattern, out), out


@pytest.mark.parametrize("dotted", sorted(set(re.findall(
    r"(?<![\w./])cfk(?:\.[A-Za-z_]\w*)+", README))))
def test_readme_dotted_names_resolve(dotted):
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[end:]:
            target = getattr(target, attribute)
        return
    raise AssertionError(f"{dotted} names no module")
