"""README's command-line examples print what README says.

In the fenced ``sh`` block under "Command line", the ``# ...`` lines right
after a ``qcurvature ...`` line are that command's stdout; the comment line
above a command describes it, and a blank line ends an example.
"""

import shlex
from pathlib import Path

import pytest

from qcurvature.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def examples() -> list[tuple[str, list[str]]]:
    """Each command of the "Command line" block with the stdout lines README gives it."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    found: list[tuple[str, list[str]]] = []
    reading = False  # whether the lines since the last command are its output
    for line in block.splitlines():
        if line.startswith("qcurvature "):
            found.append((line, []))
            reading = True
        elif reading and line.startswith("# "):
            found[-1][1].append(line[2:])
        else:
            reading = False
    return found


EXAMPLES = examples()


def test_the_block_has_every_example():
    shown = [(shlex.split(command)[1], len(lines)) for command, lines in EXAMPLES]
    assert shown == [("curvature", 3), ("cq", 1), ("binom", 1), ("infinitesimal", 0), ("verify", 0)]


@pytest.mark.parametrize("command, lines", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_prints_what_readme_says(capsys, command, lines):
    code = run(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    if lines:
        assert out == "".join(f"{line}\n" for line in lines)
