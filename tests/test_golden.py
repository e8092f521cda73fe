"""Byte-identity of CLI stdout against recorded digests.

``golden_cli.json`` maps each invocation below (every mode, format and
rule of ``curvature`` for n <= 8, and ``verify --n 6``) to its exit code
and the SHA-256 of its stdout.  The digests were recorded from the path
model route; every production route must reproduce those bytes exactly.
Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qcurvature.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")


def invocations() -> list[tuple[str, ...]]:
    out = []
    for n in range(1, 9):
        for mode in ("root", "generic"):
            if mode == "root" and n < 2:
                continue
            for fmt in ("text", "latex", "json"):
                for rule in ("default", "literal", "prefix"):
                    out.append(("curvature", "--n", str(n), "--mode", mode, "--format", fmt, "--rule", rule))
    for fmt in ("text", "json"):
        for rule in ("default", "literal", "prefix"):
            out.append(("verify", "--n", "6", "--format", fmt, "--rule", rule))
    return out


def capture(argv: tuple[str, ...]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return {"exit": code, "sha256": digest}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in invocations())


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_stdout_matches_golden(golden, argv):
    assert capture(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({" ".join(argv): capture(argv) for argv in invocations()}, indent=1, sort_keys=True)
        + "\n"
    )
