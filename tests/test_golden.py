"""Byte-identity of CLI stdout against recorded digests.

``golden_cli.json`` maps each invocation below to its exit code and the
SHA-256 of its stdout: every mode, format and rule of ``curvature`` for
n <= 8, and its default-rule root text for 9 <= n <= 12, which runs the
packed root decode on more lanes; every mode and format of ``curvature``
under the default rule at n = 13 and 14, its root text up to n = 18 and its
generic text up to n = 16 (``--rule literal`` at these sizes takes seconds
per run and is left out); ``verify`` at n = 3, 6, 8 and 10 (below, at
and above the arbitration's fixed range), ``binom`` for n <= 6 and
0 <= k <= n, ``infinitesimal`` for 2 <= n <= 6, and ``cq --n 4`` at five
vertices with both methods.  The ``curvature`` digests for n <= 8 and the
``verify --n 6`` ones were recorded from the path model route; every
production route must reproduce those bytes exactly.
Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qcurvature.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")


FORMATS = ("text", "latex", "json")
RULES = ("default", "literal", "prefix")


def modes(n: int) -> tuple[str, ...]:
    """Root mode needs n >= 2."""
    return ("root", "generic") if n >= 2 else ("generic",)


def invocations() -> list[tuple[str, ...]]:
    out = []
    for n in range(1, 9):
        for mode in modes(n):
            for fmt in FORMATS:
                for rule in RULES:
                    out.append(("curvature", "--n", str(n), "--mode", mode, "--format", fmt, "--rule", rule))
    for n in range(9, 13):
        out.append(("curvature", "--n", str(n), "--mode", "root", "--format", "text", "--rule", "default"))
    for n in (13, 14):
        for mode in modes(n):
            for fmt in FORMATS:
                out.append(("curvature", "--n", str(n), "--mode", mode, "--format", fmt, "--rule", "default"))
    for mode, top in (("root", 18), ("generic", 16)):
        for n in range(15, top + 1):
            out.append(("curvature", "--n", str(n), "--mode", mode, "--format", "text", "--rule", "default"))
    for n in (3, 6, 8, 10):
        for fmt in ("text", "json"):
            for rule in RULES:
                out.append(("verify", "--n", str(n), "--format", fmt, "--rule", rule))
    for n in range(1, 7):
        for mode in modes(n):
            for fmt in FORMATS:
                for k in range(n + 1):
                    out.append(("binom", "--n", str(n), "--k", str(k), "--mode", mode, "--format", fmt))
    for n in range(2, 7):
        for mode in modes(n):
            for fmt in FORMATS:
                for rule in RULES:
                    out.append(("infinitesimal", "--n", str(n), "--mode", mode, "--format", fmt, "--rule", rule))
    for s in ("∅", "2", "0,1", "1,0", "0,0,0"):
        for method in ("dp", "enum"):
            for mode in modes(4):
                for fmt in FORMATS:
                    for rule in RULES:
                        out.append(
                            ("cq", "--n", "4", "--s", s, "--method", method, "--mode", mode, "--format", fmt, "--rule", rule)
                        )
    return out


class Digest(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of what is written to it, not the text."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)


def capture(argv: tuple[str, ...]) -> dict:
    stdout = Digest()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return {"exit": code, "sha256": stdout.sha256.hexdigest()}


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
