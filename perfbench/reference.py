"""Expected outputs of every workload, computed without the package under test.

The benchmark never trusts the route it times.  This module rebuilds the
expected bytes from the paper's identities with its own integer arithmetic
on coefficient tuples (index i holds the coefficient of q**i):

- the Maurer-Cartan recursion  M(1) = a,  M(n+1) = d M(n) + a M(n),  with d
  acting on a word by the q-Leibniz rule;
- Gaussian binomials by their Pascal recurrence;
- cyclotomic polynomials by exact division of q**n - 1.

At a primitive n-th root of unity the expansion of (d + a)**n collapses to
M(n) reduced mod Phi_n, every c[k] with k >= 1 being 0; over generic q each
word of degree m carries [n choose m]_q times its coefficient in M(m).  Text
and JSON are rendered here as well, so a rendering change is caught too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache
from itertools import groupby

Poly = tuple[int, ...]
Word = tuple[int, ...]

# The weight rule the package selects by arbitration (see the README).
DEFAULT_RULE = "prefix"


def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def poly_shift(a: Poly, e: int) -> Poly:
    return (0,) * e + a if a else ()


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def poly_divmod(a: Poly, monic: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of division by a monic polynomial."""
    rem = list(a)
    top = len(monic) - 1
    quot = [0] * max(len(rem) - top, 0)
    while len(rem) > top:
        head = rem[-1]
        shift = len(rem) - 1 - top
        quot[shift] = head
        for i, x in enumerate(monic):
            rem[shift + i] -= head * x
        _trim(rem)
    return _trim(quot), tuple(rem)


def maurer_cartan(n_max: int) -> list[dict[Word, Poly]]:
    """M(1) .. M(n_max) as word -> coefficient maps; index 0 is unused."""
    current: dict[Word, Poly] = {(0,): (1,)}
    out: list[dict[Word, Poly]] = [{}, current]
    for _ in range(n_max - 1):
        nxt: dict[Word, Poly] = {}
        for word, coeff in current.items():
            left_degree = 0
            for i, entry in enumerate(word):
                raised = word[:i] + (entry + 1,) + word[i + 1 :]
                nxt[raised] = poly_add(nxt.get(raised, ()), poly_shift(coeff, left_degree))
                left_degree += entry + 1
            prepended = (0,) + word
            nxt[prepended] = poly_add(nxt.get(prepended, ()), coeff)
        current = {w: c for w, c in nxt.items() if c}
        out.append(current)
    return out


def gaussian_binomials(n: int) -> list[Poly]:
    """[n choose k]_q for k = 0..n, from the Pascal recurrence."""
    row: list[Poly] = [(1,)]
    for m in range(1, n + 1):
        row = [(1,)] + [
            poly_add(row[k - 1], poly_shift(row[k], k)) for k in range(1, m)
        ] + [(1,)]
    return row


@cache
def cyclotomic(n: int) -> Poly:
    value: Poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            value, rem = poly_divmod(value, cyclotomic(d))
            if rem:
                raise ArithmeticError("division is not exact")
    return value


# -- rendering, to the package's documented text and JSON forms ---------------


def _sort_key(word: Word) -> tuple:
    return (len(word), tuple(reversed(word)))


def poly_text(c: Poly) -> str:
    parts: list[str] = []
    for i, x in enumerate(c):
        if x == 0:
            continue
        mag = abs(x)
        if i == 0:
            body = str(mag)
        elif mag == 1:
            body = "q" if i == 1 else f"q^{i}"
        else:
            body = f"{mag}*q" if i == 1 else f"{mag}*q^{i}"
        if not parts:
            parts.append(body if x > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if x > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def word_text(word: Word) -> str:
    parts = []
    for j, run in groupby(word):
        count = len(list(run))
        base = "a" if j == 0 else ("d(a)" if j == 1 else f"d^{j}(a)")
        parts.append(base if count == 1 else f"{base}^{count}")
    return "*".join(parts)


def element_text(element: dict[Word, Poly]) -> str:
    if not element:
        return "0"
    terms = []
    for word in sorted(element, key=_sort_key):
        coeff = poly_text(element[word]).replace(" ", "")
        if not word:
            terms.append(coeff)
            continue
        body = word_text(word)
        if coeff != "1":
            body = f"({coeff})*{body}" if ("+" in coeff or "-" in coeff) else f"{coeff}*{body}"
        terms.append(body)
    return " + ".join(terms)


def root_text(n: int) -> bytes:
    """Stdout of ``curvature --n n --mode root --format text``."""
    phi = cyclotomic(n)
    reduced = {}
    for word, coeff in maurer_cartan(n)[n].items():
        if all(entry < n for entry in word):
            _, rem = poly_divmod(coeff, phi)
            if rem:
                reduced[word] = rem
    lines = [f"c[{k}] = 0" for k in range(n - 1, 0, -1)]
    lines.append(f"c[0] = {element_text(reduced)}")
    return ("\n".join(lines) + "\n").encode()


def generic_json(n: int) -> bytes:
    """Stdout of ``curvature --n n --mode generic --format json``."""
    mc = maurer_cartan(n)
    binomials = gaussian_binomials(n)
    blocks = [{"k": n, "terms": [{"s": [], "coeff": [1]}]}]
    for k in range(n - 1, -1, -1):
        degree = n - k
        element = mc[degree]
        terms = [
            {"s": list(word), "coeff": list(poly_mul(binomials[degree], element[word]))}
            for word in sorted(element, key=_sort_key)
        ]
        blocks.append({"k": k, "terms": terms})
    payload = {"n": n, "mode": "generic", "rule": DEFAULT_RULE, "c": blocks}
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode()


def canonical_text(element: dict[Word, Poly]) -> bytes:
    """Order-free listing of a word -> coefficient map, one word per line."""
    return "".join(
        f"{','.join(map(str, w))}:{','.join(map(str, c))}\n"
        for w, c in sorted(element.items())
    ).encode()


def oracle_text(n: int) -> bytes:
    """Stdout of the operator-oracle child: M(n) in canonical form."""
    return canonical_text(maurer_cartan(n)[n])


# -- output checks ---------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """What one operation must print: its exact stdout, or its last line."""

    sha256: str | None = None
    last_line: str | None = None

    def problem(self, exit_code: int, stdout: bytes) -> str | None:
        """Why the output is wrong, or None when it is right."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        if self.sha256 is not None and hashlib.sha256(stdout).hexdigest() != self.sha256:
            return "stdout differs from the reference"
        if self.last_line is not None:
            lines = stdout.decode(errors="replace").rstrip("\n").splitlines()
            if lines[-1:] != [self.last_line]:
                return f"last line is not {self.last_line!r}"
        return None


def expected(workload: str, n: int) -> Expected:
    if workload == "verify":
        return Expected(last_line="result: PASS")
    render = {
        "root_expand": root_text,
        "generic_json": generic_json,
        "operator_oracle": oracle_text,
    }[workload]
    return Expected(sha256=hashlib.sha256(render(n)).hexdigest())
