"""Composition vectors, the weighted step digraph, and weighted path sums.

A composition vector s is both a vertex of the digraph and the word
e_{s_1} * ... * e_{s_m} that every expansion in this package is a sum over.
From a vertex s there is one edge prepending a zero entry, one self-loop
("stay"), and one edge incrementing each existing entry.  Weighted sums over
length-n paths from the empty vertex are computed both by explicit
enumeration and by forward dynamic programming; both are oracles for the
q-binomial power formula, which is the production route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import groupby
from types import MappingProxyType
from typing import Iterator, Mapping

from .cyclo import ONE, ZERO, QPoly, int_tuple


@dataclass(frozen=True)
class Comp:
    """A composition vector: finite tuple of nonnegative integers.

    It is also the word e_{s_1} * ... * e_{s_m}, where e_j stands for the
    j-th derivative of a.  The empty tuple is the distinguished start vertex
    and the scalar unit.  The canonical total order (used for every
    deterministic listing in this package) is by length first, then
    entrywise from the *last* entry backwards; this is the order in which
    expansions are conventionally written out.
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        e = int_tuple(self.entries)
        if any(x < 0 for x in e):
            raise ValueError("entries must be nonnegative")
        object.__setattr__(self, "entries", e)

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> Comp:
        """Wrap a tuple already known to hold nonnegative ints, skipping validation."""
        c = object.__new__(cls)
        object.__setattr__(c, "entries", entries)
        return c

    # perfbench/child.py and perfbench/test_perfbench.py read word.comp.entries;
    # drop this once they read items() and text() (ROADMAP item 1)
    @property
    def comp(self) -> Comp:
        return self

    def __len__(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        """Sum of the entries."""
        return sum(self.entries)

    def degree(self) -> int:
        """Degree of the word: each factor e_j has degree j + 1."""
        return sum(self.entries) + len(self.entries)

    def __mul__(self, other: Comp) -> Comp:
        """Concatenation of words."""
        return Comp._trusted(self.entries + other.entries)

    def prefix(self, i: int) -> Comp:
        """Entries strictly before 1-indexed position i; prefix(1) is empty."""
        if not 1 <= i <= len(self.entries) + 1:
            raise IndexError(f"position {i} out of range")
        return Comp._trusted(self.entries[: i - 1])

    def incremented(self, i: int) -> Comp:
        """Copy with 1-indexed entry i raised by one."""
        if not 1 <= i <= len(self.entries):
            raise IndexError(f"position {i} out of range")
        e = self.entries
        return Comp._trusted(e[: i - 1] + (e[i - 1] + 1,) + e[i:])

    def prepended(self) -> Comp:
        return Comp._trusted((0,) + self.entries)

    def sort_key(self) -> tuple:
        return (len(self.entries), tuple(reversed(self.entries)))

    def __lt__(self, other: Comp) -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if not self.entries:
            return "∅"
        return ",".join(str(x) for x in self.entries)

    @classmethod
    def parse(cls, text: str) -> Comp:
        """Parse the textual syntax: comma-separated entries, '∅' or '' empty."""
        text = text.strip()
        if text in ("", "∅"):
            return cls(())
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"malformed composition {text!r}") from exc

    def text(self) -> str:
        """The word in plain text.

        >>> Comp((2, 0, 0)).text()
        'd^2(a)*a^2'
        """
        if not self.entries:
            return "1"
        parts = []
        for j, run in groupby(self.entries):
            count = len(list(run))
            base = "a" if j == 0 else ("d(a)" if j == 1 else f"d^{j}(a)")
            parts.append(base if count == 1 else f"{base}^{count}")
        return "*".join(parts)

    def latex(self) -> str:
        """The word in LaTeX.

        >>> Comp((2, 0, 0)).latex()
        'd_M^{2}(a)a^{2}'
        """
        if not self.entries:
            return "1"
        parts = []
        for j, run in groupby(self.entries):
            count = len(list(run))
            base = "a" if j == 0 else ("d_M(a)" if j == 1 else f"d_M^{{{j}}}(a)")
            if count == 1:
                parts.append(base)
            elif j == 0:
                parts.append(f"a^{{{count}}}")
            else:
                parts.append(f"({base})^{{{count}}}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Comp({self.entries!r})"


EMPTY = Comp(())


class WeightRule(str, Enum):
    """Convention for the exponent on an increment edge.

    ``LITERAL`` charges q^(|s| + i - 1) for raising entry i of s: the whole
    vector's entry sum appears in the exponent.  ``PREFIX`` charges
    q^(|s_<i| + i - 1), counting only the entries before position i.  The
    two agree whenever every entry from position i on is zero; exactly one
    of them reproduces the operator algebra (see verify_suite, which
    arbitrates and reports the loser's first counterexample).
    """

    LITERAL = "literal"
    PREFIX = "prefix"

    def stay_exponent(self, s: Comp) -> int:
        return s.degree()

    def increment_exponent(self, s: Comp, i: int) -> int:
        if self is WeightRule.LITERAL:
            return s.total() + i - 1
        return s.prefix(i).total() + i - 1


@dataclass(frozen=True)
class Edge:
    """A weighted edge of the step digraph; weight is a single power of q."""

    source: Comp
    target: Comp
    weight: QPoly
    kind: str  # "prepend" | "stay" | "increment"
    index: int | None = None  # 1-indexed entry for increments


def successors(s: Comp, rule: WeightRule) -> list[Edge]:
    """All 2 + len(s) outgoing edges in deterministic order.

    Order: prepend, stay, then one increment per entry position.
    """
    edges = [
        Edge(s, s.prepended(), ONE, "prepend"),
        Edge(s, s, QPoly.monomial(rule.stay_exponent(s)), "stay"),
    ]
    for i in range(1, len(s) + 1):
        weight = QPoly.monomial(rule.increment_exponent(s, i))
        edges.append(Edge(s, s.incremented(i), weight, "increment", i))
    return edges


def stay_count(s: Comp, n: int) -> int:
    """Number of stay steps on any length-n path from the empty vertex to s.

    Equals n minus the degree of s; a negative value means s is unreachable
    in n steps (callers filter on this).
    """
    return n - s.degree()


def _compositions(length: int, max_total: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _compositions(length - 1, max_total - head):
            yield (head,) + tail


@cache
def enumerate_vertices(n: int) -> tuple[Comp, ...]:
    """All compositions with entry sum + length <= n, canonically ordered.

    These are exactly the vertices reachable from the empty vertex within
    n steps, since no edge ever decreases entry sum + length.
    """
    if n < 1:
        raise ValueError("n must be positive")
    found = [
        Comp(entries)
        for length in range(n + 1)
        for entries in _compositions(length, n - length)
    ]
    return tuple(sorted(found, key=Comp.sort_key))


def path_sum_enum(s: Comp, n: int, rule: WeightRule) -> QPoly:
    """Sum of path weights over all length-n paths from the empty vertex to s.

    Explicit depth-first enumeration of every length-n path, kept as the
    independent oracle for the dynamic program.  Exponential; intended for
    n up to about 8.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = ZERO

    def walk(vertex: Comp, remaining: int, weight: QPoly) -> None:
        nonlocal total
        if remaining == 0:
            if vertex == s:
                total = total + weight
            return
        for edge in successors(vertex, rule):
            walk(edge.target, remaining - 1, weight * edge.weight)

    walk(EMPTY, n, ONE)
    return total


@cache
def forward_tables(n: int, rule: WeightRule) -> tuple[Mapping[Comp, QPoly], ...]:
    """Per-step accumulated weights of the forward dynamic program.

    Entry t maps each vertex to the total weight of length-t paths from the
    empty vertex.  Every edge raises entry sum + length by at most one, so
    every vertex of entry t has entry sum + length <= t <= n, and no bound
    on the vertices is needed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    steps: list[dict[Comp, QPoly]] = [{EMPTY: ONE}]
    for _ in range(n):
        nxt: dict[Comp, QPoly] = {}
        for vertex, value in steps[-1].items():
            for edge in successors(vertex, rule):
                nxt[edge.target] = nxt.get(edge.target, ZERO) + value * edge.weight
        steps.append(nxt)
    return tuple(MappingProxyType(step) for step in steps)


def path_sum_dp(s: Comp, n: int, rule: WeightRule) -> QPoly:
    """Same value as :func:`path_sum_enum`, by forward dynamic programming."""
    return forward_tables(n, rule)[n].get(s, ZERO)
