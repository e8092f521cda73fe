"""Composition vectors, the weighted step digraph, and weighted path sums.

A composition vector s is both a vertex of the digraph and the word
e_{s_1} * ... * e_{s_m} that every expansion in this package is a sum over.
From a vertex s there is one edge prepending a zero entry, one self-loop
("stay"), and one edge incrementing each existing entry.  Weighted sums over
length-n paths from the empty vertex are computed both by explicit
enumeration and by forward dynamic programming.  Under the oracle-arbitrated
weight rule both are oracles for the q-binomial power formula, the
production route; under any other rule the dynamic program is the route
that serves the expansion, with enumeration its oracle.  Every reader
streams the dynamic program's step tables, two live (:func:`_steps`), keyed
by entries tuples; only the public functions build or read a :class:`Comp`.
"""

from __future__ import annotations

__all__ = [
    "Comp",
    "Edge",
    "WeightRule",
    "successors",
    "enumerate_vertices",
    "path_sum_enum",
    "path_sum_dp",
    "forward_tables",
]

from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from functools import cache
from itertools import combinations
from types import MappingProxyType

from .cyclo import ONE, ZERO, Frozen, QPoly, coeffs_list, int_tuple


def _word_order(entries: tuple[int, ...]) -> tuple:
    """The canonical order of words as entries: by length, then entrywise from the last entry back."""
    return (len(entries), entries[::-1])


def _degree(entries: tuple[int, ...]) -> int:
    """The degree of a word as entries: each factor e_j has degree j + 1."""
    return sum(entries) + len(entries)


class Comp(Frozen):
    """A composition vector: finite tuple of nonnegative integers.

    It is also the word e_{s_1} * ... * e_{s_m}, where e_j stands for the
    j-th derivative of a.  The empty tuple is the distinguished start vertex
    and the scalar unit.  The canonical total order (used for every
    deterministic listing in this package) is by length first, then
    entrywise from the *last* entry backwards; this is the order in which
    expansions are conventionally written out.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...] = ()):
        e = int_tuple(entries)
        if any(x < 0 for x in e):
            raise ValueError("entries must be nonnegative")
        self._fill(e)

    def __eq__(self, other: object) -> bool:
        return self.entries == other.entries if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    # perfbench/child.py and perfbench/test_perfbench.py read word.comp.entries;
    # drop this once they read items() and text() (ROADMAP item 1)
    @property
    def comp(self) -> Comp:
        return self

    def __len__(self) -> int:
        return len(self.entries)

    def degree(self) -> int:
        """Degree of the word: each factor e_j has degree j + 1."""
        return _degree(self.entries)

    def sort_key(self) -> tuple:
        return _word_order(self.entries)

    def __lt__(self, other: Comp) -> bool:
        return self.sort_key() < other.sort_key() if type(other) is type(self) else NotImplemented

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
            entries = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed composition {text!r}") from exc
        return cls(entries)

    def text(self) -> str:
        """The word in plain text.

        >>> Comp((2, 0, 0)).text()
        'd^2(a)*a^2'
        """
        return TEXT.render(self.entries)

    def latex(self) -> str:
        """The word in LaTeX.

        >>> Comp((2, 0, 0)).latex()
        'd_M^{2}(a)a^{2}'
        """
        return LATEX.render(self.entries)

    def __repr__(self) -> str:
        return f"Comp({self.entries!r})"


class Entries:
    """Builds a word as its entries tuple, from its last entry backwards,
    and keeps each coefficient a :class:`QPoly`.

    The protocol of a word builder, shared with :class:`JsonEntries` and
    :class:`WordStyle`: start from ``empty``, ``prepend`` entries right to
    left, ``finish`` the word; ``render`` builds a whole word from its entries
    at once, and ``coeff`` renders a coefficient.
    """

    empty: tuple[int, ...] = ()

    @staticmethod
    def prepend(entry: int, suffix: tuple[int, ...]) -> tuple[int, ...]:
        return (entry,) + suffix

    @staticmethod
    def finish(suffix: tuple[int, ...]) -> tuple[int, ...]:
        return suffix

    render = coeff = finish  # a word's entries are the word; a coefficient stays a QPoly


class JsonEntries(Entries):
    """The JSON builder: :class:`Entries` with each coefficient its list (:func:`coeffs_list`)."""
    coeff = staticmethod(coeffs_list)


def _text_run(j: int, count: int) -> str:
    base = "a" if j == 0 else ("d(a)" if j == 1 else f"d^{j}(a)")
    return base if count == 1 else f"{base}^{count}"


def _latex_run(j: int, count: int) -> str:
    base = "a" if j == 0 else ("d_M(a)" if j == 1 else f"d_M^{{{j}}}(a)")
    if count == 1:
        return base
    return f"a^{{{count}}}" if j == 0 else f"({base})^{{{count}}}"


class WordStyle(Frozen):
    """A streamed output format: ``run(j, count)`` renders the factor e_j^count,
    ``sep`` joins the factors of a word (the empty word is ``1``), ``coeff``
    renders a coefficient, :meth:`pieces` a sum and ``head.format(k)`` its heading.

    A word builder (see :class:`Entries`): a suffix is held as its first
    entry, that entry's run length and the rendered runs after it, each
    behind ``sep``.  A walk that extends words leftwards thus carries their
    text, rendering a run once, when an entry other than its own is put in
    front of it; :meth:`render`, behind :meth:`Comp.text` and
    :meth:`Comp.latex`, takes the same steps.
    """

    __slots__ = ("run", "sep", "coeff", "head")
    empty = (-1, 0, "")

    def prepend(self, entry: int, suffix: tuple[int, int, str]) -> tuple[int, int, str]:
        head, count, rest = suffix
        if entry == head:
            return head, count + 1, rest
        return entry, 1, (self.sep + self.run(head, count) + rest) if count else ""

    def finish(self, suffix: tuple[int, int, str]) -> str:
        head, count, rest = suffix
        return self.run(head, count) + rest if count else "1"

    def render(self, entries: tuple[int, ...]) -> str:
        suffix = self.empty
        for entry in reversed(entries):
            suffix = self.prepend(entry, suffix)
        return self.finish(suffix)

    def pieces(self, terms: Iterable[tuple[str, str]]) -> Iterator[str]:
        """A sum of rendered (word, coefficient) terms, piece by piece; "0" for none.

        Each term is the coefficient ``sep`` the word (a compound coefficient
        in parentheses, a coefficient 1 dropped, the empty word "1" leaving a
        bare coefficient), behind " + " from the second on.

        >>> "".join(TEXT.pieces([("a", "1+q"), ("d(a)", "1"), ("1", "q")]))
        '(1+q)*a + d(a) + q'
        """
        sep = ""
        for word, coeff in terms:
            if word == "1":
                term = coeff
            elif coeff == "1":
                term = word
            else:
                term = (f"({coeff})" if "+" in coeff or "-" in coeff else coeff) + self.sep + word
            yield sep + term
            sep = " + "
        if not sep:
            yield "0"


TEXT = WordStyle(_text_run, "*", QPoly.compact, "c[{}] = ")
LATEX = WordStyle(_latex_run, "", QPoly.latex, "c_{{{}}} = ")


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

    def increment_exponents(self, entries: tuple[int, ...]) -> Sequence[int]:
        """The exponent of raising each entry of the vertex ``entries``, in order.

        >>> list(WeightRule.LITERAL.increment_exponents((0, 1)))
        [1, 2]
        >>> WeightRule.PREFIX.increment_exponents((0, 1))
        [0, 1]
        """
        if self is WeightRule.LITERAL:
            total = sum(entries)
            return range(total, total + len(entries))
        exponents, left = [], 0  # left: entries before position i, plus i - 1
        for entry in entries:
            exponents.append(left)
            left += entry + 1
        return exponents


class Edge(Frozen):
    """A weighted edge of the step digraph; weight is a single power of q."""

    __slots__ = ("source", "target", "weight", "kind", "index")

    # kind is "prepend", "stay" or "increment"; index is the 1-indexed entry an increment raises
    def __init__(self, source: Comp, target: Comp, weight: QPoly,
                 kind: str, index: int | None = None):
        self._fill(source, target, weight, kind, index)


def _moves(e: tuple[int, ...], rule: WeightRule) -> list[tuple[tuple[int, ...], int]]:
    """Target, as entries, and exponent of each outgoing edge of e, in :func:`successors`' order."""
    moves = [((0,) + e, 0), (e, _degree(e))]
    for i, exponent in enumerate(rule.increment_exponents(e)):
        moves.append((e[:i] + (e[i] + 1,) + e[i + 1 :], exponent))
    return moves


def successors(s: Comp, rule: WeightRule) -> list[Edge]:
    """All 2 + len(s) outgoing edges in deterministic order.

    Order: prepend, stay, then one increment per entry position.
    """
    (prepended, _), (_, stay), *increments = _moves(s.entries, rule)
    edges = [Edge(s, Comp._trusted(prepended), ONE, "prepend"), Edge(s, s, QPoly.monomial(stay), "stay")]
    for i, (target, exponent) in enumerate(increments, start=1):
        edges.append(Edge(s, Comp._trusted(target), QPoly.monomial(exponent), "increment", i))
    return edges


@cache
def enumerate_vertices(n: int) -> tuple[Comp, ...]:
    """All compositions with entry sum + length <= n, canonically ordered.

    These are exactly the vertices reachable from the empty vertex within
    n steps, since no edge ever decreases entry sum + length.  Each is the
    subset {s_1 + ... + s_i + i - 1 : i = 1..len(s)} of range(n), read back.
    """
    if n < 1:
        raise ValueError("n must be positive")
    found = [
        Comp._trusted(tuple(b - a - 1 for a, b in zip((-1,) + cut, cut)))
        for length in range(n + 1)
        for cut in combinations(range(n), length)
    ]
    return tuple(sorted(found, key=Comp.sort_key))


def _vertex(s: Comp) -> tuple[int, ...]:
    if not isinstance(s, Comp):
        raise TypeError(f"a vertex must be a Comp, not {type(s).__name__}")
    return s.entries


def _path_sums_enum(n: int, rule: WeightRule) -> dict[tuple[int, ...], QPoly]:
    """Path sums to every endpoint, as entries, of a length-n path from the empty vertex.

    One depth-first walk on an explicit stack enumerates every path, the
    independent oracle for the dynamic program.  Edge weights are powers of
    q, so it counts paths per endpoint and exponent.  Exponential.
    """
    if n < 1:
        raise ValueError("n must be positive")
    paths: dict[tuple[tuple[int, ...], int], int] = {}
    stack = [((), n, 0)]
    while stack:
        vertex, remaining, e = stack.pop()
        if remaining == 0:
            paths[vertex, e] = paths.get((vertex, e), 0) + 1
            continue
        for target, exponent in _moves(vertex, rule):
            stack.append((target, remaining - 1, e + exponent))
    totals: dict[tuple[int, ...], QPoly] = {}
    for (vertex, e), count in paths.items():
        totals[vertex] = totals.get(vertex, ZERO) + QPoly.monomial(e, count)
    return totals


def path_sum_enum(s: Comp, n: int, rule: WeightRule) -> QPoly:
    """Sum of path weights over all length-n paths from the empty vertex to s."""
    return _path_sums_enum(n, rule).get(_vertex(s), ZERO)


def _steps(n: int, rule: WeightRule) -> Iterator[dict[tuple[int, ...], QPoly]]:
    """The step tables of the forward dynamic program, t = 0..n, each built
    from the one before; a reader that keeps only the last holds two tables.

    Table t maps each vertex, as entries, to the total weight of length-t
    paths from the empty vertex.  Every edge raises entry sum + length by
    at most one, so every vertex of table t has entry sum + length <= t <= n,
    and no bound on the vertices is needed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    step: dict[tuple[int, ...], QPoly] = {(): ONE}
    yield step
    for _ in range(n):
        nxt: dict[tuple[int, ...], QPoly] = {}
        for vertex, value in step.items():
            for target, exponent in _moves(vertex, rule):
                # every weight is q^e with coefficient 1: multiplying is a shift
                nxt[target] = nxt.get(target, ZERO) + value.shift(exponent)
        step = nxt
        yield step


def _last_table(n: int, rule: WeightRule) -> dict[tuple[int, ...], QPoly]:
    """Table n of the forward dynamic program: :func:`_steps`, two tables live."""
    return deque(_steps(n, rule), maxlen=1)[0]


@cache
def forward_tables(n: int, rule: WeightRule) -> tuple[Mapping[Comp, QPoly], ...]:
    """Each :func:`_steps` table kept, keyed by Comp: the public all-steps view; the package reads none."""
    return tuple(MappingProxyType({Comp._trusted(s): v for s, v in step.items()}) for step in _steps(n, rule))


def path_sum_dp(s: Comp, n: int, rule: WeightRule) -> QPoly:
    """Same value as :func:`path_sum_enum`, from :func:`_last_table`."""
    return _last_table(n, rule).get(_vertex(s), ZERO)
