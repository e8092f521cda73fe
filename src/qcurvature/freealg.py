"""Free operator algebra generated by d and the multiplication operators e_j.

e_j stands for left multiplication by the j-th derivative of the degree-one
element a, so e_j carries degree j + 1 and the graded Leibniz rule gives the
single rewrite

    d * e_j  ->  e_{j+1} + q^(j+1) * e_j * d.

Normal ordering moves every d to the right of every e_j.  Expanding powers
of d + e_0 in this algebra (:func:`deformed_power`) and running the
recursion M(n+1) = dM(n) + a*M(n) (:func:`maurer_cartan_element`) are the
oracles against which the weighted-path model and the closed product formula
are validated.  Both run iteratively on a flat dict of Kronecker-packed
coefficients, one int per coefficient with a 64-bit multiple of lane per
power of q; the lane bound, (n+1)! after n steps, follows from the rewrite
rule alone.  They share no packing code with the production route.  The
general :class:`OperatorPoly` product is kept for arbitrary operators.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from math import factorial
from typing import Iterable

from .cyclo import ONE, ZERO, CycloModulus, QPoly
from .paths import EMPTY, Comp

Generator = str | int  # "d", or an integer j standing for e_j


@dataclass(frozen=True)
class Term:
    """One normally ordered summand: coefficient * word * d^dpow."""

    coeff: QPoly
    mono: Comp
    dpow: int


def _term_key(item: tuple[tuple[Comp, int], QPoly]) -> tuple:
    (mono, dpow), _ = item
    return (-dpow, mono.sort_key())


class OperatorPoly:
    """Finite sum of coefficient * word * d^k in normal form.

    Zero coefficients are never stored; multiplication triggers normal
    ordering via the Leibniz rewrite.  Instances are immutable by
    convention: no method mutates, all return fresh objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[Comp, int], QPoly] | None = None):
        self._terms = {
            key: coeff for key, coeff in (terms or {}).items() if not coeff.is_zero()
        }

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> OperatorPoly:
        return cls()

    @classmethod
    def one(cls) -> OperatorPoly:
        return cls({(EMPTY, 0): ONE})

    @classmethod
    def d(cls) -> OperatorPoly:
        return cls({(EMPTY, 1): ONE})

    @classmethod
    def e(cls, j: int) -> OperatorPoly:
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        return cls({(Comp._trusted((j,)), 0): ONE})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Comp, int, QPoly]]) -> OperatorPoly:
        acc: dict[tuple[Comp, int], QPoly] = {}
        for mono, dpow, coeff in terms:
            key = (mono, dpow)
            acc[key] = acc.get(key, ZERO) + coeff
        return cls(acc)

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[Term]:
        """Summands in canonical order: dpow descending, then word order."""
        return [
            Term(coeff, mono, dpow)
            for (mono, dpow), coeff in sorted(self._terms.items(), key=_term_key)
        ]

    def coefficient(self, mono: Comp, dpow: int) -> QPoly:
        return self._terms.get((mono, dpow), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, ZERO) + coeff
        return OperatorPoly(acc)

    def __neg__(self) -> OperatorPoly:
        return OperatorPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: OperatorPoly) -> OperatorPoly:
        return self + (-other)

    def scaled(self, factor: QPoly | int) -> OperatorPoly:
        if isinstance(factor, int):
            factor = QPoly((factor,))
        return OperatorPoly({key: c * factor for key, c in self._terms.items()})

    def __mul__(self, other: OperatorPoly) -> OperatorPoly:
        acc: dict[tuple[Comp, int], QPoly] = {}
        pushed = [other]  # pushed[k] is d^k * other, shared by every term with dpow k
        for (mono_a, dpow_a), coeff_a in self._terms.items():
            while len(pushed) <= dpow_a:
                pushed.append(_d_times(pushed[-1]))
            for (mono_b, dpow_b), coeff_b in pushed[dpow_a]._terms.items():
                key = (mono_a * mono_b, dpow_b)
                acc[key] = acc.get(key, ZERO) + coeff_a * coeff_b
        return OperatorPoly(acc)

    def __pow__(self, n: int) -> OperatorPoly:
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        result = OperatorPoly.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable-container internals; equality is structural

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_text(t) for t in self.terms())

    def __repr__(self) -> str:
        return f"OperatorPoly('{self}')"


def _term_text(term: Term) -> str:
    body = []
    if len(term.mono):
        body.append(term.mono.text())
    if term.dpow == 1:
        body.append("d")
    elif term.dpow > 1:
        body.append(f"d^{term.dpow}")
    cstr = term.coeff.compact()
    if not body:
        return cstr
    if cstr != "1":
        if "+" in cstr or "-" in cstr:
            cstr = f"({cstr})"
        body.insert(0, cstr)
    return "*".join(body)


@cache
def _word_rewrite(entries: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Normal form of d times the word with exponent vector ``entries``.

    Returned as ``(word, dpow, e)`` triples, each standing for
    ``q^e * word * d^dpow`` with ``word`` an entries tuple: the rewrite only
    ever multiplies by a power of q and never merges two terms, so every
    coefficient is one monomial.  Recursive application of the single
    rewrite rule; the closed prefix-sum formula is *not* used here, so this
    stays an independent route.
    """
    if not entries:
        return (((), 1, 0),)
    head, rest = entries[0], entries[1:]
    passed = tuple(
        ((head,) + word, dpow, e + head + 1) for word, dpow, e in _word_rewrite(rest)
    )
    return (((head + 1,) + rest, 0, 0),) + passed


def _d_times(op: OperatorPoly) -> OperatorPoly:
    """Left multiplication by the single generator d."""
    acc: dict[tuple[Comp, int], QPoly] = {}
    for (mono, dpow), coeff in op._terms.items():
        for word, extra, e in _word_rewrite(mono.entries):
            key = (Comp._trusted(word), dpow + extra)
            acc[key] = acc.get(key, ZERO) + coeff.shift(e)
    return OperatorPoly(acc)


def normal_order(word: Iterable[Generator]) -> OperatorPoly:
    """Normal form of a product of generators.

    Each item is either the string ``"d"`` or an integer j standing for
    e_j.  The result is independent of the rewrite order (confluence is
    exercised by the associativity tests).

    >>> print(normal_order(["d", 0]))
    q*a*d + d(a)
    """
    result = OperatorPoly.one()
    for g in word:
        if g == "d":
            result = result * OperatorPoly.d()
        elif isinstance(g, int):
            result = result * OperatorPoly.e(g)
        else:
            raise ValueError(f"unknown generator {g!r}")
    return result


class ElementPoly:
    """A formal element of the module: a finite sum of coefficient * word.

    Holds a map from word to coefficient with zero coefficients dropped.
    There is no power of d in the key, so an element cannot carry d.
    Instances are immutable by convention, as :class:`OperatorPoly`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Comp, QPoly] | None = None):
        self._terms = {
            mono: coeff for mono, coeff in (terms or {}).items() if not coeff.is_zero()
        }

    @classmethod
    def zero(cls) -> ElementPoly:
        return cls()

    @classmethod
    def from_word(cls, *entries: int) -> ElementPoly:
        return cls({Comp(entries): ONE})

    def items(self) -> list[tuple[Comp, QPoly]]:
        """Summands in canonical word order."""
        return sorted(self._terms.items(), key=lambda item: item[0].sort_key())

    def coefficient(self, mono: Comp) -> QPoly:
        return self._terms.get(mono, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: ElementPoly) -> ElementPoly:
        acc = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc[mono] = acc.get(mono, ZERO) + coeff
        return ElementPoly(acc)

    def __sub__(self, other: ElementPoly) -> ElementPoly:
        return self + other.scaled(-1)

    def scaled(self, factor: QPoly | int) -> ElementPoly:
        if isinstance(factor, int):
            factor = QPoly((factor,))
        return ElementPoly({mono: c * factor for mono, c in self._terms.items()})

    def times_d_power(self, dpow: int) -> OperatorPoly:
        """The operator (this element) * d^dpow; already normally ordered."""
        if dpow < 0:
            raise ValueError("dpow must be nonnegative")
        return OperatorPoly({(mono, dpow): coeff for mono, coeff in self._terms.items()})

    def to_operator(self) -> OperatorPoly:
        return self.times_d_power(0)

    def reduce_mod(self, modulus: CycloModulus) -> ElementPoly:
        return ElementPoly({mono: modulus.reduce(c) for mono, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ElementPoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_text(Term(coeff, mono, 0)) for mono, coeff in self.items())

    def __repr__(self) -> str:
        return f"ElementPoly('{self}')"


def q_derivative(p: ElementPoly) -> ElementPoly:
    """Graded Leibniz derivative on element polynomials.

    Each word picks up one term per factor: the factor's order is raised
    and the term is weighted by q to the degree of everything to its left.
    """
    acc: dict[Comp, QPoly] = {}
    for mono, coeff in p._terms.items():
        entries = mono.entries
        left_degree = 0
        for i, entry in enumerate(entries):
            raised = Comp._trusted(entries[:i] + (entry + 1,) + entries[i + 1 :])
            acc[raised] = acc.get(raised, ZERO) + coeff.shift(left_degree)
            left_degree += entry + 1
    return ElementPoly(acc)


def multiply_by_a(p: ElementPoly) -> ElementPoly:
    """Left multiplication by the deforming element: prepend a to each word."""
    return ElementPoly({mono.prepended(): coeff for mono, coeff in p._terms.items()})


@cache
def deformed_power_first_order(n: int) -> OperatorPoly:
    """Coefficient of t in (d + t*e_0)^n with t squaring to zero.

    Computed by tracking the nilpotent grade through the multiplication,
    not by filtering :func:`deformed_power`, so it is an independent route.
    """
    if n < 1:
        raise ValueError("n must be positive")
    base0, base1 = OperatorPoly.d(), OperatorPoly.e(0)
    part0, part1 = base0, base1
    for _ in range(n - 1):
        part0, part1 = part0 * base0, part0 * base1 + part1 * base0
    return part1


# ---------------------------------------------------------------------------
# packed oracles
# ---------------------------------------------------------------------------
#
# deformed_power and maurer_cartan_element run their recursions on a flat
# dict keyed by entries tuples.  A coefficient sum_e c_e q^e is packed as the
# int sum_e c_e 2^(lane*e) (Kronecker substitution), so a shift by q^e is
# x << (lane*e) and a sum of coefficients is one int addition.  Packing is
# exact while every coefficient stays below 2^lane.
#
# The bound comes from the rewrite rule, not from any closed form.  A step
# only ever adds q^e times an existing coefficient, so every coefficient is
# nonnegative and at most its value at q = 1.  At q = 1 one step sends a
# term whose word has length m to at most m + 2 terms: (d + e_0) * w gives
# the prepended word and the m + 1 triples of d past w, and dM + a*M gives
# m raised words and the prepended one.  After step n every word has length
# at most n, and step 1 has mass at most 2, so the total mass of step n is at
# most 2 * 3 * ... * (n + 1) = (n + 1)!, and so is every lane and every
# partial sum.  The lane is rounded up to whole 64-bit words so that
# unpacking is one conversion to native words (one word holds n <= 19).


def _lane_bits(n: int) -> int:
    """Bits per power of q that hold every coefficient of step n: (n + 1)!."""
    return -(-factorial(n + 1).bit_length() // 64) * 64


def _unpack_lanes(x: int, lane: int) -> QPoly:
    """The polynomial packed in ``x >= 0`` at ``lane`` bits per power of q.

    ``lane`` is a multiple of 64: ``x`` is read as native 64-bit words in one
    pass, and a lane of w words combines w adjacent ones.

    >>> _unpack_lanes(3 + (5 << 128), 64)
    QPoly('3 + 5*q^2')
    """
    width = lane // 64
    size = -(-x.bit_length() // lane) * lane // 8
    words = memoryview(x.to_bytes(size, sys.byteorder)).cast("Q").tolist()
    if sys.byteorder == "big":
        words.reverse()
    lanes = words[::width]
    for j in range(1, width):
        lanes = [low | high << (64 * j) for low, high in zip(lanes, words[j::width])]
    return QPoly._trusted(tuple(lanes))


@cache
def deformed_power(n: int) -> OperatorPoly:
    """Normal form of (d + e_0)^n over generic q.

    Built as D^(m+1) = e_0 * D^m + d * D^m on packed coefficients: e_0
    prepends an entry and d is passed through each word by
    :func:`_word_rewrite`, whose memo is cleared once the loop ends: it
    holds every suffix of every word, 2^n entries, and nothing reads them
    after the call.  The pure d^n term is kept.

    >>> print(deformed_power(2))
    d^2 + (1+q)*a*d + d(a) + a^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    lane = _lane_bits(n)
    power = {((), 1): 1, ((0,), 0): 1}
    for _ in range(n - 1):
        following: defaultdict[tuple[tuple[int, ...], int], int] = defaultdict(int)
        for (word, dpow), x in power.items():
            following[(0,) + word, dpow] += x
            for moved, extra, e in _word_rewrite(word):
                following[moved, dpow + extra] += x << (lane * e)
        power = following
    _word_rewrite.cache_clear()
    return OperatorPoly(
        {(Comp._trusted(word), dpow): _unpack_lanes(x, lane) for (word, dpow), x in power.items()}
    )


@cache
def maurer_cartan_element(n: int) -> ElementPoly:
    """The element obtained by applying the deformed differential n-1 times to a.

    Defined by the recursion  M(1) = a,  M(n+1) = dM(n) + a*M(n), run on
    packed coefficients: dM raises each entry in turn, weighted by q to the
    degree left of it (as :func:`q_derivative`), and a*M prepends an entry
    (as :func:`multiply_by_a`).  Its reduction at an n-th root of unity is
    the full obstruction to the deformed differential having vanishing n-th
    power.  The curvature routes use the closed product formula for M(n)
    instead; this recursion is the definition that formula is checked
    against.

    >>> print(maurer_cartan_element(2))
    d(a) + a^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    lane = _lane_bits(n)
    element = {(0,): 1}
    for _ in range(n - 1):
        following: defaultdict[tuple[int, ...], int] = defaultdict(int)
        for word, x in element.items():
            following[(0,) + word] += x
            left_degree = 0
            for i, entry in enumerate(word):
                following[word[:i] + (entry + 1,) + word[i + 1 :]] += x << (lane * left_degree)
                left_degree += entry + 1
        element = following
    return ElementPoly(
        {Comp._trusted(word): _unpack_lanes(x, lane) for word, x in element.items()}
    )
