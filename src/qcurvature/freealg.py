"""Free operator algebra generated by d and the multiplication operators e_j.

e_j stands for left multiplication by the j-th derivative of the degree-one
element a, so e_j carries degree j + 1 and the graded Leibniz rule gives the
single rewrite

    d * e_j  ->  e_{j+1} + q^(j+1) * e_j * d.

Normal ordering moves every d to the right of every e_j.  Expanding powers
of d + e_0 in this algebra (:func:`deformed_power`) and running the
recursion M(n+1) = dM(n) + a*M(n) (:func:`maurer_cartan_element`) are the
oracles against which the weighted-path model and the closed product formula
are validated.  Both run iteratively on flat lists indexed by an int code of
each word (its entries as runs of zero bits, so that every rewrite is a bit
operation and its power of q a bit position), holding Kronecker-packed
coefficients, one int per coefficient with a 64-bit multiple of lane per
power of q; the lane bound, (n+1)! after n steps, follows from the rewrite
rule alone.  Each word is decoded to a :class:`Comp` once, at the end.  They
share no packing code with the production route.  The general
:class:`OperatorPoly` product is kept for arbitrary operators.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from functools import cache
from math import factorial

from .cyclo import ONE, ZERO, CycloModulus, Frozen, QPoly
from .paths import EMPTY, Comp

Generator = str | int  # "d", or an integer j standing for e_j


class Term(Frozen):
    """One normally ordered summand: coefficient * word * d^dpow."""

    __slots__ = ("coeff", "mono", "dpow")

    def __init__(self, coeff: QPoly, mono: Comp, dpow: int):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "mono", mono)
        object.__setattr__(self, "dpow", dpow)


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

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[Term]:
        """Summands in canonical order: dpow descending, then word order."""
        return [
            Term(coeff, mono, dpow)
            for (mono, dpow), coeff in sorted(self._terms.items(), key=_term_key)
        ]

    def coefficient(self, mono: Comp, dpow: int) -> QPoly:
        return self._terms.get((mono, dpow), ZERO)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc.get(key, ZERO) + coeff
        return OperatorPoly(acc)

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
        terms = ((_operator_word(t.mono, t.dpow), t.coeff.compact()) for t in self.terms())
        return "".join(_sum_pieces(terms, "*"))

    def __repr__(self) -> str:
        return f"OperatorPoly('{self}')"


def _sum_pieces(terms: Iterable[tuple[str, str]], times: str) -> Iterator[str]:
    """A sum of rendered (word, coefficient) terms, piece by piece; "0" for none.

    Each term is the coefficient ``times`` the word (a compound coefficient
    in parentheses, a coefficient 1 dropped, the empty word "1" leaving a
    bare coefficient), behind " + " from the second on.
    """
    sep = ""
    for word, coeff in terms:
        if word == "1":
            term = coeff
        elif coeff == "1":
            term = word
        else:
            term = (f"({coeff})" if "+" in coeff or "-" in coeff else coeff) + times + word
        yield sep + term
        sep = " + "
    if not sep:
        yield "0"


def _operator_word(mono: Comp, dpow: int) -> str:
    """The word times d^dpow in text; "1" when both are empty."""
    factors = [mono.text()] if len(mono) else []
    if dpow:
        factors.append("d" if dpow == 1 else f"d^{dpow}")
    return "*".join(factors) or "1"


@cache
def _word_rewrite(entries: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Normal form of d times the word with exponent vector ``entries``.

    Returned as ``(word, dpow, e)`` triples, each standing for
    ``q^e * word * d^dpow`` with ``word`` an entries tuple: the rewrite only
    ever multiplies by a power of q and never merges two terms, so every
    coefficient is one monomial.  One left-to-right pass of the rewrite rule
    d * e_j = e_(j+1) + q^(j+1) * e_j * d, pushing d past one factor at a
    time; the closed prefix-sum formula is not used, so this stays an
    independent route.
    """
    out = []
    e = 0
    for i, head in enumerate(entries):
        out.append((entries[:i] + (head + 1,) + entries[i + 1 :], 0, e))
        e += head + 1
    out.append((entries, 1, e))
    return tuple(out)


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
        return "".join(_sum_pieces(((m.text(), c.compact()) for m, c in self.items()), "*"))

    def latex(self) -> str:
        """The element in LaTeX, summands in canonical word order.

        >>> ElementPoly({Comp((1,)): QPoly((1, 1)), Comp((0, 0)): ONE}).latex()
        '(1+q)d_M(a) + a^{2}'
        """
        return "".join(_sum_pieces(((m.latex(), c.latex()) for m, c in self.items()), ""))

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
# deformed_power and maurer_cartan_element run their recursions on flat lists
# indexed by an int code of each word.  Read from bit 0 upwards, the code of
# (s_1, ..., s_L) is s_1 zeros and a one, then s_2 zeros and a one, and so on,
# with a leading one at bit D, the word's degree; the empty word is 1.  Entry
# i thus starts at bit P_i, the degree to its left, which is the power of q
# that d picks up on passing the factors before it, and every rewrite is a
# bit operation:
#   putting e_0 in front        (c << 1) | 1
#   raising the entry at bit p  c + (c >> p << p), a zero inserted at bit p, weight q^p
#   d passing the whole word    c itself, weight q^D with D = c.bit_length() - 1
# Every nonempty word of degree D has a code in [2^D + 2^(D-1), 2^(D+1)): the
# bit below the leading one closes the last entry.  So the words of degree
# <= m index a list of 2^(m+1) slots, and each word is decoded to a Comp once,
# at the end.
#
# A coefficient sum_e c_e q^e is packed as the int sum_e c_e 2^(lane*e)
# (Kronecker substitution), so a shift by q^e is x << (lane*e) and a sum of
# coefficients is one int addition.  Packing is exact while every coefficient
# stays below 2^lane.
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
# deformed_power keys its list by the word alone: D^m is homogeneous of degree
# m (d has degree 1, e_j degree j + 1, and the rewrite keeps degree), so a word
# w of D^m stands for w * d^(m - deg w), and d's power is read off at the end.


def _code_word(code: int) -> tuple[int, ...]:
    """The exponent vector of the word with code ``code``: its runs of zero bits.

    >>> _code_word(0b11100)
    (2, 0)
    """
    return tuple(map(len, bin(code)[:2:-1].split("1")[:-1]))


def _codes(degree: int) -> range:
    """The codes of every word of degree ``degree``; only 1 for degree 0."""
    return range((3 << degree) >> 1, 2 << degree)


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
    words = memoryview(x.to_bytes(size, sys.byteorder)).cast("Q")
    if sys.byteorder == "big":
        words = words[::-1]
    if width == 1:
        return QPoly._trusted(tuple(words))
    lanes = words[::width].tolist()
    for j in range(1, width):
        lanes = [low | high << (64 * j) for low, high in zip(lanes, words[j::width])]
    return QPoly._trusted(tuple(lanes))


@cache
def deformed_power(n: int) -> OperatorPoly:
    """Normal form of (d + e_0)^n over generic q.

    Built as D^(m+1) = e_0 * D^m + d * D^m on packed coefficients, one list
    slot per word code: e_0 prepends an entry, and d is pushed past the word
    one factor at a time, raising the factor it meets with weight q to the
    degree it has passed, or passing the whole word with weight q^deg.  The
    pure d^n term is kept.

    >>> print(deformed_power(2))
    d^2 + (1+q)*a*d + d(a) + a^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    lane = _lane_bits(n)
    power = [0, 1, 0, 1]  # d (code 1, the empty word) and e_0 (code 0b11)
    for m in range(1, n):
        following = [0] * (4 << m)
        for degree in range(m + 1):
            top = 1 << degree
            for c in _codes(degree):
                x = power[c]
                following[(c << 1) | 1] += x
                passed, ends = 0, c ^ top  # d stands before the factor at bit `passed`
                while ends:
                    following[c + (c >> passed << passed)] += x << (lane * passed)
                    end = ends & -ends
                    ends ^= end
                    passed = end.bit_length()
                following[c] += x << (lane * degree)
        power = following
    return OperatorPoly(
        {
            (Comp._trusted(_code_word(c)), n - degree): _unpack_lanes(power[c], lane)
            for degree in range(n + 1)
            for c in _codes(degree)
        }
    )


@cache
def maurer_cartan_element(n: int) -> ElementPoly:
    """The element obtained by applying the deformed differential n-1 times to a.

    Defined by the recursion  M(1) = a,  M(n+1) = dM(n) + a*M(n), run on
    packed coefficients, one list slot per word code: dM raises each entry
    in turn, weighted by q to the degree left of it (as :func:`q_derivative`),
    and a*M prepends an entry (as :func:`multiply_by_a`).  Its reduction at an
    n-th root of unity is the full obstruction to the deformed differential
    having vanishing n-th power.  The curvature routes use the closed product
    formula for M(n) instead; this recursion is the definition that formula
    is checked against.

    >>> print(maurer_cartan_element(2))
    d(a) + a^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    lane = _lane_bits(n)
    element = [0, 0, 0, 1]  # a (code 0b11); M(m) holds words of degree m alone
    for m in range(1, n):
        following = [0] * (4 << m)
        below = (1 << m) - 1  # the bits of a degree-m word under its leading one
        for c in _codes(m):
            x = element[c]
            following[(c << 1) | 1] += x
            starts = ((c << 1) | 1) & below  # bit p set where an entry starts
            while starts:
                start = starts & -starts
                starts ^= start
                left = start.bit_length() - 1
                following[c + (c & -start)] += x << (lane * left)
        element = following
    return ElementPoly(
        {Comp._trusted(_code_word(c)): _unpack_lanes(element[c], lane) for c in _codes(n)}
    )
