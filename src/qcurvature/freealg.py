"""Free operator algebra generated by d and the multiplication operators e_j.

e_j stands for left multiplication by the j-th derivative of the degree-one
element a, so e_j carries degree j + 1 and the graded Leibniz rule gives the
single rewrite

    d * e_j  ->  e_{j+1} + q^(j+1) * e_j * d.

Normal ordering moves every d to the right of every e_j.  Expanding powers
of d + e_0 in this algebra (:func:`deformed_power`) is the oracle against
which the weighted-path model and the closed product formula are validated.
The element M(n) = D^(n-1) a of the recursion M(n+1) = dM(n) + a*M(n)
(:func:`maurer_cartan_element`) is read off it: it is D^n's d^0 block, D^n
applied to 1.  The expansion runs iteratively on one list per degree, indexed
by an int code of each word (its entries as runs of zero bits, so that every
rewrite is a bit operation and its power of q a bit position), holding
Kronecker-packed coefficients, one int per coefficient with a 64-bit multiple
of lane per power of q; the lane bound, (n+1)! after n steps, follows from
the rewrite rule alone.  Each kind of rewrite sends evenly spaced codes to
evenly spaced codes, so a step is a few list-slice additions.  Each word is
decoded once, at the end, from a table of the words of each degree built from
the previous degree's, in canonical order, into a (k, terms) stream that verify
reads and only the public functions gather.  Each distinct packed int of a
block is unpacked once and its QPoly shared by every word holding it: below
the lane bound packing is injective, and a QPoly is immutable.  It shares no
packing or decoding code with the production route.  The general
:class:`OperatorPoly` product is kept for arbitrary operators.

Every sum stores its terms in the stream's own shape, words as entries
tuples: an :class:`ElementPoly` is one block, a dict from word to
coefficient in canonical word order, and an :class:`OperatorPoly` is a dict
of such blocks by power of d, dpow descending.  The oracles gather each
streamed block with one ``dict``; the general constructor, which the general
product and the other operations build through, sorts once.  A :class:`Comp`
is made only at the public edge: ``terms()`` and ``items()`` hand words out
as Comps, and the constructors and ``coefficient()`` take and check them.
A sum is written as the CLI writes one, by the ``TEXT`` or ``LATEX`` style.
"""

from __future__ import annotations

__all__ = [
    "Term",
    "OperatorPoly",
    "ElementPoly",
    "normal_order",
    "q_derivative",
    "multiply_by_a",
    "deformed_power",
    "deformed_power_first_order",
    "maurer_cartan_element",
]

import sys
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import repeat
from math import factorial
from operator import add, lshift

from .cyclo import ONE, ZERO, CycloModulus, Frozen, QPoly, _folded_remainder
from .paths import LATEX, TEXT, Comp, _word_order

Generator = str | int  # "d", or an integer j standing for e_j


class Term(Frozen):
    """One normally ordered summand: coefficient * word * d^dpow."""

    __slots__ = ("coeff", "mono", "dpow")


def _word(mono: Comp) -> tuple[int, ...]:
    """The entries of ``mono``, checked to be a :class:`Comp`, the one public word
    type: a bare tuple or list has not passed the checks a Comp's constructor makes."""
    if not isinstance(mono, Comp):
        raise TypeError(f"a word must be a Comp, not {type(mono).__name__}")
    return mono.entries


def _power(dpow: int) -> int:
    """``dpow``, checked to be a power of d: an int (not a bool), nonnegative."""
    if type(dpow) is not int:
        raise TypeError(f"a power of d must be an int, not {type(dpow).__name__}")
    if dpow < 0:
        raise ValueError("a power of d must be nonnegative")
    return dpow


def _coefficient(coeff: QPoly) -> QPoly:
    """``coeff``, checked to be a :class:`QPoly`."""
    if not isinstance(coeff, QPoly):
        raise TypeError(f"a coefficient must be a QPoly, not {type(coeff).__name__}")
    return coeff


def _added(acc: dict, terms: Iterable[tuple]) -> dict:
    """``acc`` with each (key, coefficient) of ``terms`` added in."""
    for key, coeff in terms:
        acc[key] = acc.get(key, ZERO) + coeff
    return acc


def _canonical(block: dict[tuple[int, ...], QPoly]) -> dict[tuple[int, ...], QPoly]:
    """A block of words as entries: its zero coefficients dropped, its words in canonical order."""
    kept = [word for word, coeff in block.items() if coeff.coeffs]
    return {word: block[word] for word in sorted(kept, key=_word_order)}


def _by_power(blocks: dict[int, dict]) -> dict[int, dict]:
    """Blocks by power of d, each made canonical, dpow descending, empty ones dropped."""
    return {dpow: block for dpow in sorted(blocks, reverse=True) if (block := _canonical(blocks[dpow]))}


class _SparseSum(Frozen):
    """A finite sum of coefficient * word: what :class:`OperatorPoly` and
    :class:`ElementPoly` share.

    Words are stored as entries tuples, in blocks: dicts that hold no zero
    coefficient and keep their words in canonical order, so reading a block
    in order reads it sorted.  An element is one block; an operator keeps one
    per power of d, dpow descending.  The public constructors take Comps and
    check every word, power of d and coefficient.  The operations, and the
    operator oracles, whose streams come in this shape, build their results
    through :meth:`Frozen._trusted`, which takes a dict already in the stored
    shape with no check, sort or copy.  A sum is a :class:`Frozen` value whose
    one field, ``_terms``, each sum class declares itself (``Frozen`` reads a
    value's own ``__slots__``): it adds to and equals only a sum of its own
    class, and, holding a dict, is not hashable.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}('{self}')"


class OperatorPoly(_SparseSum):
    """Finite sum of coefficient * word * d^k in normal form.

    Built from a dict mapping (word, k) to a coefficient: a :class:`Comp`,
    a nonnegative int and a :class:`QPoly`.  Zero coefficients are never
    stored; multiplication triggers normal ordering via the Leibniz rewrite.
    Instances are immutable values: every operation returns a new one.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[Comp, int], QPoly] | None = None):
        blocks: dict[int, dict] = {}
        for (mono, dpow), coeff in (terms or {}).items():
            blocks.setdefault(_power(dpow), {})[_word(mono)] = _coefficient(coeff)
        self._fill(_by_power(blocks))

    # -- constructors --------------------------------------------------

    @classmethod
    def one(cls) -> OperatorPoly:
        return cls._trusted({0: {(): ONE}})

    @classmethod
    def d(cls) -> OperatorPoly:
        return cls._trusted({1: {(): ONE}})

    @classmethod
    def e(cls, j: int) -> OperatorPoly:
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        return cls._trusted({0: {Comp((j,)).entries: ONE}})

    # -- inspection -----------------------------------------------------

    def terms(self) -> list[Term]:
        """Summands in canonical order, dpow descending, then word order: the stored order."""
        comp = Comp._trusted
        blocks = self._terms.items()
        return [Term(coeff, comp(word), dpow) for dpow, block in blocks for word, coeff in block.items()]

    def coefficient(self, mono: Comp, dpow: int) -> QPoly:
        return self._terms.get(_power(dpow), {}).get(_word(mono), ZERO)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: OperatorPoly) -> OperatorPoly:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        acc = {dpow: dict(block) for dpow, block in self._terms.items()}
        for dpow, block in other._terms.items():
            _added(acc.setdefault(dpow, {}), block.items())
        return OperatorPoly._trusted(_by_power(acc))

    def __mul__(self, other: OperatorPoly) -> OperatorPoly:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        acc: dict[int, dict] = {}
        pushed = [other._terms]  # pushed[k] is d^k * other, shared by every term with dpow k
        for dpow_a, block_a in self._terms.items():
            while len(pushed) <= dpow_a:
                pushed.append(_d_times(pushed[-1]))
            for dpow_b, block_b in pushed[dpow_a].items():
                target = acc.setdefault(dpow_b, {})
                for word_a, coeff_a in block_a.items():
                    for word_b, coeff_b in block_b.items():
                        word = word_a + word_b
                        target[word] = target.get(word, ZERO) + coeff_a * coeff_b
        return OperatorPoly._trusted(_by_power(acc))

    def __pow__(self, n: int) -> OperatorPoly:
        if n < 0:
            raise ValueError("negative operator powers are not defined")
        result = OperatorPoly.one()
        for _ in range(n):
            result = result * self
        return result

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        terms = (
            (_operator_word(word, dpow), TEXT.coeff(coeff))
            for dpow, block in self._terms.items()
            for word, coeff in block.items()
        )
        return "".join(TEXT.pieces(terms))


def _operator_word(word: tuple[int, ...], dpow: int) -> str:
    """The word, given by its entries, times d^dpow in text; "1" when both are empty."""
    factors = [TEXT.render(word)] if word else []
    if dpow:
        factors.append("d" if dpow == 1 else f"d^{dpow}")
    return TEXT.sep.join(factors) or "1"


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


def _d_times(blocks: dict[int, dict]) -> dict[int, dict]:
    """Left multiplication by the single generator d, on an operator's blocks: the
    result may hold zeros and is unsorted, as the product that reads it builds its own sum."""
    acc: dict[int, dict] = {}
    for dpow, block in blocks.items():
        for word, coeff in block.items():
            for rewritten, extra, e in _word_rewrite(word):
                target = acc.setdefault(dpow + extra, {})
                target[rewritten] = target.get(rewritten, ZERO) + coeff.shift(e)
    return acc


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


class ElementPoly(_SparseSum):
    """A formal element of the module: a finite sum of coefficient * word.

    Built from a dict mapping a :class:`Comp` to a :class:`QPoly`, zero
    coefficients dropped.  There is no power of d in the key, so an element
    cannot carry d.  Instances are immutable values, as :class:`OperatorPoly`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Comp, QPoly] | None = None):
        checked = {_word(mono): _coefficient(coeff) for mono, coeff in (terms or {}).items()}
        self._fill(_canonical(checked))

    @classmethod
    def zero(cls) -> ElementPoly:
        return cls()

    def items(self) -> list[tuple[Comp, QPoly]]:
        """Summands in canonical word order: the stored order."""
        comp = Comp._trusted
        return [(comp(word), coeff) for word, coeff in self._terms.items()]

    def coefficient(self, mono: Comp) -> QPoly:
        return self._terms.get(_word(mono), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: ElementPoly) -> ElementPoly:
        if not isinstance(other, ElementPoly):
            return NotImplemented
        return ElementPoly._trusted(_canonical(_added(dict(self._terms), other._terms.items())))

    def reduce_mod(self, modulus: CycloModulus) -> ElementPoly:
        # reducing keeps the word order; only a vanished coefficient drops out
        remainder = _folded_remainder(modulus)
        reduced = ((word, remainder(coeff.coeffs)) for word, coeff in self._terms.items())
        return ElementPoly._trusted({word: coeff for word, coeff in reduced if coeff.coeffs})

    def __str__(self) -> str:
        terms = ((TEXT.render(word), TEXT.coeff(coeff)) for word, coeff in self._terms.items())
        return "".join(TEXT.pieces(terms))

    def latex(self) -> str:
        """The element in LaTeX, summands in canonical word order.

        >>> ElementPoly({Comp((1,)): QPoly((1, 1)), Comp((0, 0)): ONE}).latex()
        '(1+q)d_M(a) + a^{2}'
        """
        terms = ((LATEX.render(word), LATEX.coeff(coeff)) for word, coeff in self._terms.items())
        return "".join(LATEX.pieces(terms))


def q_derivative(p: ElementPoly) -> ElementPoly:
    """Graded Leibniz derivative on element polynomials.

    Each word picks up one term per factor: the factor's order is raised
    and the term is weighted by q to the degree of everything to its left.
    """
    acc: dict[tuple[int, ...], QPoly] = {}
    for entries, coeff in p._terms.items():
        left_degree = 0
        for i, entry in enumerate(entries):
            raised = entries[:i] + (entry + 1,) + entries[i + 1 :]
            acc[raised] = acc.get(raised, ZERO) + coeff.shift(left_degree)
            left_degree += entry + 1
    return ElementPoly._trusted(_canonical(acc))


def multiply_by_a(p: ElementPoly) -> ElementPoly:
    """Left multiplication by the deforming element: prepend a to each word."""
    return ElementPoly._trusted(_canonical({(0,) + entries: coeff for entries, coeff in p._terms.items()}))


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
# deformed_power runs its recursion on one list per degree, indexed by an
# int code of each word.  Read from bit 0 upwards, the code of
# (s_1, ..., s_L) is s_1 zeros and a one, then s_2 zeros and a one, and so
# on, with a leading one at bit D, the word's degree; the empty word is 1.
# Every nonempty word of degree D has a code in
# [3 * 2^(D-1), 2^(D+1)): the bit below the leading one closes the last
# entry.  So the offset j of a code in that range is its bits below D - 1,
# and the block of degree D has 2^(D-1) slots.  Entry i starts at bit P_i,
# the degree to its left, which is the power of q that d picks up on passing
# the factors before it, and every rewrite is a bit operation on j:
#   putting e_0 in front        j -> 2j + 1 in block D + 1
#   raising the first entry     j -> 2j in block D + 1
#   raising the entry at bit p  j -> 2j - (j mod 2^p) in block D + 1, weight q^p,
#                               where 1 <= p < D and bit p - 1 of j is set
#   d passing the whole word    j -> j in block D, weight q^D
# Each move sends evenly spaced offsets to evenly spaced offsets, so a step
# is a few list-slice additions whose per-element work runs in C.  Each
# word is decoded to its entries once, at the end, from a table of the words
# of each degree built from the previous degree's, in canonical order.  Each
# distinct packed int of a block is unpacked once, and its QPoly is shared by
# every word of the block that holds it: below the lane bound (next paragraph)
# packing is injective, so equal ints are equal polynomials, and a QPoly is
# immutable.  The memo lives for one block only.
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
# the prepended word and the m + 1 triples of d past w.  After step n every
# word has length at most n, and step 1 has mass at most 2, so the total mass
# of step n is at most 2 * 3 * ... * (n + 1) = (n + 1)!, and so is every lane
# and every partial sum.  The lane is rounded up to whole 64-bit words so that
# unpacking is one conversion to native words (one word holds n <= 19).
# deformed_power keys its blocks by the word alone: D^m is homogeneous of
# degree m (d has degree 1, e_j degree j + 1, and the rewrite keeps degree),
# so a word w of D^m stands for w * d^(m - deg w), and d's power is read off
# at the end.


def _raising_moves(degree: int) -> list[tuple[int, slice, slice]]:
    """The moves that raise an entry after the first, from block ``degree`` to the next.

    Each is ``(p, target slice, source slice)``, at weight q^p.  The entry at
    bit p starts where bit p - 1 of the offset is set, so offset
    a*2^p + 2^(p-1) + b, with b < 2^(p-1), goes to a*2^(p+1) + 2^(p-1) + b:
    2^(p-1) slices strided over a, or 2^(degree-1-p) runs over b, whichever
    are fewer.

    >>> _raising_moves(3)
    [(1, slice(1, None, 4), slice(1, None, 2)), (2, slice(2, 4, None), slice(2, 4, None))]
    """
    count = (1 << degree) >> 1
    moves = []
    for p in range(1, degree):
        step = 1 << p
        half = step >> 1
        if half <= count >> p:  # a slice for each b, here offset by 2^(p-1)
            moves += [
                (p, slice(b, None, 2 * step), slice(b, None, step)) for b in range(half, step)
            ]
        else:  # a run for each a, here a multiple of 2^p
            moves += [
                (p, slice(2 * a + half, 2 * a + step), slice(a + half, a + step))
                for a in range(0, count, step)
            ]
    return moves


def _add(target: list[int], source: list[int], moves: list, lane: int) -> None:
    """Add each move's source slots, shifted by q^p, into its target slots."""
    for p, t, s in moves:
        target[t] = map(add, target[t], map(lshift, source[s], repeat(lane * p)))


def _raised(block: list[int], moves: list, lane: int) -> list[int]:
    """The next degree's block from ``block``: e_0 in front, or d raising an entry.

    >>> _raised([1, 1], _raising_moves(2), 64) == [1, 1 + (1 << 64), 1, 1]  # M(3) from M(2)
    True
    """
    following = [0] * (2 * len(block))
    following[::2] = block  # the first entry raised, weight 1
    following[1::2] = block  # e_0 in front, weight 1
    _add(following, block, moves, lane)
    return following


def _next_words(words: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The words of degree D + 1 by offset, from those of degree D >= 1.

    Offset 2j is word j with its first entry raised, offset 2j + 1 is word j
    behind e_0.

    >>> _next_words(_next_words([(0,)]))
    [(2,), (0, 1), (1, 0), (0, 0, 0)]
    """
    following = [()] * (2 * len(words))
    following[::2] = [(w[0] + 1,) + w[1:] for w in words]
    following[1::2] = [(0,) + w for w in words]
    return following


def _decoded(
    block: list[int], words: list[tuple[int, ...]], lane: int
) -> Iterator[tuple[tuple[int, ...], QPoly]]:
    """The words of ``block``, as entries, and their coefficients, in canonical word order.

    Within a degree that order is by length, the offset's popcount, then by
    offset descending.  Each packed int is dropped once it is read.  Each
    distinct int of the block is unpacked once, and every word holding it
    gets the same :class:`QPoly`: below the lane bound packing is injective,
    so equal ints are equal polynomials, and a QPoly is immutable.

    >>> block, words = [1, 1 + (1 << 64), 1, 1], _next_words(_next_words([(0,)]))
    >>> terms = list(_decoded(block, words, 64))
    >>> [(w, c.coeffs) for w, c in terms]
    [((2,), (1,)), ((1, 0), (1,)), ((0, 1), (1, 1)), ((0, 0, 0), (1,))]
    >>> terms[0][1] is terms[1][1]  # two words holding the int 1 share one QPoly
    True
    """
    seen: dict[int, QPoly] = {}
    for j in sorted(range(len(block) - 1, -1, -1), key=int.bit_count):
        x, block[j] = block[j], 0
        coeff = seen.get(x)
        if coeff is None:
            coeff = seen[x] = _unpack_lanes(x, lane)
        yield words[j], coeff


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
    lanes = words[::width].tolist()
    for j in range(1, width):
        lanes = [low | high << (64 * j) for low, high in zip(lanes, words[j::width])]
    return QPoly._trusted(tuple(lanes))


@cache
def deformed_power(n: int) -> OperatorPoly:
    """Normal form of (d + e_0)^n over generic q, gathered from :func:`_operator_terms`.

    Built as D^(m+1) = e_0 * D^m + d * D^m on packed coefficients, one list
    per degree with one slot per word: e_0 prepends an entry, and d is pushed
    past the word one factor at a time, raising the factor it meets with
    weight q to the degree it has passed, or passing the whole word with
    weight q^deg.  Each kind of move is a few list-slice additions.  The pure
    d^n term is kept, and the terms come out in canonical order.

    >>> print(deformed_power(2))
    d^2 + (1+q)*a*d + d(a) + a^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    return OperatorPoly._trusted({k: dict(terms) for k, terms in _operator_terms(n)})


def _operator_terms(n: int) -> Iterator[tuple[int, Iterator]]:
    """The terms of :func:`deformed_power` as a stream (k, terms), k = n..0, in the shape
    of the curvature routes: the words of degree n - k, as entries in canonical order."""
    lane = _lane_bits(n)
    moves = [_raising_moves(degree) for degree in range(n)]
    power = [[1], [1]]  # by degree: d (the empty word) and e_0
    for m in range(1, n):
        # d^(m+1) keeps coefficient 1; e_0 is e_0 in front of d^m, or d passing e_0
        following = [power[0], [1 + (power[1][0] << lane)]]
        for degree in range(2, m + 2):
            block = _raised(power[degree - 1], moves[degree - 1], lane)
            if degree <= m:  # d passing the whole word
                _add(block, power[degree], [(degree, slice(None), slice(None))], lane)
            following.append(block)
        power = following
    yield n, iter([((), ONE)])
    words = [(0,)]
    for degree in range(1, n + 1):
        if degree > 1:
            words = _next_words(words)
        yield n - degree, _decoded(power[degree], words, lane)


@cache
def maurer_cartan_element(n: int) -> ElementPoly:
    """The element obtained by applying the deformed differential n-1 times to a:
    the d^0 block of :func:`deformed_power`, shared with its cached value.

    Defined by the recursion  M(1) = a,  M(n+1) = dM(n) + a*M(n).  Applied
    to 1, D^n = sum_k c_k d^k gives c_0, since every d^k with k >= 1 kills
    1, and D^n 1 = D^(n-1) a = M(n).  Its reduction at an n-th root of unity
    is the full obstruction to the deformed differential having vanishing
    n-th power.  The curvature routes use the closed product formula for
    M(n) instead, which verify checks against this block.

    >>> print(maurer_cartan_element(2))
    d(a) + a^2
    """
    if n < 1:
        raise ValueError("n must be positive")
    return ElementPoly._trusted(deformed_power(n)._terms[0])
