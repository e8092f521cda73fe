"""Curvature expansions of the deformed differential, and their cross-checks.

The n-th power of the deformed differential d + a expands as a sum of
element coefficients times powers of d.  This module assembles that
expansion three independent ways (weighted path model, direct operator
expansion, q-binomial power formula), reduces it at roots of unity,
extracts the first-order (infinitesimal) coefficients, and packages all
pairwise consistency checks into a verification report, most checks one merge
of two (k, terms) streams (:func:`_differences`).

Routes.  The power formula is the production route of both modes under the
oracle-arbitrated weight rule, streamed by :func:`production_terms` from one
packed q-Pascal table per call at one width: its last row gives [n choose k]_q,
and one walk in canonical word order (:func:`_closed_form_walk`) reads it for
the closed product formula of M(k) = D^(k-1) a.  :func:`expansion_terms` is
the one place where a rule picks its route: the arbitrated rule reads that stream,
and any other rule, which the power formula does not cover, reads the path
model's stream (:func:`_path_terms`) in the same (k, terms) shape.  The
library's expansions (:func:`generic_expansion`, :func:`root_of_unity_expansion`)
and every CLI format read that one stream, through the word style that
renders both words and coefficients (``TEXT``, ``LATEX``, or :class:`Entries`,
which keeps entries and QPolys).  The path model under the
arbitrated rule (gathered by :func:`path_expansion`, :func:`path_root_expansion`)
and the operator expansion are oracles; verify reads each as a stream, never a
cache.  M(k), the element the recursion M(k+1) = dM(k) + a*M(k) defines, is
the operator expansion's d^0 block, D^k applied to 1
(:func:`maurer_cartan_element`).
"""

from __future__ import annotations

__all__ = [
    "CurvatureExpansion",
    "InfinitesimalCoefficients",
    "CompositionSumComparison",
    "COMPOSITION_SUM_READINGS",
    "VerifyReport",
    "path_expansion",
    "path_root_expansion",
    "generic_expansion",
    "root_of_unity_expansion",
    "infinitesimal_coefficients",
    "infinitesimal_from_operator",
    "infinitesimal_composition_sum",
    "four_step_listing_mismatches",
    "resolve_default_rule",
    "verify_suite",
]

from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cache, partial
from math import comb, factorial, isqrt

from .cyclo import (
    ONE,
    ZERO,
    CycloModulus,
    Frozen,
    QPoly,
    _folded_remainder,
    coeffs_list,
    poly_from_coeffs,
    q_binomial,
    totient,
)
from .freealg import (
    ElementPoly,
    OperatorPoly,
    _canonical,
    _operator_terms,
    deformed_power_first_order,
)
from .paths import (
    Comp,
    Entries,
    WeightRule,
    WordStyle,
    _degree,
    _last_table,
    _path_sums_enum,
    _steps,
    _word_order,
)

GENERIC = "generic"
ROOT = "root"


Blocks = Iterable[tuple[int, Iterable[tuple[object, object]]]]
Words = type[Entries] | WordStyle
Table = Mapping[tuple, QPoly]  # a step table of the path model, keyed by entries


def _identity(value: QPoly) -> QPoly:
    return value


class CurvatureExpansion(Frozen):
    """Expansion of the n-th deformed power as sum of c_k * d^k.

    In generic mode k runs 0..n and c_n is the scalar 1 (the all-stay
    path at the empty vertex).  In root-of-unity mode k runs 0..n-1, every
    coefficient is reduced modulo the n-th cyclotomic polynomial, and
    vanished coefficients are removed from the map.  Every word of c_k has
    degree n - k, so no word carries a derivative of order >= n.
    """

    __slots__ = ("n", "mode", "rule", "c")

    def __init__(self, n: int, mode: str, rule: WeightRule, c: dict[int, ElementPoly]):
        self._fill(n, mode, rule, c)

    def coefficient(self, k: int) -> ElementPoly:
        return self.c.get(k, ElementPoly.zero())

    def powers(self) -> list[int]:
        return sorted(self.c, reverse=True)

    def as_operator(self) -> OperatorPoly:
        """The sum of c[k] * d^k over k, as one operator."""
        # each c[k] is already a block of the operator's stored shape, in word order
        return OperatorPoly._trusted({k: self.c[k]._terms for k in self.powers() if self.c[k]._terms})

    def to_json_dict(self) -> dict:
        blocks = ((k, ((s, coeffs_list(c)) for s, c in self.c[k]._terms.items()))
                  for k in self.powers())
        return expansion_json(self.n, self.mode, self.rule, blocks)

    @classmethod
    def from_json_dict(cls, data: dict) -> CurvatureExpansion:
        """Inverse of :meth:`to_json_dict`; raises ValueError on a malformed payload."""
        try:
            n, mode = _json_int(data["n"]), data["mode"]
            if mode not in (GENERIC, ROOT):
                raise ValueError(f"unknown mode {mode!r}")
            if n < (1 if mode == GENERIC else 2):
                raise ValueError(f"n={n} is too small for {mode} mode")
            # generic mode has powers d^0..d^n; at a root d^n is gone
            top = n if mode == GENERIC else n - 1
            # reject an unreduced coefficient at a root, and what would be
            # merged or dropped, so would not round-trip: a duplicate, an
            # empty power, a zero coefficient or a trailing zero.  At a root,
            # deg Phi_n = phi(n) >= sqrt(n / 2), so only a coefficient of
            # degree isqrt(n // 2) or more needs phi(n), whose trial division
            # then takes about as many steps as that coefficient has entries
            c: dict[int, ElementPoly] = {}
            for entry in data["c"]:
                k = _json_int(entry["k"])
                if not 0 <= k <= top:
                    raise ValueError(f"power k={k} out of range 0..{top} for {mode} n={n}")
                if k in c:
                    raise ValueError(f"power k={k} appears twice")
                terms = {}
                for item in entry["terms"]:
                    mono = Comp(_json_list(item["s"]))
                    word = list(mono.entries)
                    if mono.degree() != n - k:
                        raise ValueError(
                            f"word {word} at k={k} has degree "
                            f"{mono.degree()}, expected n - k = {n - k}"
                        )
                    if mono in terms:
                        raise ValueError(f"word {word} appears twice at k={k}")
                    listed = _json_list(item["coeff"])
                    coeff = poly_from_coeffs(listed)
                    if coeff.is_zero() or listed[-1] == 0:
                        raise ValueError(f"word {word} at k={k} has coefficient {list(listed)}")
                    long = mode == ROOT and coeff.degree >= isqrt(n // 2)
                    if long and coeff.degree >= totient(n):
                        raise ValueError(
                            f"word {word} at k={k} has coefficient {list(listed)}, "
                            f"not reduced mod Phi_{n}"
                        )
                    terms[mono] = coeff
                if not terms:
                    raise ValueError(f"power k={k} has no terms")
                c[k] = ElementPoly(terms)
            return cls(n=n, mode=mode, rule=WeightRule(data["rule"]), c=c)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed curvature expansion: {exc}") from exc


def expansion_json(n: int, mode: str, rule: WeightRule, blocks: Blocks) -> dict:
    """The JSON form of an expansion from its blocks, words as entries; a power
    with no terms is left out.  Coefficients are kept as they arrive: lists,
    or QPolys, which ``cli._emit_json`` lists as it writes them."""
    c = []
    for k, terms in blocks:
        listed = [{"s": list(s), "coeff": coeff} for s, coeff in terms]
        if listed:
            c.append({"k": k, "terms": listed})
    return {"n": n, "mode": mode, "rule": rule.value, "c": c}


def _json_int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _json_list(value: object) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return tuple(value)


def _path_terms(n: int, mode: str, final: Table, words: Words = Entries) -> Blocks:
    """The path model's expansion of ``mode`` from ``final``, the dynamic
    program's table n, in the shape of :func:`production_terms`.

    Every vertex reached in n steps contributes its path sum as the
    coefficient of its word, attached to d^(number of stay steps).  Every
    edge weight is a power of q, so no path sum of a reached vertex is zero.
    At the root, d^n is gone and every coefficient is reduced modulo the
    n-th cyclotomic polynomial; coefficients that vanish are skipped.
    """
    reduce = _identity
    if mode == ROOT:
        remainder = _folded_remainder(CycloModulus.of(n))  # one division for every coefficient

        def reduce(c: QPoly) -> QPoly:
            return remainder(c.coeffs)

    by_power: dict[int, list[tuple[int, ...]]] = {}
    for s in final:
        by_power.setdefault(n - _degree(s), []).append(s)
    for k in range(n if mode == GENERIC else n - 1, -1, -1):
        found = sorted(by_power.pop(k, ()), key=_word_order)
        values = ((s, reduce(final[s])) for s in found)
        yield k, ((words.render(s), words.coeff(c)) for s, c in values if c)


def _gathered(blocks: Blocks) -> dict[int, ElementPoly]:
    """Blocks, words as entries, gathered into element coefficients, keys
    ascending, vanished ones dropped.  Every route streams its words in
    canonical order and skips vanished coefficients, so each block, words
    still entries, is gathered with one ``dict`` as it comes."""
    c = {k: ElementPoly._trusted(dict(terms)) for k, terms in blocks}
    return {k: c[k] for k in sorted(c) if not c[k].is_zero()}


def _expansion(
    n: int, mode: str, rule: WeightRule | None, blocks: Callable[[WeightRule], Blocks]
) -> CurvatureExpansion:
    """The expansion in ``mode`` that ``blocks(rule)`` streams, gathered: n is checked
    against the mode's range first, then ``rule`` resolved (None is the arbitrated default)."""
    if n < (1 if mode == GENERIC else 2):
        raise ValueError("n must be positive" if mode == GENERIC else "root-of-unity mode needs n >= 2")
    rule = rule if rule is not None else resolve_default_rule()
    return CurvatureExpansion(n, mode, rule, _gathered(blocks(rule)))


def path_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Generic-mode expansion assembled from weighted path sums (an oracle):
    :func:`_path_terms` over the dynamic program's table n (:func:`_last_table`), gathered."""
    return _expansion(n, GENERIC, rule, lambda rule: _path_terms(n, GENERIC, _last_table(n, rule)))


def path_root_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Expansion at a primitive n-th root of unity from the path model (an
    oracle): :func:`_path_terms` at the root, over the same last table, gathered."""
    return _expansion(n, ROOT, rule, lambda rule: _path_terms(n, ROOT, _last_table(n, rule)))


# ---------------------------------------------------------------------------
# closed form of M(n), Kronecker-packed
# ---------------------------------------------------------------------------
#
# The coefficient of the word s = (s_1, ..., s_m) in M(n) = D^(n-1) a is
#
#     M(n)[s] = prod_i [P_i + s_i choose s_i]_q,   P_i = sum_{j<i} (s_j + 1).
#
# M(n) arises from a by n - 1 operations, each prepending a new entry or
# raising one; raising entry i is weighted by q^(degree left of i).  That
# degree counts the operations already spent on the entries left of i, and
# there are P_i of them in all, so the weights of the ways to shuffle entry
# i's s_i raises among those P_i operations sum to a Gaussian binomial.
#
# A coefficient sum_e c_e q^e is packed as the int sum_e c_e 2^(bits*e)
# (Kronecker substitution), so a product of coefficients is one int
# multiply.  Packing is exact while every coefficient stays below 2^bits.
# All coefficients involved are nonnegative, so each is at most the value
# of its polynomial at q = 1.  At q = 1 the product above counts orderings
# of the n - 1 operations, so it is at most (n-1)!: indeed
# C(P_i + s_i, s_i) <= (P_i + s_i)! / P_i! = (P_{i+1} - 1)! / P_i!, and the
# product of these telescopes to at most (n-1)!.  Scaled by [N choose n]_q
# the bound is C(N, n) * (n-1)!.  :func:`_packing_bits` leaves one bit to
# spare, which root mode needs (see :func:`production_terms`).  One width,
# the largest over n = 1..N, thus holds every block of a call, and each factor
# of a block's product too, being at least 1 at q = 1: the walk's partial
# products, its table's entries, and row N's [N choose n]_q, the blocks' scalars.


def _packing_bits(big_n: int, n: int) -> int:
    """Bits per power of q that hold every coefficient of [N choose n]_q * M(n)."""
    return (comb(big_n, n) * factorial(n - 1)).bit_length() + 1


def _unpack(x: int, bits: int) -> list[int]:
    """The coefficients packed in ``x`` at ``bits`` bits per power of q, up to the leading one."""
    mask = (1 << bits) - 1
    return [(x >> (bits * e)) & mask for e in range(-(-x.bit_length() // bits))]


def _binomial_rows(n: int, bits: int) -> list[list[int]]:
    """Rows 0..n-1 of the q-Pascal triangle: ``rows[m][j]`` is [m choose j]_q, packed at ``bits``."""
    rows = [[1]]
    for m in range(1, n):
        above = rows[-1]
        rows.append([1] + [above[j - 1] + (above[j] << (bits * j)) for j in range(1, m)] + [1])
    return rows


def _closed_form_walk(n: int, rows: list[list[int]], words: Words = Entries) -> Iterator[tuple[object, int]]:
    """Every word of degree n with its closed-form coefficient in M(n), packed.

    Words come in canonical order (:meth:`Comp.sort_key`: by length, then
    from the last entry backwards), built by ``words`` (see
    :class:`Entries`); coefficients are products of entries of ``rows``
    (:func:`_binomial_rows`, at least n rows), packed at their width.  For
    each length the walk fixes the last entry first, depth-first.  A suffix
    of degree D leaves room n - D, so the entry s_i in front of it has
    P_i + s_i = n - D - 1 and its factor is known from the suffix: extending
    costs one multiply by a packed Gaussian binomial, and the first entry's
    factor is 1.  Nothing is collected or sorted.  The caller picks the
    width large enough (:func:`_packing_bits`).  The word (0, 1, 1) of M(5)
    has coefficient [2]_q * [4]_q:

    >>> packed = dict(_closed_form_walk(5, _binomial_rows(5, 8)))
    >>> _unpack(packed[(0, 1, 1)], 8)
    [1, 2, 2, 2, 1]
    """
    prepend, finish = words.prepend, words.finish
    for length in range(1, n + 1):
        # (suffix, entries left to place, room left for them, packed product over the suffix)
        stack = [(words.empty, length, n, 1)]
        while stack:
            suffix, left, room, product = stack.pop()
            if left == 1:
                yield finish(prepend(room - 1, suffix)), product
                continue
            row = rows[room - 1]
            # every entry still to place takes at least 1 of the room; pushed
            # high to low, so the stack hands them back ascending
            for entry in range(room - left, -1, -1):
                extended = prepend(entry, suffix)
                stack.append((extended, left - 1, room - entry - 1, product * row[entry]))


def _distinct(
    walk: Iterable[tuple[object, int]], decode: Callable[[int], QPoly], coeff: Callable
) -> Iterator[tuple[object, object]]:
    """(word, coeff(decode(x))) for each (word, x) of ``walk`` that decodes to nonzero.

    Each distinct x is decoded and rendered once: words share
    coefficients (at the root, the 65,536 words of M(17) fold to 20,796
    distinct ints, and the 524,288 of M(20) to 165,814).
    """
    seen: dict[int, object] = {}
    for word, x in walk:
        if x not in seen:
            value = decode(x)
            seen[x] = coeff(value) if value else None
        shown = seen[x]
        if shown is not None:
            yield word, shown


def production_terms(n: int, mode: str, words: Words = Entries) -> Blocks:
    """The production route of ``mode`` under the oracle-arbitrated rule, as a stream.

    Yields (k, terms) for every power d^k from the top down (d^n in generic
    mode, d^(n-1) at the root).  ``terms`` yields (word, coefficient) in
    canonical word order, both built by ``words`` (see :class:`Entries`),
    vanished coefficients skipped.

    Generic mode: c[n] = 1 and c[n-k] = [n choose k]_q * M(k), M(k) from
    :func:`_closed_form_walk` over one q-Pascal table per call, whose row n
    scales each distinct packed coefficient before its one decode.  Root
    mode: every middle Gaussian binomial vanishes at the root, so only c[0]
    = M(n) reduced modulo Phi_n survives.  Each word's coefficient is folded
    modulo q^n - 1 while packed, then divided by Phi_n.
    """
    bits = max(_packing_bits(n, m) for m in range(1, n + 1))
    rows = _binomial_rows(n + 1, bits)
    if mode == ROOT:
        # Adding x >> width onto x & ring adds lane e + n onto lane e, so the
        # loop folds x modulo q^n - 1, packed.  The folded coefficients sum
        # to at most (n-1)! < 2^(bits-1), so no lane carries into the next,
        # and the loop ends at the fold itself, below ring: at most n lanes.
        width = bits * n
        ring = (1 << width) - 1
        remainder = _folded_remainder(CycloModulus.of(n))

        def fold(x: int) -> int:
            while x > ring:
                x = (x & ring) + (x >> width)
            return x

        def reduce_folded(x: int) -> QPoly:
            return remainder(_unpack(x, bits))

        for k in range(n - 1, 0, -1):
            yield k, iter(())
        folded = ((word, fold(x)) for word, x in _closed_form_walk(n, rows, words))
        yield 0, _distinct(folded, reduce_folded, words.coeff)
        return
    yield n, iter([(words.finish(words.empty), words.coeff(ONE))])
    for k in range(n - 1, -1, -1):
        def scaled(x: int, binomial: int = rows[n][k]) -> QPoly:
            return QPoly._trusted(tuple(_unpack(x * binomial, bits)))
        yield k, _distinct(_closed_form_walk(n - k, rows, words), scaled, words.coeff)


def expansion_terms(n: int, mode: str, rule: WeightRule, words: Words = Entries) -> Blocks:
    """The expansion of ``mode`` under ``rule``, in the shape of :func:`production_terms`:
    the one place where a rule picks its route.  The power formula is a theorem
    about the oracle-arbitrated rule only; any other is read out of the path
    model (:func:`_path_terms`) over the dynamic program's last table
    (:func:`_last_table`), built holding two tables at a time and kept nowhere."""
    if rule is resolve_default_rule():
        return production_terms(n, mode, words)
    return _path_terms(n, mode, _last_table(n, rule), words)


def generic_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Generic-mode expansion, gathered from :func:`expansion_terms`: the power
    formula under the oracle-arbitrated rule, else :func:`path_expansion`."""
    return _expansion(n, GENERIC, rule, partial(expansion_terms, n, GENERIC))


def root_of_unity_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Expansion at a primitive n-th root of unity, gathered from
    :func:`expansion_terms`: under the oracle-arbitrated rule M(n) reduced
    modulo the n-th cyclotomic polynomial, as c[0] (dropped when zero), else
    :func:`path_root_expansion`."""
    return _expansion(n, ROOT, rule, partial(expansion_terms, n, ROOT))


# ---------------------------------------------------------------------------
# infinitesimal deformations (coefficient of t with t^2 = 0)
# ---------------------------------------------------------------------------


class InfinitesimalCoefficients(Frozen):
    """First-order coefficients: entry m multiplies t * d^m(e) * d^(n-1-m)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[QPoly, ...]):
        self._fill(n, coeffs)

    def reduced(self, modulus: CycloModulus) -> InfinitesimalCoefficients:
        return InfinitesimalCoefficients(
            self.n, tuple(modulus.reduce(c) for c in self.coeffs)
        )


def _spine_dp(steps: int, stay: list[int], move: list[int]) -> list[QPoly]:
    """Total weight at every position of a chain after ``steps`` steps.

    Walks start at position 0; each step stays at p, with weight q^stay[p],
    or moves from p to p + 1, with weight q^move[p] (not from the last p).

    >>> _spine_dp(2, [0, 1], [0])
    [QPoly('1'), QPoly('1 + q')]
    """
    sums = [ONE] + [ZERO] * (len(stay) - 1)
    for _ in range(steps):
        for p in range(len(stay) - 1, 0, -1):  # high to low: sums[p - 1] is still the last step
            sums[p] = sums[p].shift(stay[p]) + sums[p - 1].shift(move[p - 1])
        sums[0] = sums[0].shift(stay[0])
    return sums


def infinitesimal_coefficients(
    n: int, rule: WeightRule | None = None
) -> InfinitesimalCoefficients:
    """Path-model first-order coefficients.

    Only single-entry words survive when the deformation parameter squares
    to zero, so every contributing path climbs the spine
    ∅ -> (0) -> ... -> (n-1) of single-entry vertices, and entry m is the
    weight of the length-n walks ending at (m).  One walk of the spine's
    forward DP (:func:`_spine_dp`) gives every entry.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rule = rule if rule is not None else resolve_default_rule()
    stay = list(range(n + 1))  # the spine's degrees: 0 for the empty word, j + 1 for (j)
    # the prepend step is weight 1; then raise the single entry j to j + 1
    move = [0] + [rule.increment_exponents((j,))[0] for j in range(n - 1)]
    return InfinitesimalCoefficients(n, tuple(_spine_dp(n, stay, move)[1:]))


def infinitesimal_from_operator(n: int) -> InfinitesimalCoefficients:
    """First-order coefficients extracted from the nilpotent operator power."""
    if n < 2:
        raise ValueError("n must be at least 2")
    op = deformed_power_first_order(n)
    coeffs = tuple(
        op.coefficient(Comp._trusted((m,)), n - 1 - m) for m in range(n)
    )
    return InfinitesimalCoefficients(n, coeffs)


COMPOSITION_SUM_READINGS = ("occupancy", "stay", "block")


class CompositionSumComparison(Frozen):
    """One reading of the closed composition-sum formula, checked per entry."""

    __slots__ = ("n", "convention", "values", "reference", "matches")

    def __init__(self, n: int, convention: str, values: tuple[QPoly, ...],
                 reference: tuple[QPoly, ...], matches: tuple[bool, ...]):
        self._fill(n, convention, values, reference, matches)


def infinitesimal_composition_sum(
    n: int, convention: str, rule: WeightRule | None = None
) -> CompositionSumComparison:
    """Evaluate a candidate reading of the closed first-order formula.

    The formula sums q^(|v| + sum of i*v_i) over a set of integer vectors
    attached to the spine, but the intended vector meaning is ambiguous.  A
    stay count v_i enters the exponent as (i+1)*v_i, so each reading is one
    walk of :func:`_spine_dp` with free moves, and entry m reads the walks
    with n-1-m stays.  Three readings are implemented:

    - ``occupancy``: entries are occupancies (>= 1) of the m+1 nonempty
      spine vertices, summing to n, and the empty vertex is never stayed
      at: stays weigh [1, ..., n], over n-1 steps.
    - ``stay``: entries are stay counts (>= 0) at the m+1 nonempty spine
      vertices, and the empty vertex takes the slack with weight one:
      stays weigh [0, 1, ..., n], over n steps read from position 1.
    - ``block``: entries are occupancies (>= 1) of the m+1 blocks from the
      empty vertex, so the target gets no stays, and the leading entry is
      left out of |v|: stays weigh [0, 2, ..., n], over n-1 steps.

    Every entry is compared against the path-model value; the result
    records, per entry, whether the reading reproduces it.
    """
    if convention not in COMPOSITION_SUM_READINGS:
        raise ValueError(f"unknown convention {convention!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    reference = infinitesimal_coefficients(n, rule).coeffs
    free = [0] * n
    if convention == "occupancy":
        values = _spine_dp(n - 1, list(range(1, n + 1)), free)
    elif convention == "stay":
        values = _spine_dp(n, list(range(n + 1)), free)[1:]
    else:
        values = _spine_dp(n - 1, [0] + list(range(2, n + 1)), free)
    matches = tuple(v == r for v, r in zip(values, reference))
    return CompositionSumComparison(n, convention, tuple(values), reference, matches)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


# The two conventions agree at n = 2 and split from n = 3 on; this range
# is fixed by design, independent of how far a verification run reports.
ARBITRATION_N_MAX = 6


def _oracle_rows(rule: WeightRule, tables: Iterable[Table]) -> Iterator[CheckResult]:
    """The oracle-equivalence rows of ``rule``, one per table n >= 2 of a DP pass, built as read."""
    return (_check_oracle_equivalence(n, rule, table) for n, table in enumerate(tables) if n >= 2)


def _first_failure(rows: Iterable[CheckResult]) -> dict | None:
    """The counterexample of the first failing row, read no further; None when every row passes."""
    return next((row.counterexample for row in rows if not row.passed()), None)


@cache
def resolve_default_rule() -> WeightRule:
    """The weight rule validated against the operator oracle.

    Exactly one of the two conventions reproduces the direct operator
    expansion for n = 2..ARBITRATION_N_MAX; that one is the shipped default.
    """
    # lazy rows, so each rule stops at its first failure
    passing = [r for r in WeightRule if _first_failure(_oracle_rows(r, _steps(ARBITRATION_N_MAX, r))) is None]
    if len(passing) != 1:
        raise RuntimeError(f"rule arbitration did not single out one rule: {passing}")
    return passing[0]


# Hand-worked weights for the four-step expansion, transcribed verbatim from
# the original derivation that this package mechanises.  The verify suite
# recomputes every entry exactly and reports each disagreement; values here
# are never used in any computation.
REFERENCE_FOUR_STEP_WEIGHTS: dict[tuple[int, ...], tuple[int, ...]] = {
    (0,): (1, 1, 1, 1),
    (1,): (1, 0, 1),
    (2,): (1, 1, 1, 1),
    (3,): (1,),
    (0, 0): (1, 0, 1),
    (1, 0): (1, 1, 1, 1),
    (0, 1): (2, 2, 2, 2),
    (2, 0): (1,),
    (0, 2): (1, 1, 1),
    (1, 1): (1, 0, 1),
    (0, 0, 0): (1, 1, 1, 1),
    (1, 0, 0): (1,),
    (0, 1, 0): (1, 1),
    (0, 0, 1): (1, 1, 1),
    (0, 0, 0, 0): (1,),
}

THREE_STEP_DISPLAY_NOTE = (
    "the closed-form display of the three-step obstruction omits the a^3 "
    "word that the per-vertex enumeration produces with coefficient 1; "
    "this package keeps it"
)


class CheckResult(Frozen):
    __slots__ = ("check", "n", "status", "rule", "counterexample")

    def __init__(self, check: str, n: int, status: str,  # "pass" | "fail"
                 rule: str | None = None, counterexample: dict | None = None):
        self._fill(check, n, status, rule, counterexample)

    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out: dict = {"check": self.check, "n": self.n, "status": self.status}
        if self.rule is not None:
            out["rule"] = self.rule
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class ListingMismatch(Frozen):
    __slots__ = ("s", "stated", "computed")

    def __init__(self, s: tuple[int, ...], stated: tuple[int, ...], computed: tuple[int, ...]):
        self._fill(s, stated, computed)

    def to_json_dict(self) -> dict:
        return {
            "s": list(self.s),
            "stated": list(self.stated),
            "computed": list(self.computed),
        }


class VerifyReport(Frozen):
    __slots__ = ("n_max", "requested_rule", "selected_rule", "checks", "arbitration",
                 "four_step_mismatches", "three_step_display", "passed")

    def __init__(self, n_max: int, requested_rule: str, selected_rule: str,
                 checks: tuple[CheckResult, ...], arbitration: dict,
                 four_step_mismatches: tuple[ListingMismatch, ...],
                 three_step_display: dict, passed: bool):
        self._fill(n_max, requested_rule, selected_rule, checks, arbitration,
                   four_step_mismatches, three_step_display, passed)

    def to_json_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "requested_rule": self.requested_rule,
            "selected_rule": self.selected_rule,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "arbitration": self.arbitration,
            "reference_discrepancies": {
                "three_step_display": self.three_step_display,
                "four_step_listing": [m.to_json_dict() for m in self.four_step_mismatches],
            },
        }

    def summary_lines(self) -> list[str]:
        lines = [f"weight rule: {self.selected_rule} (requested: {self.requested_rule})"]
        for c in self.checks:
            label = c.check if c.rule is None else f"{c.check}[{c.rule}]"
            line = f"{label:<32} n={c.n:<3} {c.status.upper()}"
            if c.counterexample:
                line += f"  counterexample: {c.counterexample}"
            lines.append(line)
        arb = self.arbitration
        lines.append(
            f"arbitration: passing={arb['passing']} failing={arb['failing']} "
            f"first counterexample: {arb['counterexample']}"
        )
        lines.append(f"note: {self.three_step_display['note']}")
        if self.four_step_mismatches:
            lines.append("four-step reference listing disagreements (stated vs computed):")
            for m in self.four_step_mismatches:
                s = ",".join(str(x) for x in m.s) or "∅"
                stated = poly_from_coeffs(m.stated)
                computed = poly_from_coeffs(m.computed)
                lines.append(f"  s={s}: stated {stated}  computed {computed}")
        else:
            lines.append("four-step reference listing: no disagreements")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def _row(check: str, n: int, rule: WeightRule | None, counterexample: dict | None) -> CheckResult:
    """A check's result: it passes exactly when there is no counterexample."""
    status = "pass" if counterexample is None else "fail"
    return CheckResult(check, n, status, None if rule is None else rule.value, counterexample)


def _differences(reference: Blocks, *streams: Blocks) -> list[tuple | None]:
    """For each of ``streams``, the canonically first (k, word, reference value, its
    value) where it differs from ``reference``; None where the two agree.

    All are in the shape of :func:`production_terms`, words as entries, and are walked
    in lockstep, each term read once; a word missing from a stream reads ZERO there.
    The walk stops once every stream has differed.
    """
    found: list[tuple | None] = [None] * len(streams)
    # (key, word, value) for each term, the key ordering by -k, then the canonical word order
    flat = [(((-k, _word_order(w)), w, value) for k, terms in blocks for w, value in terms)
            for blocks in (reference, *streams)]
    heads = [next(terms, None) for terms in flat]
    while None in found and any(heads):
        key = min(head[0] for head in heads if head)
        values = [ZERO] * len(heads)
        for i, head in enumerate(heads):
            if head and head[0] == key:
                word, values[i] = head[1:]
                heads[i] = next(flat[i], None)
        for i, value in enumerate(values[1:]):
            if found[i] is None and value != values[0]:
                found[i] = (-key[0], word, values[0], value)
    return found


def _compared(check: str, n: int, rule: WeightRule | None, found: tuple | None,
              names: dict[str, int]) -> CheckResult:
    """``check``'s row at n from ``found`` by :func:`_differences`, its values named by route:
    ``names`` maps each, in order, to 0 for the reference stream's value, 1 for the other's."""
    if found is None:
        return _row(check, n, rule, None)
    k, word, *values = found
    named = {route: coeffs_list(values[i]) for route, i in names.items()}
    return _row(check, n, rule, {"n": n, "s": list(word), "dpow": k, **named})


def _check_oracle_equivalence(n: int, rule: WeightRule, final: Table) -> CheckResult:
    [found] = _differences(_path_terms(n, GENERIC, final), _operator_terms(n))
    return _compared("oracle-equivalence", n, rule, found, {"path_value": 0, "oracle_value": 1})


def _check_roots(n: int, rule: WeightRule, final: Table, production: bool) -> list[CheckResult]:
    """maurer-cartan at n, then reduction-commutes when ``production``, both
    against one path-root stream over ``final``, the dynamic program's table n:
    M(n) * d^0 reduced at the root, M(n) streamed as the d^0 block of the
    operator expansion (D^n applied to 1), so a stray coefficient of d^k,
    k >= 1, is a difference at dpow = k, and :func:`production_terms` at the
    root, the stream the CLI writes, which takes no rule, so the check runs no
    arbitration of its own.
    """
    remainder = _folded_remainder(CycloModulus.of(n))
    expected = ((k, ((s, remainder(c.coeffs)) for s, c in terms))
                for k, terms in _operator_terms(n) if k == 0)
    others = (expected, production_terms(n, ROOT)) if production else (expected,)
    mc, *commutes = _differences(_path_terms(n, ROOT, final), *others)
    rows = [_compared("maurer-cartan", n, rule, mc, {"path_value": 0, "oracle_value": 1})]
    names = {"production_value": 1, "path_value": 0}
    return rows + [_compared("reduction-commutes", n, rule, found, names) for found in commutes]


def _check_binomial_formula(n: int) -> CheckResult:
    [found] = _differences(production_terms(n, GENERIC), _operator_terms(n))
    return _compared("binomial-formula", n, None, found, {"production_value": 0, "oracle_value": 1})


def _check_infinitesimal(n: int, rule: WeightRule) -> CheckResult:
    modulus = CycloModulus.of(n)
    path_side = infinitesimal_coefficients(n, rule)
    operator_side = infinitesimal_from_operator(n)
    bad = None
    for m in range(n):
        expected = q_binomial(n, m + 1)
        entry = path_side.coeffs[m]
        if entry != operator_side.coeffs[m] or entry != expected:
            bad = {
                "n": n,
                "m": m,
                "path_value": coeffs_list(entry),
                "operator_value": coeffs_list(operator_side.coeffs[m]),
                "binomial_value": coeffs_list(expected),
            }
            break
        reduced = modulus.reduce(entry)
        if reduced != (ZERO if m <= n - 2 else ONE):
            bad = {"n": n, "m": m, "reduced": coeffs_list(reduced)}
            break
    return _row("infinitesimal", n, rule, bad)


def _check_dp_enum(n: int, tables: Mapping[WeightRule, Table]) -> CheckResult:
    """Each rule's table n of its DP pass, in ``tables``, against its paths
    enumerated, both keyed by entries: each table, made canonical, is one block."""
    for rule, table in tables.items():
        dp, enum = ([(0, _canonical(t).items())] for t in (table, _path_sums_enum(n, rule)))
        [found] = _differences(dp, enum)
        if found is not None:
            _, s, a, b = found
            bad = {"n": n, "rule": rule.value, "s": list(s), "dp": coeffs_list(a), "enum": coeffs_list(b)}
            return _row("dp-vs-enum", n, None, bad)
    return _row("dp-vs-enum", n, None, None)


def four_step_listing_mismatches() -> tuple[ListingMismatch, ...]:
    """Vertices of the four-step expansion where the hand-worked reference
    weights differ from the exact operator-oracle coefficients."""
    out = []
    for _, terms in _operator_terms(4):
        for word, computed in terms:
            # the pure d^4 vertex carries no reference value
            stated = REFERENCE_FOUR_STEP_WEIGHTS.get(word)
            if stated is not None and poly_from_coeffs(stated) != computed:
                out.append(ListingMismatch(word, stated, tuple(computed.coeffs)))
    return tuple(sorted(out, key=lambda mismatch: _word_order(mismatch.s)))


def verify_suite(n_max: int = 6, rule: WeightRule | None = None) -> VerifyReport:
    """Run every cross-check and return a structured report.

    dp-vs-enum (exponential path enumeration) is capped at n = 5; every
    other check runs at each n from 2 to ``n_max``.  Failures are data,
    never raised.  oracle-equivalence, maurer-cartan, binomial-formula and
    reduction-commutes compare two routes and name their canonically first
    difference's values ``production_value``, ``path_value`` or
    ``oracle_value``; infinitesimal compares three routes (``path_value``,
    ``operator_value``, ``binomial_value``), then the root reduction
    (``reduced``); dp-vs-enum names ``dp`` and ``enum``; and
    weight-rule-arbitration carries the arbitration dict.  maurer-cartan
    compares the whole reduced path expansion with M(n) * d^0, so a stray
    power d^k is reported as ``dpow = k``.  When ``rule`` is given the
    rule-dependent checks run under it (and gate the overall result);
    otherwise the oracle-arbitrated default is used.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    requested = rule.value if rule is not None else "default"

    # One DP pass per rule, as far as the report and the arbitration read: the
    # arbitration always reads its full fixed range, so a shallow report (small
    # n_max) still selects the same rule.  Tables 0..ARBITRATION_N_MAX, of at
    # most 2^6 vertices each, are kept; past them each pass holds two tables.
    passes = {r: _steps(max(n_max, ARBITRATION_N_MAX), r) for r in WeightRule}
    kept = {r: [next(tables) for _ in range(ARBITRATION_N_MAX + 1)] for r, tables in passes.items()}
    oracle_rows = {r: list(_oracle_rows(r, tables)) for r, tables in kept.items()}
    first_failure = {r: _first_failure(rows) for r, rows in oracle_rows.items()}
    passing = [r for r, bad in first_failure.items() if bad is None]
    failing = [r for r in first_failure if r not in passing]
    arbitration = {
        "passing": passing[0].value if len(passing) == 1 else [r.value for r in passing],
        "failing": failing[0].value if len(failing) == 1 else [r.value for r in failing],
        "counterexample": first_failure[failing[0]] if len(failing) == 1 else None,
    }
    unsettled = None if len(passing) == 1 else arbitration

    selected = rule if rule is not None else (passing[0] if len(passing) == 1 else WeightRule.PREFIX)

    ns = range(2, n_max + 1)
    # the power formula covers only the arbitrated rule: under any other the
    # root route is the path model itself, so reduction-commutes could not fail
    production = passing == [selected]
    # the rest of each pass, one after the other, gives its oracle rows and the selected rule's root rows
    roots = [_check_roots(n, selected, t, production) for n, t in enumerate(kept[selected]) if n in ns]
    for r, tables in passes.items():
        for n, table in enumerate(tables, start=ARBITRATION_N_MAX + 1):
            oracle_rows[r].append(_check_oracle_equivalence(n, r, table))
            if r is selected:
                roots.append(_check_roots(n, selected, table, production))
    checks = [row for rows in oracle_rows.values() for row in rows if row.n <= n_max]
    checks.append(_row("weight-rule-arbitration", ARBITRATION_N_MAX, None, unsettled))
    checks.extend(rows[0] for rows in roots)
    checks.extend(_check_binomial_formula(n) for n in ns)
    checks.extend(_check_infinitesimal(n, selected) for n in ns)
    checks.extend(_check_dp_enum(n, {r: kept[r][n] for r in kept}) for n in ns if n <= 5)
    checks.extend(row for rows in roots for row in rows[1:])

    mismatches = four_step_listing_mismatches()
    three_step = {
        "missing_word": [0, 0, 0],
        "computed_coeff": coeffs_list(kept[selected][3][(0, 0, 0)]),
        "note": THREE_STEP_DISPLAY_NOTE,
    }

    passed = all(c.passed() for c in checks if c.rule is None or c.rule == selected.value)

    return VerifyReport(
        n_max=n_max,
        requested_rule=requested,
        selected_rule=selected.value,
        checks=tuple(checks),
        arbitration=arbitration,
        four_step_mismatches=mismatches,
        three_step_display=three_step,
        passed=passed,
    )
