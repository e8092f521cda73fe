"""Curvature expansions of the deformed differential, and their cross-checks.

The n-th power of the deformed differential d + a expands as a sum of
element coefficients times powers of d.  This module assembles that
expansion three independent ways (weighted path model, direct operator
expansion, q-binomial power formula), reduces it at roots of unity,
extracts the first-order (infinitesimal) coefficients, and packages all
pairwise consistency checks into a verification report.

Routes.  The power formula is the production route of both modes
(:func:`generic_expansion`, :func:`root_of_unity_expansion`) under the
oracle-arbitrated weight rule, with M(k) = D^(k-1) a taken from its closed
product formula (:func:`_closed_form_packed`).  The recursion defining M(k)
(:func:`maurer_cartan_element`), the path model (:func:`path_expansion`,
:func:`path_root_expansion`) and the operator expansion are oracles; the
path model also serves an explicitly chosen rule, which the power formula
does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial
from typing import Iterator

from .cyclo import (
    ONE,
    ZERO,
    CycloModulus,
    QPoly,
    coeffs_list,
    poly_from_coeffs,
    q_binomial,
    remainder_of_folded,
)
from .freealg import (
    ElementPoly,
    OperatorPoly,
    deformed_power,
    deformed_power_first_order,
    maurer_cartan_element,
)
from .paths import (
    Comp, WeightRule, enumerate_vertices, forward_tables, path_sum_dp, path_sum_enum, stay_count
)

GENERIC = "generic"
ROOT = "root"


@dataclass(frozen=True, eq=True)
class CurvatureExpansion:
    """Expansion of the n-th deformed power as sum of c_k * d^k.

    In generic mode k runs 0..n and c_n is the scalar 1 (the all-stay
    path at the empty vertex).  In root-of-unity mode k runs 0..n-1, every
    coefficient is reduced modulo the n-th cyclotomic polynomial, and
    vanished coefficients are removed from the map.  Every word of c_k has
    degree n - k, so no word carries a derivative of order >= n.
    """

    n: int
    mode: str
    rule: WeightRule
    c: dict[int, ElementPoly]

    def coefficient(self, k: int) -> ElementPoly:
        return self.c.get(k, ElementPoly.zero())

    def powers(self) -> list[int]:
        return sorted(self.c, reverse=True)

    def as_operator(self) -> OperatorPoly:
        # the blocks share no key (k differs), so one dict holds them all
        return OperatorPoly(
            {(mono, k): c for k, element in self.c.items() for mono, c in element._terms.items()}
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "rule": self.rule.value,
            "c": [
                {
                    "k": k,
                    "terms": [
                        {"s": list(mono.entries), "coeff": coeffs_list(coeff)}
                        for mono, coeff in self.c[k].items()
                    ],
                }
                for k in self.powers()
            ],
        }

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
            # duplicates and zero coefficients would be merged or dropped,
            # so the payload would not round-trip: reject them
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
                    coeff = poly_from_coeffs(_json_list(item["coeff"]))
                    if coeff.is_zero():
                        raise ValueError(f"word {word} at k={k} has coefficient 0")
                    terms[mono] = coeff
                c[k] = ElementPoly(terms)
            return cls(n=n, mode=mode, rule=WeightRule(data["rule"]), c=c)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed curvature expansion: {exc}") from exc


def _json_int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _json_list(value: object) -> tuple:
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    return tuple(value)


def path_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Generic-mode expansion assembled from weighted path sums (an oracle).

    Every vertex reached in n steps contributes its path sum as the
    coefficient of its word, attached to d^(number of stay steps).  Every
    edge weight is a power of q, so no path sum of a reached vertex is zero.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rule = rule if rule is not None else resolve_default_rule()
    c: dict[int, dict] = {}
    for s, weight in forward_tables(n, rule)[n].items():
        c.setdefault(stay_count(s, n), {})[s] = weight
    coefficients = {k: ElementPoly(terms) for k, terms in sorted(c.items())}
    return CurvatureExpansion(n=n, mode=GENERIC, rule=rule, c=coefficients)


def path_root_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Expansion at a primitive n-th root of unity from the path model (an oracle).

    Every coefficient of :func:`path_expansion` below d^n is reduced modulo
    the n-th cyclotomic polynomial; coefficients that vanish are removed.
    """
    if n < 2:
        raise ValueError("root-of-unity mode needs n >= 2")
    rule = rule if rule is not None else resolve_default_rule()
    generic = path_expansion(n, rule)
    modulus = CycloModulus.of(n)
    c: dict[int, ElementPoly] = {}
    for k in range(n):
        reduced = generic.coefficient(k).reduce_mod(modulus)
        if not reduced.is_zero():
            c[k] = reduced
    return CurvatureExpansion(n=n, mode=ROOT, rule=rule, c=c)


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
# spare, which root mode needs (see :func:`root_of_unity_expansion`).


def _packing_bits(big_n: int, n: int) -> int:
    """Bits per power of q that hold every coefficient of [N choose n]_q * M(n)."""
    return (comb(big_n, n) * factorial(n - 1)).bit_length() + 1


def _pack(p: QPoly, bits: int) -> int:
    return sum(c << (bits * e) for e, c in enumerate(p.coeffs))


def _unpack(x: int, bits: int, length: int | None = None) -> list[int]:
    """Inverse of :func:`_pack` for nonnegative coefficients below 2^bits.

    Returns ``length`` coefficients when given, else exactly up to the
    leading one.
    """
    if length is None:
        length = -(-x.bit_length() // bits)
    mask = (1 << bits) - 1
    return [(x >> (bits * e)) & mask for e in range(length)]


def _closed_form_packed(n: int, bits: int, start: int = 1) -> list[tuple[tuple[int, ...], int]]:
    """Every word of degree n with ``start`` times its closed-form coefficient in M(n).

    Coefficients are packed at ``bits`` bits per power of q; ``start`` is a
    packed polynomial.  The compositions of n are walked depth-first,
    carrying the product over the prefix, so each word costs one multiply
    by a packed Gaussian binomial.  The caller picks ``bits`` large enough
    (:func:`_packing_bits`).  The word (0, 1, 1) of M(5) has coefficient
    [2]_q * [4]_q:

    >>> packed = dict(_closed_form_packed(5, 8))
    >>> _unpack(packed[(0, 1, 1)], 8)
    [1, 2, 2, 2, 1]
    """
    # binomials[m][j] is [m choose j]_q, packed, for m < n
    binomials = [[1]]
    for m in range(1, n):
        above = binomials[-1]
        binomials.append(
            [1] + [above[j - 1] + (above[j] << (bits * j)) for j in range(1, m)] + [1]
        )
    words = []
    stack = [((), 0, start)]  # (prefix, its degree P, packed product over it)
    while stack:
        prefix, degree, product = stack.pop()
        last = n - 1 - degree  # the entry that completes the word
        for entry in range(last):
            stack.append(
                (prefix + (entry,), degree + entry + 1, product * binomials[degree + entry][entry])
            )
        words.append((prefix + (last,), product * binomials[n - 1][last]))
    return words


def _element(coefficients: dict[tuple[int, ...], QPoly]) -> ElementPoly:
    return ElementPoly({Comp._trusted(s): c for s, c in coefficients.items()})


def power_formula_coefficients(n: int) -> dict[int, ElementPoly]:
    """Coefficients of the n-th deformed power from the q-binomial power formula.

    c[n] = 1 and c[n-k] = (n choose k)_q * M(k) for k = 1..n, with M(k) in
    its closed form (see :func:`_closed_form_packed`); the binomial is the
    walk's packed starting value.  Keys ascend.
    """
    if n < 1:
        raise ValueError("n must be positive")
    c = {}
    for k in range(n, 0, -1):
        bits = _packing_bits(n, k)
        words = _closed_form_packed(k, bits, _pack(q_binomial(n, k), bits))
        c[n - k] = _element({s: QPoly._trusted(tuple(_unpack(x, bits))) for s, x in words})
    c[n] = ElementPoly.from_word()
    return c


def _power_formula_covers(rule: WeightRule) -> bool:
    """The power formula is a theorem about the oracle-arbitrated rule only."""
    return rule is resolve_default_rule()


def generic_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Generic-mode expansion: the production route.

    Under the oracle-arbitrated rule this is :func:`power_formula_coefficients`;
    any other rule goes through the path model, :func:`path_expansion`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rule = rule if rule is not None else resolve_default_rule()
    if not _power_formula_covers(rule):
        return path_expansion(n, rule)
    return CurvatureExpansion(n=n, mode=GENERIC, rule=rule, c=power_formula_coefficients(n))


def root_of_unity_expansion(n: int, rule: WeightRule | None = None) -> CurvatureExpansion:
    """Expansion at a primitive n-th root of unity: the production route.

    Under the oracle-arbitrated rule every middle Gaussian binomial of the
    power formula vanishes at the root, so only c[0] = M(n) reduced modulo
    the n-th cyclotomic polynomial survives (dropped when zero).  Each
    word's closed-form coefficient is folded modulo q^n - 1 while packed,
    then divided by Phi_n.  Any other rule goes through the path model,
    :func:`path_root_expansion`.
    """
    if n < 2:
        raise ValueError("root-of-unity mode needs n >= 2")
    rule = rule if rule is not None else resolve_default_rule()
    if not _power_formula_covers(rule):
        return path_root_expansion(n, rule)
    # M(n) is taken in its closed form, packed.  Since 2^(bits*n) = 1 modulo
    # ring, x % ring is congruent to the fold of x modulo q^n - 1, packed.
    # The folded coefficients sum to at most (n-1)! < 2^(bits-1), so each is
    # below 2^bits - 1; the packed fold is then below ring, hence it is the
    # remainder itself.
    bits = _packing_bits(n, n)
    ring = (1 << (bits * n)) - 1
    modulus = CycloModulus.of(n)
    reduced = {}
    for s, x in _closed_form_packed(n, bits):
        value = remainder_of_folded(_unpack(x % ring, bits, n), modulus)
        if value:
            reduced[s] = value
    c = {0: _element(reduced)} if reduced else {}
    return CurvatureExpansion(n=n, mode=ROOT, rule=rule, c=c)


def binomial_expansion(n: int) -> OperatorPoly:
    """The n-th deformed power assembled from the q-binomial power formula.

    d^n plus, for k = 1..n-1, the Gaussian binomial (n choose k) times the
    (k-1)-fold deformed derivative of a times d^(n-k), plus the (n-1)-fold
    deformed derivative of a: the generic production route, as one
    operator.  Must agree with :func:`deformed_power`.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return generic_expansion(n).as_operator()


# ---------------------------------------------------------------------------
# infinitesimal deformations (coefficient of t with t^2 = 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InfinitesimalCoefficients:
    """First-order coefficients: entry m multiplies t * d^m(e) * d^(n-1-m)."""

    n: int
    coeffs: tuple[QPoly, ...]

    def reduced(self, modulus: CycloModulus) -> InfinitesimalCoefficients:
        return InfinitesimalCoefficients(
            self.n, tuple(modulus.reduce(c) for c in self.coeffs)
        )


def _distributions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _distributions(total - head, parts - 1):
            yield (head,) + tail


def infinitesimal_coefficients(
    n: int, rule: WeightRule | None = None
) -> InfinitesimalCoefficients:
    """Path-model first-order coefficients.

    Only single-entry words survive when the deformation parameter squares
    to zero, so every contributing path climbs the spine of single-entry
    vertices; entry m sums over all ways to distribute the n-1-m stay
    steps along that spine.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rule = rule if rule is not None else resolve_default_rule()
    spine_start = Comp(())
    coeffs = []
    for m in range(n):
        spine = [spine_start] + [Comp((j,)) for j in range(m + 1)]
        move_exponent = 0  # the prepend step is weight 1
        for j in range(m):
            move_exponent += rule.increment_exponent(Comp((j,)), 1)
        stay_exponents = [rule.stay_exponent(v) for v in spine]
        total = ZERO
        for stays in _distributions(n - 1 - m, len(spine)):
            exponent = move_exponent + sum(
                count * e for count, e in zip(stays, stay_exponents)
            )
            total = total + QPoly.monomial(exponent)
        coeffs.append(total)
    return InfinitesimalCoefficients(n, tuple(coeffs))


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


@dataclass(frozen=True)
class CompositionSumComparison:
    """One reading of the closed composition-sum formula, checked per entry."""

    n: int
    convention: str
    values: tuple[QPoly, ...]
    reference: tuple[QPoly, ...]
    matches: tuple[bool, ...]

    def all_match(self) -> bool:
        return all(self.matches)


def infinitesimal_composition_sum(
    n: int, convention: str, rule: WeightRule | None = None
) -> CompositionSumComparison:
    """Evaluate a candidate reading of the closed first-order formula.

    The formula sums q^(|v| + sum of i*v_i) over a set of integer vectors
    attached to the spine, but the intended vector meaning is ambiguous.
    Three readings are implemented:

    - ``occupancy``: entries are occupancies (>= 1) of the m+1 nonempty
      spine vertices, summing to n; the exponent is evaluated on the
      derived stay counts (occupancy - 1); the empty vertex is never
      stayed at.
    - ``stay``: entries are stay counts (>= 0) at the m+1 nonempty spine
      vertices, any remaining stays sit at the empty vertex with weight
      one; the exponent is evaluated on the entries directly.
    - ``block``: entries are occupancies (>= 1) of the m+1 blocks starting
      at the empty vertex, so the target vertex gets no stays; the
      exponent is evaluated on the derived stay counts with the leading
      (empty-vertex) entry excluded from the plain sum.

    Every entry is compared against the path-model value; the result
    records, per entry, whether the reading reproduces it.
    """
    if convention not in COMPOSITION_SUM_READINGS:
        raise ValueError(f"unknown convention {convention!r}")
    if n < 2:
        raise ValueError("n must be at least 2")
    reference = infinitesimal_coefficients(n, rule).coeffs
    values = []
    for m in range(n):
        stays_total = n - 1 - m
        total = ZERO
        if convention == "occupancy":
            for stays in _distributions(stays_total, m + 1):
                exponent = sum(stays) + sum(i * v for i, v in enumerate(stays))
                total = total + QPoly.monomial(exponent)
        elif convention == "stay":
            for budget in range(stays_total + 1):
                for stays in _distributions(budget, m + 1):
                    exponent = sum(stays) + sum(i * v for i, v in enumerate(stays))
                    total = total + QPoly.monomial(exponent)
        else:  # block
            for stays in _distributions(stays_total, m + 1):
                exponent = sum(stays[1:]) + sum(i * v for i, v in enumerate(stays))
                total = total + QPoly.monomial(exponent)
        values.append(total)
    values_t = tuple(values)
    matches = tuple(v == r for v, r in zip(values_t, reference))
    return CompositionSumComparison(n, convention, values_t, reference, matches)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


# The two conventions agree at n = 2 and split from n = 3 on; this range
# is fixed by design, independent of how far a verification run reports.
ARBITRATION_N_MAX = 6


@cache
def resolve_default_rule() -> WeightRule:
    """The weight rule validated against the operator oracle.

    Exactly one of the two conventions reproduces the direct operator
    expansion for n = 2..ARBITRATION_N_MAX; that one is the shipped default.
    """
    passing = [
        rule
        for rule in (WeightRule.LITERAL, WeightRule.PREFIX)
        if all(
            path_expansion(n, rule).as_operator() == deformed_power(n)
            for n in range(2, ARBITRATION_N_MAX + 1)
        )
    ]
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


@dataclass(frozen=True)
class CheckResult:
    check: str
    n: int
    status: str  # "pass" | "fail"
    rule: str | None = None
    counterexample: dict | None = None

    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out: dict = {"check": self.check, "n": self.n, "status": self.status}
        if self.rule is not None:
            out["rule"] = self.rule
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class ListingMismatch:
    s: tuple[int, ...]
    stated: tuple[int, ...]
    computed: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "s": list(self.s),
            "stated": list(self.stated),
            "computed": list(self.computed),
        }


@dataclass(frozen=True)
class VerifyReport:
    n_max: int
    requested_rule: str
    selected_rule: str
    checks: tuple[CheckResult, ...]
    arbitration: dict
    four_step_mismatches: tuple[ListingMismatch, ...]
    three_step_display: dict
    passed: bool

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


def _first_operator_difference(
    n: int, left: OperatorPoly, right: OperatorPoly
) -> dict | None:
    keys = {(t.mono, t.dpow) for t in left.terms()} | {
        (t.mono, t.dpow) for t in right.terms()
    }
    for mono, dpow in sorted(keys, key=lambda k: (-k[1], k[0].sort_key())):
        a = left.coefficient(mono, dpow)
        b = right.coefficient(mono, dpow)
        if a != b:
            return {
                "n": n,
                "s": list(mono.entries),
                "dpow": dpow,
                "path_value": coeffs_list(a),
                "oracle_value": coeffs_list(b),
            }
    return None


def _check_oracle_equivalence(n: int, rule: WeightRule) -> CheckResult:
    left = path_expansion(n, rule).as_operator()
    right = deformed_power(n)
    difference = _first_operator_difference(n, left, right)
    status = "pass" if difference is None else "fail"
    return CheckResult("oracle-equivalence", n, status, rule.value, difference)


def _check_maurer_cartan(n: int, rule: WeightRule) -> CheckResult:
    expansion = path_root_expansion(n, rule)
    modulus = CycloModulus.of(n)
    for k in range(1, n):
        coeff = expansion.coefficient(k)
        if not coeff.is_zero():
            mono, value = coeff.items()[0]
            bad = {"n": n, "k": k, "s": list(mono.entries), "value": coeffs_list(value)}
            return CheckResult("maurer-cartan", n, "fail", rule.value, bad)
    expected = maurer_cartan_element(n).reduce_mod(modulus)
    if expansion.coefficient(0) != expected:
        diff = _first_operator_difference(
            n, expansion.coefficient(0).to_operator(), expected.to_operator()
        )
        return CheckResult("maurer-cartan", n, "fail", rule.value, diff)
    return CheckResult("maurer-cartan", n, "pass", rule.value)


def _check_binomial_formula(n: int) -> CheckResult:
    difference = _first_operator_difference(n, binomial_expansion(n), deformed_power(n))
    status = "pass" if difference is None else "fail"
    return CheckResult("binomial-formula", n, status, None, difference)


def _check_infinitesimal(n: int, rule: WeightRule) -> CheckResult:
    modulus = CycloModulus.of(n)
    path_side = infinitesimal_coefficients(n, rule)
    operator_side = infinitesimal_from_operator(n)
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
            return CheckResult("infinitesimal", n, "fail", rule.value, bad)
        reduced = modulus.reduce(entry)
        wanted = ZERO if m <= n - 2 else ONE
        if reduced != wanted:
            bad = {"n": n, "m": m, "reduced": coeffs_list(reduced)}
            return CheckResult("infinitesimal", n, "fail", rule.value, bad)
    return CheckResult("infinitesimal", n, "pass", rule.value)


def _check_dp_enum(n: int) -> CheckResult:
    for rule in (WeightRule.LITERAL, WeightRule.PREFIX):
        for s in enumerate_vertices(n):
            dp = path_sum_dp(s, n, rule)
            enum = path_sum_enum(s, n, rule)
            if dp != enum:
                bad = {
                    "n": n,
                    "rule": rule.value,
                    "s": list(s.entries),
                    "dp": coeffs_list(dp),
                    "enum": coeffs_list(enum),
                }
                return CheckResult("dp-vs-enum", n, "fail", None, bad)
    return CheckResult("dp-vs-enum", n, "pass")


def _check_reduction_commutes(n: int, rule: WeightRule) -> CheckResult:
    """The production root expansion against the path model reduced at the root."""
    direct = root_of_unity_expansion(n, rule)
    status = "pass" if direct == path_root_expansion(n, rule) else "fail"
    return CheckResult("reduction-commutes", n, status, rule.value)


def _first_equivalence_failure(candidate: WeightRule) -> dict | None:
    for n in range(2, ARBITRATION_N_MAX + 1):
        result = _check_oracle_equivalence(n, candidate)
        if not result.passed():
            return result.counterexample
    return None


def four_step_listing_mismatches() -> tuple[ListingMismatch, ...]:
    """Vertices of the four-step expansion where the hand-worked reference
    weights differ from the exact operator-oracle coefficients."""
    oracle = deformed_power(4)
    out = []
    for s in enumerate_vertices(4):
        if not s.entries:
            continue  # the pure d^4 vertex carries no reference value
        stated = REFERENCE_FOUR_STEP_WEIGHTS[s.entries]
        computed = oracle.coefficient(s, stay_count(s, 4))
        if poly_from_coeffs(stated) != computed:
            out.append(ListingMismatch(s.entries, stated, tuple(computed.coeffs)))
    return tuple(out)


def verify_suite(n_max: int = 6, rule: WeightRule | None = None) -> VerifyReport:
    """Run every cross-check and return a structured report.

    Checks whose cost is driven by explicit path enumeration
    (dp-vs-enum, binomial-formula) are capped at n = 5.  Failures are
    recorded as data, never raised.  When ``rule`` is given the
    rule-dependent checks run under it (and gate the overall result);
    otherwise the oracle-arbitrated default is used.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    requested = rule.value if rule is not None else "default"

    checks: list[CheckResult] = []
    for candidate in (WeightRule.LITERAL, WeightRule.PREFIX):
        checks.extend(
            _check_oracle_equivalence(n, candidate) for n in range(2, n_max + 1)
        )

    # arbitration always runs over its full fixed range, so a shallow
    # report (small n_max) still selects the same default rule
    first_failure = {
        candidate: _first_equivalence_failure(candidate)
        for candidate in (WeightRule.LITERAL, WeightRule.PREFIX)
    }
    passing = [r for r, bad in first_failure.items() if bad is None]
    failing = [r for r in first_failure if r not in passing]
    arbitration = {
        "passing": passing[0].value if len(passing) == 1 else [r.value for r in passing],
        "failing": failing[0].value if len(failing) == 1 else [r.value for r in failing],
        "counterexample": first_failure[failing[0]] if len(failing) == 1 else None,
    }
    checks.append(
        CheckResult(
            "weight-rule-arbitration",
            ARBITRATION_N_MAX,
            "pass" if len(passing) == 1 else "fail",
            None,
            None if len(passing) == 1 else arbitration,
        )
    )

    selected = rule if rule is not None else (passing[0] if len(passing) == 1 else WeightRule.PREFIX)

    for n in range(2, n_max + 1):
        checks.append(_check_maurer_cartan(n, selected))
    for n in range(2, min(n_max, 5) + 1):
        checks.append(_check_binomial_formula(n))
    for n in range(2, n_max + 1):
        checks.append(_check_infinitesimal(n, selected))
    for n in range(2, min(n_max, 5) + 1):
        checks.append(_check_dp_enum(n))
    # under any other rule the root route is the path model itself, so the
    # comparison could not fail
    if _power_formula_covers(selected):
        for n in range(2, n_max + 1):
            checks.append(_check_reduction_commutes(n, selected))

    mismatches = four_step_listing_mismatches()
    three_step = {
        "missing_word": [0, 0, 0],
        "computed_coeff": [1],
        "note": THREE_STEP_DISPLAY_NOTE,
    }

    gating = [
        c for c in checks if c.rule is None or c.rule == selected.value
    ]
    passed = all(c.passed() for c in gating)

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
