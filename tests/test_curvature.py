"""Tests for the curvature expansions and the cross-validation suite."""

import copy
import time
from collections import Counter
from functools import partial
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

import qcurvature.curvature as curvature
import qcurvature.paths as paths
from qcurvature.curvature import (
    COMPOSITION_SUM_READINGS,
    CurvatureExpansion,
    four_step_listing_mismatches,
    generic_expansion,
    infinitesimal_coefficients,
    infinitesimal_composition_sum,
    infinitesimal_from_operator,
    path_expansion,
    path_root_expansion,
    resolve_default_rule,
    root_of_unity_expansion,
    verify_suite,
)
from qcurvature.cli import run
from qcurvature.cyclo import ONE, ZERO, CycloModulus, QPoly, q_binomial
from qcurvature.freealg import (
    ElementPoly,
    OperatorPoly,
    deformed_power,
    maurer_cartan_element,
)
from qcurvature.paths import LATEX, TEXT, Comp, Entries, WeightRule, forward_tables

PREFIX = WeightRule.PREFIX
LITERAL = WeightRule.LITERAL


def element(*terms):
    """Shorthand: terms are (entries, coeff-as-QPoly-or-int)."""
    return ElementPoly(
        {
            Comp(entries): coeff if isinstance(coeff, QPoly) else QPoly((coeff,))
            for entries, coeff in terms
        }
    )


class TestPathExpansion:
    def test_n2(self):
        e = path_expansion(2, PREFIX)
        assert e.powers() == [2, 1, 0]
        assert e.coefficient(2) == element(((), 1))
        assert e.coefficient(1) == element(((0,), QPoly((1, 1))))
        assert e.coefficient(0) == element(((1,), 1), ((0, 0), 1))

    def test_n3_constant_part(self):
        c0 = path_expansion(3, PREFIX).coefficient(0)
        assert c0 == element(
            ((2,), 1), ((1, 0), 1), ((0, 1), QPoly((1, 1))), ((0, 0, 0), 1)
        )

    def test_n4_square_of_first_derivative(self):
        c0 = path_expansion(4, PREFIX).coefficient(0)
        mono = Comp((1, 1))
        assert c0.coefficient(mono) == QPoly((1, 1, 1))
        assert deformed_power(4).coefficient(mono, 0) == QPoly((1, 1, 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_operator_oracle(self, n):
        assert path_expansion(n, PREFIX).as_operator() == deformed_power(n)

    def test_literal_rule_disagrees_at_n3(self):
        assert path_expansion(3, LITERAL).as_operator() != deformed_power(3)

    def test_leading_coefficient_is_one(self):
        for n in range(1, 6):
            assert path_expansion(n, PREFIX).coefficient(n) == element(((), 1))


class TestRootOfUnityExpansion:
    def test_n3(self):
        e = root_of_unity_expansion(3, PREFIX)
        assert e.powers() == [0]
        assert e.coefficient(2).is_zero()
        assert e.coefficient(1).is_zero()
        assert e.coefficient(0) == element(
            ((2,), 1), ((1, 0), 1), ((0, 1), QPoly((1, 1))), ((0, 0, 0), 1)
        )

    def test_n2(self):
        e = root_of_unity_expansion(2, PREFIX)
        assert e.coefficient(1).is_zero()
        assert e.coefficient(0) == element(((1,), 1), ((0, 0), 1))

    def test_n4_matches_reduced_element(self):
        e = root_of_unity_expansion(4, PREFIX)
        assert all(e.coefficient(k).is_zero() for k in (1, 2, 3))
        expected = maurer_cartan_element(4).reduce_mod(CycloModulus.of(4))
        assert e.coefficient(0) == expected

    @pytest.mark.parametrize("n", range(2, 7))
    def test_obstruction_concentrates_in_degree_zero(self, n):
        e = root_of_unity_expansion(n, PREFIX)
        assert all(e.coefficient(k).is_zero() for k in range(1, n))
        expected = maurer_cartan_element(n).reduce_mod(CycloModulus.of(n))
        assert e.coefficient(0) == expected

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            root_of_unity_expansion(1, PREFIX)


class TestProductionRoutes:
    """The power-formula production route against the path model, exactly."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_generic_matches_path_model(self, n):
        assert generic_expansion(n) == path_expansion(n)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_root_matches_path_model(self, n):
        assert root_of_unity_expansion(n) == path_root_expansion(n)

    def test_explicit_literal_rule_goes_through_path_model(self):
        # the power formula does not hold for the literal rule from n = 3 on
        assert generic_expansion(4, LITERAL) == path_expansion(4, LITERAL)
        assert generic_expansion(4, LITERAL).c != generic_expansion(4, PREFIX).c
        assert root_of_unity_expansion(4, LITERAL) == path_root_expansion(4, LITERAL)
        assert root_of_unity_expansion(4, LITERAL).c != root_of_unity_expansion(4, PREFIX).c

    @pytest.mark.parametrize("words", [Entries, TEXT], ids=["entries", "text"])
    @pytest.mark.parametrize("mode", [curvature.GENERIC, curvature.ROOT])
    @pytest.mark.parametrize("rule", [PREFIX, LITERAL], ids=str)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_blocks_read_after_the_stream_is_drained(self, n, rule, mode, words):
        # each block of either route is its own stream: reading it after
        # every block has been handed out gives what reading in order gives
        stream = partial(curvature.expansion_terms, n, mode, rule, words)
        late = [(k, list(terms)) for k, terms in list(stream())]
        assert late == [(k, list(terms)) for k, terms in stream()]

    @pytest.mark.parametrize("style, coeff", [(TEXT, QPoly.compact), (LATEX, QPoly.latex)],
                             ids=["text", "latex"])
    @pytest.mark.parametrize("mode", [curvature.GENERIC, curvature.ROOT])
    @pytest.mark.parametrize("rule", [PREFIX, LITERAL], ids=str)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_style_renders_words_and_coefficients_of_the_entries_stream(self, n, rule, mode, style, coeff):
        # one style names the whole format: its stream is the Entries stream,
        # each word rendered by the style and each QPoly coefficient as well
        entries = curvature.expansion_terms(n, mode, rule, Entries)
        expected = [(k, [(style.render(s), coeff(c)) for s, c in terms]) for k, terms in entries]
        styled = curvature.expansion_terms(n, mode, rule, style)
        assert [(k, list(terms)) for k, terms in styled] == expected


def closed_form(word):
    """The product formula for the coefficient of ``word`` in M(n), over QPoly."""
    value, left = ONE, 0
    for entry in word:
        value = value * q_binomial(left + entry, entry)
        left += entry + 1
    return value


def plant_production(monkeypatch, mode, change, at=None):
    """Patch ``curvature.production_terms``, the stream the CLI writes: in
    ``mode``, at n == ``at`` when given, each term (word, value) of c[0]
    becomes (word, change(n, word, value))."""
    real = curvature.production_terms

    def wrong(n, m, *args):
        for k, terms in real(n, m, *args):
            if m == mode and k == 0 and at in (None, n):
                terms = [(word, change(n, word, value)) for word, value in terms]
            yield k, terms

    monkeypatch.setattr(curvature, "production_terms", wrong)


def plus_one_at_a_power_n(n, word, value):
    return value + ONE if word == (0,) * n else value


def doubled(n, word, value):
    return value * 2


def stream(terms):
    """A map {(k, word): value} as a stream: blocks k descending, words in canonical order."""
    order = sorted(terms, key=lambda key: (-key[0], Comp(key[1]).sort_key()))
    powers = sorted({k for k, _ in terms}, reverse=True)
    return [(k, [(w, terms[k, w]) for j, w in order if j == k]) for k in powers]


def first_difference(left, right):
    """The first (k, word, left value, right value) where two maps {(k, word):
    value} differ, walking their sorted key union; a missing key reads ZERO."""
    for k, w in sorted(left.keys() | right.keys(), key=lambda key: (-key[0], Comp(key[1]).sort_key())):
        a, b = left.get((k, w), ZERO), right.get((k, w), ZERO)
        if a != b:
            return k, w, a, b
    return None


def compositions(n):
    """Every word of degree n: a tuple s with sum(s_i + 1) == n."""
    if n == 0:
        yield ()
        return
    for first in range(n):
        for rest in compositions(n - 1 - first):
            yield (first,) + rest


WORDS = [w for n in range(4) for w in compositions(n)]


class TestClosedForm:
    """M(n) from its product formula, Kronecker-packed, against the recursion and QPoly."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_leading_power_formula_coefficient_is_the_recursion(self, n):
        assert generic_expansion(n, PREFIX).c[0] == maurer_cartan_element(n)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_packed_root_route_equals_unpacked_product(self, n):
        # n = 2..14 covers primes (deg Phi_n = n - 1) and composites alike
        modulus = CycloModulus.of(n)
        expected = {}
        for word in compositions(n):
            value = modulus.reduce(closed_form(word))
            if value:
                expected[word] = value
        root = root_of_unity_expansion(n, PREFIX).coefficient(0)
        assert {mono.entries: c for mono, c in root.items()} == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_packed_generic_route_equals_unpacked_product(self, n):
        c = generic_expansion(n, PREFIX).c
        for k in range(1, n + 1):
            binomial = q_binomial(n, k)
            expected = {word: binomial * closed_form(word) for word in compositions(k)}
            assert {mono.entries: v for mono, v in c[n - k].items()} == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_values_at_one_respect_the_packing_bound(self, n):
        # packing relies on [n choose k]_q * M(k)[s] at q = 1 being at most
        # C(n, k) * (k-1)!, which leaves a spare bit below 2^bits
        c = generic_expansion(n, PREFIX).c
        for k in range(1, n + 1):
            bound = comb(n, k) * factorial(k - 1)
            assert bound < 2 ** (curvature._packing_bits(n, k) - 1)
            assert max(value.evaluate(1) for _, value in c[n - k].items()) <= bound


class TestClosedFormWalk:
    """The one walk behind both production routes and the streamed CLI output."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_walk_is_in_canonical_order_with_every_word_once(self, n):
        words = [s for s, _ in curvature._closed_form_walk(n, curvature._binomial_rows(n, 8))]
        assert words == sorted(compositions(n), key=lambda s: Comp(s).sort_key())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_carried_word_text_is_the_word_text(self, n):
        rows = curvature._binomial_rows(n, curvature._packing_bits(n, n))
        entries = [s for s, _ in curvature._closed_form_walk(n, rows)]
        for style, render in ((TEXT, Comp.text), (LATEX, Comp.latex)):
            carried = [text for text, _ in curvature._closed_form_walk(n, rows, style)]
            assert carried == [render(Comp(s)) for s in entries]

    @staticmethod
    def table_calls(monkeypatch):
        """Record the (n, bits) of every ``_binomial_rows`` call."""
        real, calls = curvature._binomial_rows, []

        def recorded(n, bits):
            calls.append((n, bits))
            return real(n, bits)

        monkeypatch.setattr(curvature, "_binomial_rows", recorded)
        return calls

    @pytest.mark.parametrize("n", range(1, 15))
    def test_table_is_the_windowed_q_binomial(self, n, monkeypatch):
        # production builds every Gaussian binomial by q-Pascal: its rows, at
        # the width production packs them, must equal cyclo's windowed product
        calls = self.table_calls(monkeypatch)
        next(iter(curvature.production_terms(n, "generic")))
        [(size, bits)] = calls
        rows = curvature._binomial_rows(size, bits)
        assert [len(row) for row in rows] == list(range(1, n + 2))
        for m, row in enumerate(rows):
            for j, packed in enumerate(row):
                assert curvature._unpack(packed, bits) == list(q_binomial(m, j).coeffs), (m, j)

    @pytest.mark.parametrize("mode", ["generic", "root"])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_table_per_production_call(self, n, mode, monkeypatch):
        calls = self.table_calls(monkeypatch)
        for _, terms in curvature.production_terms(n, mode):
            list(terms)
        assert [size for size, _ in calls] == [n + 1]

    @pytest.mark.parametrize("n", range(2, 10))
    def test_one_remainder_per_root_call(self, n, monkeypatch):
        # phi's lower terms are listed once per call, not once per distinct coefficient
        made = []
        real = curvature._folded_remainder

        def recorded(modulus):
            made.append(modulus.n)
            return real(modulus)

        monkeypatch.setattr(curvature, "_folded_remainder", recorded)
        for _, terms in curvature.production_terms(n, "root"):
            list(terms)
        assert made == [n]


class TestBinomialExpansion:
    def test_n2_structure(self):
        assert generic_expansion(2).as_operator() == OperatorPoly(
            {
                (Comp(()), 2): ONE,
                (Comp((0,)), 1): QPoly((1, 1)),
                (Comp((1,)), 0): ONE,
                (Comp((0, 0)), 0): ONE,
            }
        )

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_operator_oracle(self, n):
        assert generic_expansion(n).as_operator() == deformed_power(n)


class TestInfinitesimal:
    def test_n3(self):
        three = QPoly((1, 1, 1))
        assert infinitesimal_coefficients(3, PREFIX).coeffs == (three, three, ONE)

    def test_n2(self):
        assert infinitesimal_coefficients(2, PREFIX).coeffs == (QPoly((1, 1)), ONE)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_three_way_agreement(self, n):
        path_side = infinitesimal_coefficients(n, PREFIX)
        operator_side = infinitesimal_from_operator(n)
        assert path_side.coeffs == operator_side.coeffs
        for m in range(n):
            assert path_side.coeffs[m] == q_binomial(n, m + 1)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_literal_spine_differs_only_by_its_moves(self, n):
        # raising the single entry j charges q^j under the literal rule
        # and q^0 under the prefix rule; the stay weights are the same
        literal = infinitesimal_coefficients(n, LITERAL).coeffs
        prefix = infinitesimal_coefficients(n, PREFIX).coeffs
        assert literal == tuple(c.shift(m * (m - 1) // 2) for m, c in enumerate(prefix))

    def test_n100_in_one_walk(self):
        rule = resolve_default_rule()
        start = time.perf_counter()
        coeffs = infinitesimal_coefficients(100, rule).coeffs
        elapsed = time.perf_counter() - start
        assert [c.evaluate(1) for c in coeffs] == [comb(100, m + 1) for m in range(100)]
        assert coeffs[-1] == ONE
        assert elapsed < 3, f"infinitesimal_coefficients(100) took {elapsed:.2f} s"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reduction_at_root(self, n):
        reduced = infinitesimal_coefficients(n, PREFIX).reduced(CycloModulus.of(n))
        for m in range(n - 1):
            assert reduced.coeffs[m].is_zero()
        assert reduced.coeffs[n - 1] == ONE


# a chain of 1..5 positions: stay exponents, and one move exponent per position but the last
spines = st.lists(st.integers(0, 5), min_size=1, max_size=5).flatmap(
    lambda stay: st.tuples(
        st.just(stay),
        st.lists(st.integers(0, 5), min_size=len(stay) - 1, max_size=len(stay) - 1),
    )
)


class TestSpineDP:
    @given(st.integers(0, 7), spines)
    def test_matches_brute_force(self, steps, spine):
        stay, move = spine
        expected = [ZERO] * len(stay)
        for moving in product((False, True), repeat=steps):
            p, e = 0, 0
            for up in moving:
                if not up:
                    e += stay[p]
                elif p == len(stay) - 1:
                    break  # no move past the last position
                else:
                    e += move[p]
                    p += 1
            else:
                expected[p] = expected[p] + QPoly.monomial(e)
        assert curvature._spine_dp(steps, stay, move) == expected


class TestCompositionSumReadings:
    @pytest.mark.parametrize("convention", COMPOSITION_SUM_READINGS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_top_entry_is_always_one(self, n, convention):
        cmp = infinitesimal_composition_sum(n, convention, PREFIX)
        assert cmp.values[n - 1] == ONE
        assert cmp.matches[n - 1]

    def test_occupancy_reading_misses_at_n3(self):
        cmp = infinitesimal_composition_sum(3, "occupancy", PREFIX)
        assert cmp.reference[0] == QPoly((1, 1, 1))
        assert cmp.values[0] == QPoly((0, 0, 1))
        assert not cmp.matches[0]
        assert not all(cmp.matches)

    def test_block_reading_misses(self):
        cmp = infinitesimal_composition_sum(3, "block", PREFIX)
        assert not all(cmp.matches)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stay_reading_reproduces_path_model(self, n):
        assert all(infinitesimal_composition_sum(n, "stay", PREFIX).matches)

    def test_match_report_is_per_entry(self):
        cmp = infinitesimal_composition_sum(4, "occupancy", PREFIX)
        assert len(cmp.matches) == len(cmp.values) == len(cmp.reference) == 4

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            infinitesimal_composition_sum(3, "nonsense")


class TestJsonRoundTrip:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_generic(self, n):
        e = path_expansion(n, PREFIX)
        assert CurvatureExpansion.from_json_dict(e.to_json_dict()) == e

    @pytest.mark.parametrize("n", range(2, 6))
    def test_root(self, n):
        e = root_of_unity_expansion(n, PREFIX)
        assert CurvatureExpansion.from_json_dict(e.to_json_dict()) == e

    @pytest.mark.parametrize(
        "path, value",
        [
            (("c", 0, "terms", 0, "coeff"), [1.5]),
            (("c", 0, "terms", 0, "coeff"), [True]),
            (("c", 0, "terms", 0, "coeff"), "1"),
            (("c", 0, "terms", 0, "s"), [1.0]),
            (("c", 0, "terms", 0, "s"), "1"),
            (("c", 0, "k"), "0"),
            (("c", 0, "terms"), 5),
            (("n",), 2.0),
            (("mode",), "sideways"),
            (("rule",), 3),
            (("c",), None),
        ],
    )
    def test_rejects_malformed(self, path, value):
        data = copy.deepcopy(root_of_unity_expansion(2, PREFIX).to_json_dict())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError):
            CurvatureExpansion.from_json_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            # a word of degree 1 where n - k = 3 is required
            {"n": 3, "mode": "generic", "rule": "prefix", "c": [{"k": 0, "terms": [{"s": [0], "coeff": [1]}]}]},
            # the all-stay word carries d^n, not d^(n-1)
            {"n": 3, "mode": "generic", "rule": "prefix", "c": [{"k": 2, "terms": [{"s": [], "coeff": [1]}]}]},
            # k beyond n
            {"n": 2, "mode": "generic", "rule": "prefix", "c": [{"k": 3, "terms": []}]},
            {"n": 2, "mode": "generic", "rule": "prefix", "c": [{"k": -1, "terms": []}]},
            # d^n does not survive at a root of unity
            {"n": 2, "mode": "root", "rule": "prefix", "c": [{"k": 2, "terms": [{"s": [], "coeff": [1]}]}]},
            # at a root every coefficient is reduced: degree below deg Phi_2 = 1
            {"n": 2, "mode": "root", "rule": "prefix", "c": [{"k": 0, "terms": [{"s": [1], "coeff": [1, 1]}]}]},
            # root mode needs n >= 2, generic mode n >= 1
            {"n": 1, "mode": "root", "rule": "prefix", "c": [{"k": 0, "terms": [{"s": [0], "coeff": [1]}]}]},
            {"n": 0, "mode": "generic", "rule": "prefix", "c": [{"k": 0, "terms": [{"s": [], "coeff": [1]}]}]},
        ],
    )
    def test_rejects_wrong_degree_or_power(self, data):
        with pytest.raises(ValueError):
            CurvatureExpansion.from_json_dict(data)

    @pytest.mark.parametrize(
        "c",
        [
            # two k = 0 entries, the second holding a zero coefficient
            [{"k": 0, "terms": [{"s": [1], "coeff": [1]}]},
             {"k": 0, "terms": [{"s": [0, 0], "coeff": [0]}]}],
            # two k = 0 entries, each valid on its own
            [{"k": 0, "terms": [{"s": [1], "coeff": [1]}]},
             {"k": 0, "terms": [{"s": [0, 0], "coeff": [1]}]}],
            # the same word twice
            [{"k": 0, "terms": [{"s": [1], "coeff": [1]}, {"s": [1], "coeff": [0, 1]}]}],
            # zero coefficients, in every spelling
            [{"k": 0, "terms": [{"s": [1], "coeff": []}]}],
            [{"k": 0, "terms": [{"s": [1], "coeff": [0]}]}],
            [{"k": 0, "terms": [{"s": [1], "coeff": [0, 0]}]}],
            # a trailing zero would be written back as [1]
            [{"k": 0, "terms": [{"s": [1], "coeff": [1, 0]}]}],
            # a power with no terms would be left out
            [{"k": 0, "terms": []}],
        ],
    )
    def test_rejects_what_does_not_round_trip(self, c):
        with pytest.raises(ValueError):
            CurvatureExpansion.from_json_dict({"n": 2, "mode": "root", "rule": "prefix", "c": c})

    def test_short_payload_at_large_n_parses_quickly(self):
        # building Phi_30030 takes tens of seconds, and an empty payload needs none of it
        start = time.perf_counter()
        parsed = CurvatureExpansion.from_json_dict(
            {"n": 30030, "mode": "root", "rule": "prefix", "c": []}
        )
        assert time.perf_counter() - start < 1
        assert parsed.c == {}

    def test_reduced_bound_at_large_n(self):
        # deg Phi_30030 = phi(30030) = 5760: degree 5759 is reduced, 5760 is not
        def payload(degree):
            term = {"s": [30029], "coeff": [0] * degree + [1]}
            return {"n": 30030, "mode": "root", "rule": "prefix", "c": [{"k": 0, "terms": [term]}]}

        assert not CurvatureExpansion.from_json_dict(payload(5759)).coefficient(0).is_zero()
        with pytest.raises(ValueError, match="not reduced"):
            CurvatureExpansion.from_json_dict(payload(5760))


class TestWordType:
    """A word is a Comp everywhere: in the algebra, the path model and the output."""

    def test_every_route_returns_comp_words(self):
        n = 5
        words = [t.mono for t in deformed_power(n).terms()]
        words += [word for word, _ in maurer_cartan_element(n).items()]
        expansions = [generic_expansion(n), root_of_unity_expansion(n), path_expansion(n, PREFIX)]
        expansions += [CurvatureExpansion.from_json_dict(e.to_json_dict()) for e in expansions[:2]]
        for expansion in expansions:
            for k in expansion.powers():
                words += [word for word, _ in expansion.coefficient(k).items()]
        assert words and all(type(word) is Comp for word in words)

    def test_dp_vertex_keys_the_expansion(self):
        expansion = path_expansion(5, PREFIX)
        for s, weight in forward_tables(5, PREFIX)[5].items():
            assert expansion.coefficient(5 - s.degree()).coefficient(s) == weight


class TestArbitrationAndVerify:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_one_remainder_per_reducing_check(self, n, monkeypatch):
        # each check that reduces many coefficients at the root lists phi's
        # lower terms once for every n: the path model, the reduced oracle and
        # the production route; the infinitesimal check reduces its n entries one by one
        made = []
        real = curvature._folded_remainder

        def recorded(modulus):
            made.append(modulus.n)
            return real(modulus)

        for module in ("qcurvature.cyclo", "qcurvature.curvature"):
            monkeypatch.setattr(f"{module}._folded_remainder", recorded)
        assert verify_suite(n).passed
        assert Counter(made) == {m: 3 + m for m in range(2, n + 1)}

    def test_default_rule_is_prefix(self):
        assert resolve_default_rule() is PREFIX

    def test_report_passes_on_default(self):
        report = verify_suite(4)
        assert report.passed
        assert report.selected_rule == "prefix"
        assert report.arbitration["passing"] == "prefix"
        assert report.arbitration["failing"] == "literal"

    def test_shallow_report_passes_and_still_arbitrates(self):
        # at n_max=2 both rules agree, but arbitration runs its full
        # fixed range and still singles out the default
        report = verify_suite(2)
        assert report.passed
        assert report.selected_rule == "prefix"
        assert report.arbitration["counterexample"]["n"] == 3

    def test_literal_first_counterexample(self):
        report = verify_suite(4)
        ce = report.arbitration["counterexample"]
        assert ce == {
            "n": 3,
            "s": [2],
            "dpow": 0,
            "path_value": [0, 1],
            "oracle_value": [1],
        }

    def test_forced_literal_fails(self):
        report = verify_suite(3, LITERAL)
        assert not report.passed
        failing = [c for c in report.checks if c.status == "fail"]
        assert any(c.check == "oracle-equivalence" and c.rule == "literal" for c in failing)

    def test_failed_arbitration_is_reported_not_raised(self, monkeypatch):
        # an operator oracle that neither rule reproduces: verify must
        # report the failed arbitration and exit 1, not crash
        real = curvature._operator_terms

        def plus_d(n):
            # d, the empty word at k = 1, comes first in its block
            for k, terms in real(n):
                yield k, [((), ONE), *terms] if k == 1 else terms

        monkeypatch.setattr(curvature, "_operator_terms", plus_d)
        resolve_default_rule.cache_clear()
        try:
            report = verify_suite(3)
            assert not report.passed
            [row] = [c for c in report.checks if c.check == "weight-rule-arbitration"]
            assert row.status == "fail"
            assert run(["verify", "--n", "3"]) == 1
        finally:
            resolve_default_rule.cache_clear()

    def test_rows_past_the_arbitration_range_leave_it_alone(self, monkeypatch):
        # a stray d in the operator oracle at n = 7, past the arbitration's
        # fixed range: the arbitration still singles out prefix, and the
        # oracle-equivalence row at n = 7 reports the fault
        real = curvature._operator_terms

        def plus_d_at_7(n):
            for k, terms in real(n):
                yield k, [((), ONE), *terms] if n == 7 and k == 1 else terms

        monkeypatch.setattr(curvature, "_operator_terms", plus_d_at_7)
        report = verify_suite(8)
        assert report.selected_rule == "prefix"
        [row] = [c for c in report.checks if c.check == "weight-rule-arbitration"]
        assert row.status == "pass"
        assert not report.passed
        rows = [c for c in report.checks if c.check == "oracle-equivalence" and c.rule == "prefix"]
        assert [c.n for c in rows if not c.passed()] == [7]

    def test_reduction_commutes_only_where_two_routes_differ(self):
        # under the literal rule the root route is the path model itself,
        # so the check could not fail and is not run
        def rows(report):
            return [c.n for c in report.checks if c.check == "reduction-commutes"]

        assert rows(verify_suite(6, LITERAL)) == []
        assert rows(verify_suite(6)) == [2, 3, 4, 5, 6]

    def test_wrong_closed_form_fails_verify(self, monkeypatch, capsys):
        # both production routes and the CLI read M(n) from the closed-form
        # walk; the path model, the recursion and the operator oracle do not
        real = curvature._closed_form_walk
        argvs = (["curvature", "--n", "6"], ["curvature", "--n", "6", "--format", "json"])
        right = []
        for argv in argvs:
            assert run(argv) == 0
            right.append(capsys.readouterr().out)

        def wrong(n, rows, words=Entries):
            # add 1 to the packed coefficient of the word a^n, the last one
            walk = list(real(n, rows, words))
            word, x = walk.pop()
            return walk + [(word, x + 1)]

        monkeypatch.setattr(curvature, "_closed_form_walk", wrong)
        report = verify_suite(6)
        assert not report.passed
        failing = {c.check for c in report.checks if not c.passed() and c.rule != "literal"}
        assert failing == {"reduction-commutes", "binomial-formula"}
        for argv, before in zip(argvs, right):
            assert run(argv) == 0
            assert capsys.readouterr().out != before, argv

    def test_cold_verify_arbitrates_once(self, monkeypatch):
        # verify builds each rule's oracle-equivalence rows for n = 2..8 and
        # reads the arbitration off them; no check runs the arbitration again
        real = curvature._check_oracle_equivalence
        calls = []
        monkeypatch.setattr(
            curvature,
            "_check_oracle_equivalence",
            lambda n, rule, final: calls.append(n) or real(n, rule, final),
        )
        resolve_default_rule.cache_clear()
        try:
            assert verify_suite(8).passed
        finally:
            resolve_default_rule.cache_clear()
        assert len(calls) == 2 * 7

    def test_wrong_generic_production_fails_verify_at_n6(self, monkeypatch):
        # binomial-formula is the only check that reads the generic
        # production route, and it runs at every n
        right = generic_expansion(6)
        plant_production(monkeypatch, curvature.GENERIC, plus_one_at_a_power_n, at=6)
        assert generic_expansion(6) != right
        report = verify_suite(6)
        assert not report.passed
        failing = {(c.check, c.n) for c in report.checks if not c.passed() and c.rule != "literal"}
        assert failing == {("binomial-formula", 6)}

    def test_wrong_recursion_fails_verify(self, monkeypatch):
        # M(n) is the d^0 block of the operator oracle: a fault there at n = 7,
        # past the arbitration's range, shows in the three rows that read that
        # block, maurer-cartan among them; no production route reads it
        real = curvature._operator_terms

        def wrong(n):
            # M(n) + a^n at n = 7
            for k, terms in real(n):
                if n == 7 and k == 0:
                    terms = ((w, c + ONE if w == (0,) * n else c) for w, c in terms)
                yield k, terms

        monkeypatch.setattr(curvature, "_operator_terms", wrong)
        report = verify_suite(8)
        assert not report.passed
        [row] = [c for c in report.checks if c.check == "weight-rule-arbitration"]
        assert row.status == "pass"
        failing = [c for c in report.checks if not c.passed() and c.rule != "literal"]
        assert {(c.check, c.n) for c in failing} == {
            ("oracle-equivalence", 7), ("maurer-cartan", 7), ("binomial-formula", 7)
        }
        for c in failing:
            values = {key: v for key, v in c.counterexample.items() if key.endswith("_value")}
            assert (c.counterexample["s"], c.counterexample["dpow"]) == ([0] * 7, 0)
            assert values.pop("oracle_value") == [2] and list(values.values()) == [[1]]

    def test_wrong_root_route_fails_verify(self, monkeypatch):
        right = root_of_unity_expansion(6)
        plant_production(monkeypatch, curvature.ROOT, doubled)
        assert root_of_unity_expansion(6) != right
        report = verify_suite(6)
        assert not report.passed
        failing = {c.check for c in report.checks if not c.passed() and c.rule != "literal"}
        assert failing == {"reduction-commutes"}

    def test_failing_reduction_commutes_names_first_difference(self, monkeypatch):
        right = root_of_unity_expansion(3)
        plant_production(monkeypatch, curvature.ROOT, doubled)
        assert root_of_unity_expansion(3) != right
        rows = [c for c in verify_suite(3).checks if c.check == "reduction-commutes"]
        assert [c.status for c in rows] == ["fail", "fail"]
        # the canonically first word of M(2) reduced at -1 is d(a), coefficient 1
        assert rows[0].counterexample == {
            "n": 2,
            "s": [1],
            "dpow": 0,
            "production_value": [2],
            "path_value": [1],
        }

    def test_failing_binomial_formula_names_the_production_value(self, monkeypatch):
        right = generic_expansion(4)
        plant_production(monkeypatch, curvature.GENERIC, plus_one_at_a_power_n)
        assert generic_expansion(4) != right
        [row] = [c for c in verify_suite(4).checks if c.check == "binomial-formula" and c.n == 4]
        assert row.counterexample == {
            "n": 4,
            "s": [0, 0, 0, 0],
            "dpow": 0,
            "production_value": [2],
            "oracle_value": [1],
        }

    def test_stray_power_fails_maurer_cartan_at_its_dpow(self, monkeypatch):
        # maurer-cartan compares whole operators, so a coefficient of d^2
        # that should have vanished at the root is the first difference
        real = curvature._path_terms

        def stray(n, mode, final, *args):
            for k, terms in real(n, mode, final, *args):
                yield k, [((0, 0), ONE)] if (n, mode, k) == (4, "root", 2) else terms

        monkeypatch.setattr(curvature, "_path_terms", stray)
        report = verify_suite(4)
        failing = {(c.check, c.n): c.counterexample for c in report.checks if not c.passed() and c.rule != "literal"}
        assert set(failing) == {("maurer-cartan", 4), ("reduction-commutes", 4)}
        assert failing["maurer-cartan", 4] == {
            "n": 4,
            "s": [0, 0],
            "dpow": 2,
            "path_value": [1],
            "oracle_value": [],
        }

    def test_warm_verify_checks_each_oracle_row_once(self, monkeypatch):
        # arbitration reads the rows the report lists instead of recomputing them
        resolve_default_rule()
        calls = []
        real = curvature._check_oracle_equivalence

        def counted(n, rule, final):
            calls.append((n, rule))
            return real(n, rule, final)

        monkeypatch.setattr(curvature, "_check_oracle_equivalence", counted)
        assert verify_suite(8).passed
        assert sorted(calls) == sorted((n, rule) for n in range(2, 9) for rule in WeightRule)

    def test_cold_arbitration_stops_each_rule_at_its_first_failure(self, monkeypatch):
        calls = []
        real = curvature._check_oracle_equivalence

        def counted(n, rule, final):
            calls.append((n, rule))
            return real(n, rule, final)

        monkeypatch.setattr(curvature, "_check_oracle_equivalence", counted)
        resolve_default_rule.cache_clear()
        try:
            assert resolve_default_rule() is PREFIX
        finally:
            resolve_default_rule.cache_clear()
        assert [n for n, rule in calls if rule is LITERAL] == [2, 3]
        assert [n for n, rule in calls if rule is PREFIX] == [2, 3, 4, 5, 6]

    def test_verify_builds_each_path_root_once(self, monkeypatch):
        # maurer-cartan and reduction-commutes share one path-root stream per n
        calls = []
        real = curvature._path_terms

        def counted(n, mode, final, *args):
            if mode == "root":
                calls.append(n)
            return real(n, mode, final, *args)

        monkeypatch.setattr(curvature, "_path_terms", counted)
        assert verify_suite(6).passed
        assert sorted(calls) == [2, 3, 4, 5, 6]

    def test_cold_runs_build_few_step_tables(self, monkeypatch):
        # verify runs one pass of the dynamic program per rule, and every row
        # (oracle, arbitration, root, dp-vs-enum) reads a table of those passes
        real = paths._steps
        built = []

        def counted(n, rule):
            for t, table in enumerate(real(n, rule)):
                built.append((t, rule))
                yield table

        monkeypatch.setattr(paths, "_steps", counted)
        monkeypatch.setattr(curvature, "_steps", counted)
        resolve_default_rule.cache_clear()
        try:
            assert verify_suite(12).passed
            assert len(built) <= 2 * 13
            built.clear()
            resolve_default_rule.cache_clear()
            assert resolve_default_rule() is PREFIX
            # literal stops at its first failure, table 3; prefix reads tables 0..6
            assert len(built) <= 4 + 7
        finally:
            resolve_default_rule.cache_clear()

    def test_no_route_fills_the_all_steps_cache(self, capsys):
        # forward_tables is the public all-steps view; nothing in the package
        # reads it.  verify and the arbitration stream the operator oracles,
        # so only a direct call fills their caches
        forward_tables.cache_clear()
        deformed_power.cache_clear()
        maurer_cartan_element.cache_clear()
        resolve_default_rule.cache_clear()
        try:
            assert verify_suite(6).passed
            assert resolve_default_rule() is PREFIX
            path_expansion(5)
            path_root_expansion(5)
            assert run(["cq", "--s", "0,1", "--n", "6", "--rule", "literal"]) == 0
            resolve_default_rule.cache_clear()
            assert verify_suite(8).passed
            assert resolve_default_rule() is PREFIX
            assert four_step_listing_mismatches()
        finally:
            resolve_default_rule.cache_clear()
        capsys.readouterr()
        assert forward_tables.cache_info().currsize == 0
        assert deformed_power.cache_info().currsize == 0
        assert maurer_cartan_element.cache_info().currsize == 0

    def test_first_difference_reads_a_missing_key_as_zero(self):
        differences = curvature._differences
        a, b = QPoly((0, 1)), QPoly((2,))
        assert differences(stream({(1, (0,)): ONE}), stream({(1, (0,)): ONE})) == [None]
        # a ZERO present on one side only
        assert differences(stream({(1, (0,)): ZERO}), stream({})) == [None]
        assert differences(stream({}), stream({(2, ()): ZERO, (0, (1,)): ONE})) == [(0, (1,), ZERO, ONE)]
        # blocks with different sets of k: the higher power comes first
        left = stream({(2, ()): ONE, (0, (1,)): ONE})
        assert differences(left, stream({(1, (0,)): ONE, (0, (1,)): ONE})) == [(2, (), ONE, ZERO)]
        # a difference only in a lower block, at its canonically first word
        same = {(2, ()): ONE, (1, (0,)): a}
        left = stream({**same, (0, (0, 0)): ONE, (0, (1,)): ONE})
        right = stream({**same, (0, (0, 0)): b, (0, (1,)): b})
        assert differences(left, right) == [(0, (1,), ONE, b)]
        # one reference, several streams: each gets its own first difference
        reference = {(2, ()): ONE, (1, (0,)): a, (0, (1,)): ONE}
        assert differences(
            stream(reference), stream(reference), stream({**reference, (1, (0,)): b}), stream({(2, ()): ONE})
        ) == [None, (1, (0,), a, b), (1, (0,), a, ZERO)]

    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.sampled_from(WORDS)),
                st.sampled_from([ZERO, ONE, QPoly((0, 1)), QPoly((1, 1))]),
                max_size=8,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_differences_agree_with_a_sorted_key_union(self, maps):
        reference, *others = maps
        expected = [first_difference(reference, other) for other in others]
        assert curvature._differences(stream(reference), *map(stream, others)) == expected

    def test_wrong_enumeration_reports_first_vertex(self, monkeypatch):
        # dp-vs-enum compares whole tables and names the canonically first
        # vertex where they differ
        real = curvature._path_sums_enum

        def wrong(n, rule):
            table = real(n, rule)
            for s in ((0, 1), (1,)):
                table[s] = table.get(s, ZERO) + ONE
            return table

        monkeypatch.setattr(curvature, "_path_sums_enum", wrong)
        report = verify_suite(4)
        assert not report.passed
        rows = [c for c in report.checks if c.check == "dp-vs-enum"]
        assert [c.status for c in rows] == ["fail"] * 3
        bad = rows[-1].counterexample
        dp = forward_tables(4, LITERAL)[4][Comp((1,))]
        assert bad == {
            "n": 4,
            "rule": "literal",
            "s": [1],
            "dp": list(dp.coeffs),
            "enum": list((dp + ONE).coeffs),
        }

    def test_wrong_dp_table_reports_first_vertex(self, monkeypatch):
        # the DP side of dp-vs-enum: a wrong literal table 4 fails n = 4 only,
        # at its canonically first differing vertex
        real = paths._steps

        def wrong(n, rule):
            for t, table in enumerate(real(n, rule)):
                if (t, rule) == (4, LITERAL):
                    table = {**table, (1,): table[(1,)] + ONE}
                yield table

        monkeypatch.setattr(paths, "_steps", wrong)
        monkeypatch.setattr(curvature, "_steps", wrong)
        report = verify_suite(6)
        rows = [c for c in report.checks if c.check == "dp-vs-enum"]
        assert [c.status for c in rows] == ["pass", "pass", "fail", "pass"]
        assert rows[2].counterexample == {
            "n": 4,
            "rule": "literal",
            "s": [1],
            "dp": [2, 1, 2, 1, 1],
            "enum": [1, 1, 2, 1, 1],
        }
        assert [c for c in report.checks if c.rule is None and not c.passed()] == [rows[2]]

    def test_three_step_display_reads_the_selected_table(self, monkeypatch):
        # computed_coeff is the a^3 coefficient of the selected rule's table 3
        real = paths._steps
        selected = WeightRule(verify_suite(3).selected_rule)

        def wrong(n, rule):
            for t, table in enumerate(real(n, rule)):
                if (t, rule) == (3, selected):
                    table = {**table, (0, 0, 0): QPoly((2,))}
                yield table

        monkeypatch.setattr(paths, "_steps", wrong)
        monkeypatch.setattr(curvature, "_steps", wrong)
        report = verify_suite(3)
        assert report.selected_rule == selected.value
        assert report.three_step_display["computed_coeff"] == [2]
        rows = [c for c in report.checks if c.check == "oracle-equivalence" and c.rule == selected.value]
        assert [(c.n, c.status) for c in rows] == [(2, "pass"), (3, "fail")]

    def test_four_step_listing_mismatches(self):
        mismatches = {m.s: m for m in four_step_listing_mismatches()}
        assert set(mismatches) == {(1,), (0, 0), (0, 1), (1, 1)}
        assert mismatches[(1, 1)].stated == (1, 0, 1)
        assert mismatches[(1, 1)].computed == (1, 1, 1)
        assert mismatches[(0, 1)].computed == (1, 2, 2, 2, 1)
        # every entry carries exact polynomials on both sides
        for m in mismatches.values():
            assert m.stated and m.computed

    def test_report_documents_three_step_display(self):
        report = verify_suite(3)
        note = report.three_step_display
        assert note["missing_word"] == [0, 0, 0]
        assert note["computed_coeff"] == [1]
        assert "a^3" in note["note"]

    def test_report_json_shape(self):
        report = verify_suite(3)
        data = report.to_json_dict()
        assert {"n_max", "passed", "checks", "arbitration", "reference_discrepancies"} <= set(data)
        for entry in data["checks"]:
            assert {"check", "n", "status"} <= set(entry)

    def test_summary_lines_deterministic(self):
        a = "\n".join(verify_suite(3).summary_lines())
        b = "\n".join(verify_suite(3).summary_lines())
        assert a == b
        assert "result: PASS" in a

    def test_invalid_n_max(self):
        with pytest.raises(ValueError):
            verify_suite(1)

    def test_reduced_infinitesimal_counterexample(self, monkeypatch):
        # every entry matches both routes, so only the reduction can differ
        real = CycloModulus.reduce
        monkeypatch.setattr(CycloModulus, "reduce", lambda self, p: real(self, p) + ONE)
        rows = [c for c in verify_suite(4).checks if c.check == "infinitesimal"]
        assert [c.counterexample for c in rows] == [{"n": n, "m": 0, "reduced": [1]} for n in (2, 3, 4)]

    def test_summary_names_an_agreeing_listing(self, monkeypatch):
        monkeypatch.setattr(curvature, "four_step_listing_mismatches", lambda: ())
        lines = verify_suite(2).summary_lines()
        assert "four-step reference listing: no disagreements" in lines


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: path_expansion(0), "n must be positive", id="path_expansion(0)"),
        pytest.param(lambda: generic_expansion(0), "n must be positive", id="generic_expansion(0)"),
        pytest.param(
            lambda: path_root_expansion(1), "root-of-unity mode needs n >= 2", id="path_root_expansion(1)"
        ),
        pytest.param(
            lambda: infinitesimal_coefficients(1), "n must be at least 2", id="infinitesimal_coefficients(1)"
        ),
        pytest.param(
            lambda: infinitesimal_from_operator(1), "n must be at least 2", id="infinitesimal_from_operator(1)"
        ),
        pytest.param(
            lambda: infinitesimal_composition_sum(1, "stay"),
            "n must be at least 2",
            id="infinitesimal_composition_sum(1)",
        ),
    ],
)
def test_rejects_n_below_range(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
