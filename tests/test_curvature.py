"""Tests for the curvature expansions and the cross-validation suite."""

import copy
from math import comb, factorial

import pytest

import qcurvature.curvature as curvature
from qcurvature.curvature import (
    COMPOSITION_SUM_READINGS,
    CurvatureExpansion,
    binomial_expansion,
    four_step_listing_mismatches,
    generic_expansion,
    infinitesimal_coefficients,
    infinitesimal_composition_sum,
    infinitesimal_from_operator,
    path_expansion,
    path_root_expansion,
    power_formula_coefficients,
    resolve_default_rule,
    root_of_unity_expansion,
    verify_suite,
)
from qcurvature.cyclo import ONE, CycloModulus, QPoly, q_binomial
from qcurvature.freealg import (
    ElementPoly,
    OperatorPoly,
    deformed_power,
    maurer_cartan_element,
)
from qcurvature.paths import Comp, WeightRule, forward_tables, stay_count

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


def closed_form(word):
    """The product formula for the coefficient of ``word`` in M(n), over QPoly."""
    value, left = ONE, 0
    for entry in word:
        value = value * q_binomial(left + entry, entry)
        left += entry + 1
    return value


def compositions(n):
    """Every word of degree n: a tuple s with sum(s_i + 1) == n."""
    if n == 0:
        yield ()
        return
    for first in range(n):
        for rest in compositions(n - 1 - first):
            yield (first,) + rest


class TestClosedForm:
    """M(n) from its product formula, Kronecker-packed, against the recursion and QPoly."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_leading_power_formula_coefficient_is_the_recursion(self, n):
        assert power_formula_coefficients(n)[0] == maurer_cartan_element(n)

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
        c = power_formula_coefficients(n)
        for k in range(1, n + 1):
            binomial = q_binomial(n, k)
            expected = {word: binomial * closed_form(word) for word in compositions(k)}
            assert {mono.entries: v for mono, v in c[n - k].items()} == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_values_at_one_respect_the_packing_bound(self, n):
        # packing relies on [n choose k]_q * M(k)[s] at q = 1 being at most
        # C(n, k) * (k-1)!, which leaves a spare bit below 2^bits
        c = power_formula_coefficients(n)
        for k in range(1, n + 1):
            bound = comb(n, k) * factorial(k - 1)
            assert bound < 2 ** (curvature._packing_bits(n, k) - 1)
            assert max(value.evaluate(1) for _, value in c[n - k].items()) <= bound


class TestBinomialExpansion:
    def test_n2_structure(self):
        assert binomial_expansion(2) == OperatorPoly.from_terms(
            [
                (Comp(()), 2, ONE),
                (Comp((0,)), 1, QPoly((1, 1))),
                (Comp((1,)), 0, ONE),
                (Comp((0, 0)), 0, ONE),
            ]
        )

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_operator_oracle(self, n):
        assert binomial_expansion(n) == deformed_power(n)


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

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reduction_at_root(self, n):
        reduced = infinitesimal_coefficients(n, PREFIX).reduced(CycloModulus.of(n))
        for m in range(n - 1):
            assert reduced.coeffs[m].is_zero()
        assert reduced.coeffs[n - 1] == ONE


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
        assert not cmp.all_match()

    def test_block_reading_misses(self):
        cmp = infinitesimal_composition_sum(3, "block", PREFIX)
        assert not cmp.all_match()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stay_reading_reproduces_path_model(self, n):
        assert infinitesimal_composition_sum(n, "stay", PREFIX).all_match()

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
        ],
    )
    def test_rejects_what_does_not_round_trip(self, c):
        with pytest.raises(ValueError):
            CurvatureExpansion.from_json_dict({"n": 2, "mode": "root", "rule": "prefix", "c": c})


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
            assert expansion.coefficient(stay_count(s, 5)).coefficient(s) == weight


class TestArbitrationAndVerify:
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

    def test_reduction_commutes_only_where_two_routes_differ(self):
        # under the literal rule the root route is the path model itself,
        # so the check could not fail and is not run
        def rows(report):
            return [c.n for c in report.checks if c.check == "reduction-commutes"]

        assert rows(verify_suite(6, LITERAL)) == []
        assert rows(verify_suite(6)) == [2, 3, 4, 5, 6]

    def test_wrong_closed_form_fails_verify(self, monkeypatch):
        # both production routes read M(n) from the closed form; the path
        # model, the recursion and the operator oracle do not
        real = curvature._closed_form_packed

        def wrong(n, bits, start=1):
            # add 1 to the packed coefficient of the word a^n
            return [(s, x + (s == (0,) * n)) for s, x in real(n, bits, start)]

        monkeypatch.setattr(curvature, "_closed_form_packed", wrong)
        report = verify_suite(6)
        assert not report.passed
        failing = {c.check for c in report.checks if not c.passed() and c.rule != "literal"}
        assert failing == {"reduction-commutes", "binomial-formula"}

    def test_wrong_recursion_fails_verify(self, monkeypatch):
        # maurer-cartan compares the recursion with the path model; no
        # production route reads the recursion
        def wrong(n):
            return maurer_cartan_element(n) + ElementPoly.from_word(*([0] * n))

        monkeypatch.setattr(curvature, "maurer_cartan_element", wrong)
        report = verify_suite(6)
        assert not report.passed
        failing = {c.check for c in report.checks if not c.passed() and c.rule != "literal"}
        assert failing == {"maurer-cartan"}

    def test_wrong_root_route_fails_verify(self, monkeypatch):
        real = curvature.root_of_unity_expansion

        def wrong(n, rule=None):
            right = real(n, rule)
            return CurvatureExpansion(n, right.mode, right.rule, {0: right.coefficient(0).scaled(2)})

        monkeypatch.setattr(curvature, "root_of_unity_expansion", wrong)
        report = verify_suite(6)
        assert not report.passed
        failing = {c.check for c in report.checks if not c.passed() and c.rule != "literal"}
        assert failing == {"reduction-commutes"}

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
