"""Tests for the free operator algebra and its normal ordering."""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qcurvature.cyclo import ONE, CycloModulus, QPoly
from qcurvature.freealg import (
    ElementPoly,
    _lane_bits,
    _unpack_lanes,
    _word_rewrite,
    OperatorPoly,
    deformed_power,
    deformed_power_first_order,
    maurer_cartan_element,
    multiply_by_a,
    normal_order,
    q_derivative,
)
from qcurvature.paths import Comp, enumerate_vertices

q = QPoly((0, 1))
q2 = QPoly((0, 0, 1))


def op(*terms):
    """Shorthand: terms are (entries, dpow, coeff-as-QPoly-or-int)."""
    return OperatorPoly.from_terms(
        (Comp(entries), dpow, coeff if isinstance(coeff, QPoly) else QPoly((coeff,)))
        for entries, dpow, coeff in terms
    )


def element(*terms):
    """Shorthand: terms are (entries, coeff-as-QPoly-or-int)."""
    return ElementPoly(
        {
            Comp(entries): coeff if isinstance(coeff, QPoly) else QPoly((coeff,))
            for entries, coeff in terms
        }
    )


class TestNormalOrder:
    def test_d_past_e0(self):
        assert normal_order(["d", 0]) == op(((1,), 0, 1), ((0,), 1, q))

    def test_already_normal(self):
        assert normal_order([0, "d"]) == op(((0,), 1, 1))

    def test_d_past_e1(self):
        assert normal_order(["d", 1]) == op(((2,), 0, 1), ((1,), 1, q2))

    def test_empty_word_is_unit(self):
        assert normal_order([]) == OperatorPoly.one()

    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            normal_order(["x"])

    words = st.lists(st.sampled_from(["d", 0, 1, 2]), max_size=2)

    @settings(max_examples=80, deadline=None)
    @given(words, words, words)
    def test_associativity(self, u, v, w):
        left = (normal_order(u) * normal_order(v)) * normal_order(w)
        right = normal_order(u) * (normal_order(v) * normal_order(w))
        assert left == right
        assert left == normal_order(list(u) + list(v) + list(w))

    def test_leibniz_consistency_small_monomials(self):
        # d * word == (derivative of word) + q^deg(word) * word * d
        for s in enumerate_vertices(5):
            word = list(s.entries)
            lhs = normal_order(["d"] + word)
            shifted = element((s.entries, 1)).times_d_power(1)
            rhs = (
                q_derivative(element((s.entries, ONE))).to_operator()
                + shifted.scaled(QPoly.monomial(s.degree()))
            )
            assert lhs == rhs, s


class TestDeformedPower:
    def test_power_one(self):
        assert deformed_power(1) == op(((), 1, 1), ((0,), 0, 1))

    def test_power_two(self):
        assert deformed_power(2) == op(
            ((), 2, 1),
            ((0,), 1, QPoly((1, 1))),
            ((1,), 0, 1),
            ((0, 0), 0, 1),
        )

    def test_power_three(self):
        three = QPoly((1, 1, 1))
        assert deformed_power(3) == op(
            ((), 3, 1),
            ((0,), 2, three),
            ((1,), 1, three),
            ((0, 0), 1, three),
            ((2,), 0, 1),
            ((1, 0), 0, 1),
            ((0, 1), 0, QPoly((1, 1))),
            ((0, 0, 0), 0, 1),
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_grading(self, n):
        for term in deformed_power(n).terms():
            assert term.mono.degree() + term.dpow == n

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_general_product(self, n):
        # the right side multiplies through the general OperatorPoly product
        assert deformed_power(n) == (OperatorPoly.d() + OperatorPoly.e(0)) ** n

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            deformed_power(0)

    def test_leaves_no_rewrite_entries(self):
        deformed_power.cache_clear()
        deformed_power(12)
        assert _word_rewrite.cache_info().currsize == 0


class TestPacking:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_mass_within_lane_bound(self, n):
        # every coefficient is nonnegative, so its value at q = 1 bounds each lane
        bound = factorial(n + 1)
        assert bound < 1 << _lane_bits(n)
        assert sum(term.coeff.evaluate(1) for term in deformed_power(n).terms()) <= bound
        assert sum(coeff.evaluate(1) for _, coeff in maurer_cartan_element(n).items()) <= bound

    def test_lane_width(self):
        assert _lane_bits(19) == 64
        assert _lane_bits(20) == 128

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([64, 128, 192]), st.data())
    def test_unpack_lanes(self, lane, data):
        # the leading lane is at least 2^(lane - 64), so it fills its top word
        values = data.draw(st.lists(st.integers(0, 2**lane - 1), max_size=20))
        values.append(data.draw(st.integers(2 ** (lane - 64), 2**lane - 1)))
        packed = sum(v << (lane * e) for e, v in enumerate(values))
        assert _unpack_lanes(packed, lane) == QPoly(tuple(values))


class TestQDerivative:
    def test_single_factor(self):
        assert q_derivative(element(((0,), ONE))) == element(((1,), ONE))

    def test_two_factors(self):
        assert q_derivative(element(((0, 0), ONE))) == element(
            ((1, 0), ONE), ((0, 1), q)
        )

    def test_prefix_degree_two(self):
        assert q_derivative(element(((1, 0), ONE))) == element(
            ((2, 0), ONE), ((1, 1), q2)
        )

    def test_linearity(self):
        p = element(((0,), QPoly((1, 1))), ((1, 0), ONE))
        direct = q_derivative(p)
        split = q_derivative(element(((0,), QPoly((1, 1))))) + q_derivative(
            element(((1, 0), ONE))
        )
        assert direct == split


class TestMaurerCartan:
    def test_order_two(self):
        assert maurer_cartan_element(2) == element(((1,), ONE), ((0, 0), ONE))

    def test_order_three(self):
        assert maurer_cartan_element(3) == element(
            ((2,), ONE),
            ((1, 0), ONE),
            ((0, 1), QPoly((1, 1))),
            ((0, 0, 0), ONE),
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pure_product_word_has_unit_coefficient(self, n):
        mc = maurer_cartan_element(n)
        assert mc.coefficient(Comp((0,) * n)) == ONE

    @pytest.mark.parametrize("n", range(1, 11))
    def test_recursion_soundness(self, n):
        mc = maurer_cartan_element(n)
        assert maurer_cartan_element(n + 1) == q_derivative(mc) + multiply_by_a(mc)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reduced_power_collapses_to_element(self, n):
        # at a primitive n-th root every d-carrying term of the n-th power
        # vanishes and the rest is the reduced element
        modulus = CycloModulus.of(n)
        power = deformed_power(n)
        for term in power.terms():
            reduced = modulus.reduce(term.coeff)
            if term.dpow >= 1:
                assert reduced.is_zero() or term.mono.degree() == 0, term
                if term.mono.degree() == 0:
                    assert term.dpow == n  # the untouched pure d^n term
            else:
                expected = modulus.reduce(
                    maurer_cartan_element(n).coefficient(term.mono)
                )
                assert reduced == expected


class TestFirstOrderPower:
    def test_order_one(self):
        assert deformed_power_first_order(1) == op(((0,), 0, 1))

    def test_order_two(self):
        assert deformed_power_first_order(2) == op(
            ((0,), 1, QPoly((1, 1))), ((1,), 0, 1)
        )

    def test_order_three(self):
        three = QPoly((1, 1, 1))
        assert deformed_power_first_order(3) == op(
            ((0,), 2, three), ((1,), 1, three), ((2,), 0, 1)
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_single_letter_part_of_full_power(self, n):
        single_letter = OperatorPoly.from_terms(
            (t.mono, t.dpow, t.coeff) for t in deformed_power(n).terms() if len(t.mono) == 1
        )
        assert deformed_power_first_order(n) == single_letter


class TestElementPoly:
    def test_times_d_power(self):
        assert element(((0,), ONE)).times_d_power(2) == op(((0,), 2, 1))

    def test_reduce_mod_drops_vanishing_terms(self):
        p = element(((0,), QPoly((1, 1))), ((1,), ONE))
        reduced = p.reduce_mod(CycloModulus.of(2))
        assert reduced == element(((1,), ONE))


class TestRendering:
    def test_operator_str(self):
        assert str(OperatorPoly.zero()) == "0"
        assert str(deformed_power(2)) == "d^2 + (1+q)*a*d + d(a) + a^2"
        assert str(op(((0,), 0, q))) == "q*a"
