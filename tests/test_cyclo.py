"""Tests for exact q-polynomial arithmetic and cyclotomic reduction."""

import operator
import sys
import time
from math import comb, factorial, gcd

import pytest
from hypothesis import given, strategies as st

import qcurvature.cyclo as cyclo
from qcurvature.cyclo import (
    ONE,
    ZERO,
    CycloModulus,
    QPoly,
    coeffs_list,
    cyclotomic,
    divisors,
    poly_from_coeffs,
    q_binomial,
    q_factorial,
    q_number,
    reduce,
)

qpolys = st.lists(st.integers(-9, 9), max_size=8).map(tuple).map(QPoly)


def totient(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


class TestQPoly:
    def test_canonical_form_strips_trailing_zeros(self):
        assert QPoly((1, 0, 2, 0, 0)).coeffs == (1, 0, 2)
        assert QPoly((0, 0)).coeffs == ()
        assert QPoly().is_zero()

    @pytest.mark.parametrize("bad", [1.7, True, "1", None])
    def test_rejects_non_int_coefficients(self, bad):
        with pytest.raises(TypeError):
            QPoly((1, bad))

    @given(qpolys, st.integers(0, 6))
    def test_shift_is_a_monomial_product(self, p, e):
        assert p.shift(e) == p * QPoly.monomial(e)

    def test_shift_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ONE.shift(-1)

    def test_monomial(self):
        assert QPoly.monomial(3).coeffs == (0, 0, 0, 1)
        assert QPoly.monomial(0, 5).coeffs == (5,)
        with pytest.raises(ValueError):
            QPoly.monomial(-1)

    @pytest.mark.parametrize("left, right", [(ONE, "x"), ("x", ONE), (ONE, 1.5), (1.5, ONE)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_non_polynomial_operand_raises_type_error(self, op, left, right):
        with pytest.raises(TypeError):
            op(left, right)

    def test_arithmetic_basics(self):
        p = QPoly((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero()
        assert (p + 1).coeffs == (2, 1)
        assert (2 * p).coeffs == (2, 2)
        assert (p**3).coeffs == (1, 3, 3, 1)

    def test_exact_division(self):
        num = QPoly((-1, 0, 0, 1))  # q^3 - 1
        den = QPoly((-1, 1))  # q - 1
        assert num.exact_div(den).coeffs == (1, 1, 1)
        with pytest.raises(ValueError):
            QPoly((1, 1)).exact_div(QPoly((0, 1)))

    def test_divmod_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divmod(ONE, ZERO)

    def test_evaluate(self):
        assert QPoly((1, 2, 3)).evaluate(1) == 6
        assert QPoly((1, 2, 3)).evaluate(2) == 17
        assert ZERO.evaluate(7) == 0

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(QPoly((1, 1, 2))) == "1 + q + 2*q^2"
        assert str(QPoly((-1, 1))) == "-1 + q"
        assert str(QPoly((0, 1))) == "q"
        assert str(QPoly((1, 0, -3))) == "1 - 3*q^2"
        assert QPoly((1, 1)).compact() == "1+q"

    @given(st.lists(st.integers(-12, 12), max_size=12))
    def test_compact_is_str_without_spaces(self, coeffs):
        # lists of this range hold negatives and inner zeros
        p = QPoly(tuple(coeffs))
        assert p.compact() == str(p).replace(" ", "")

    def test_latex(self):
        assert QPoly((1, 1, 2)).latex() == "1+q+2q^{2}"
        assert QPoly((0, -1)).latex() == "-q"
        assert ZERO.latex() == "0"
        assert QPoly((0, 2)).latex() == "2q"
        assert QPoly((0, 0, 0, -1, 1)).latex() == "-q^{3}+q^{4}"
        assert QPoly.monomial(10).latex() == "q^{10}"

    def test_json_coeffs(self):
        assert coeffs_list(QPoly((1, 1))) == [1, 1]
        assert poly_from_coeffs([1, 1]) == QPoly((1, 1))
        assert coeffs_list(ZERO) == []

    @given(qpolys, qpolys)
    def test_addition_commutes(self, p, r):
        assert p + r == r + p

    @given(qpolys, qpolys, qpolys)
    def test_mul_associative_and_distributive(self, p, r, s):
        assert (p * r) * s == p * (r * s)
        assert p * (r + s) == p * r + p * s

    @given(qpolys)
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(qpolys, qpolys)
    def test_degree_of_product(self, p, r):
        if p.is_zero() or r.is_zero():
            assert (p * r).is_zero()
        else:
            assert (p * r).degree == p.degree + r.degree


class TestQNumbers:
    def test_q_number(self):
        assert q_number(0) == ZERO
        assert q_number(1) == ONE
        assert q_number(3) == QPoly((1, 1, 1))
        with pytest.raises(ValueError):
            q_number(-1)

    def test_q_factorial(self):
        assert q_factorial(0) == ONE
        assert q_factorial(2) == QPoly((1, 1))
        # (1+q)(1+q+q^2), expanded by hand
        assert q_factorial(3) == QPoly((1, 2, 2, 1))

    def test_q_factorial_equals_q_number_product(self):
        product = ONE
        for k in range(1, 31):
            product = product * q_number(k)
            assert q_factorial(k) == product, k

    def test_q_factorial_past_the_recursion_limit(self):
        q_factorial.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            value = q_factorial(300)
        finally:
            sys.setrecursionlimit(limit)
        assert value.degree == 300 * 299 // 2
        assert value.evaluate(1) == factorial(300)

    def test_q_binomial_examples(self):
        # recurrence value, cross-checked by exact division below
        assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
        assert q_binomial(5, 0) == ONE
        assert q_binomial(3, 1) == q_number(3)
        assert q_binomial(3, 3) == ONE

    def test_q_binomial_out_of_range(self):
        assert q_binomial(4, -1) == ZERO
        assert q_binomial(4, 5) == ZERO

    @pytest.mark.parametrize("n", range(0, 13))
    def test_q_binomial_matches_factorial_quotient(self, n):
        for k in range(0, n + 1):
            quotient = q_factorial(n).exact_div(q_factorial(n - k) * q_factorial(k))
            assert q_binomial(n, k) == quotient

    @pytest.mark.parametrize("n", range(0, 13))
    def test_q_binomial_symmetry(self, n):
        for k in range(0, n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_q_binomial_matches_pascal_recurrence(self):
        # C(m, j) = C(m-1, j-1) + q^j C(m-1, j), one row at a time
        row = [ONE]
        for m in range(0, 31):
            if m:
                row = [ONE] + [row[j - 1] + row[j].shift(j) for j in range(1, m)] + [ONE]
            for k in range(-1, m + 2):
                assert q_binomial(m, k) == (row[k] if 0 <= k <= m else ZERO), (m, k)

    def test_q_binomial_at_scale_is_fast(self):
        q_binomial.cache_clear()
        start = time.perf_counter()
        value = q_binomial(300, 150)
        assert time.perf_counter() - start < 5
        assert value.degree == 150 * 150
        assert value.evaluate(1) == comb(300, 150)

    def test_q_binomial_specialises_to_integers_at_one(self):
        from math import comb

        for n in range(0, 10):
            for k in range(0, n + 1):
                assert q_binomial(n, k).evaluate(1) == comb(n, k)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1) == QPoly((-1, 1))
        assert cyclotomic(2) == QPoly((1, 1))
        assert cyclotomic(3) == QPoly((1, 1, 1))
        assert cyclotomic(4) == QPoly((1, 0, 1))
        assert cyclotomic(6) == QPoly((1, -1, 1))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_product_over_divisors(self, n):
        product = ONE
        for d in divisors(n):
            product = product * cyclotomic(d)
        assert product == QPoly.monomial(n) - ONE

    @pytest.mark.parametrize("n", range(1, 13))
    def test_degree_is_totient(self, n):
        assert cyclotomic(n).degree == totient(n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_modulus_kills_q_number_n(self, n):
        assert reduce(q_number(n), CycloModulus.of(n)) == ZERO

    def test_trial_division_totient_is_the_degree(self):
        assert [cyclo.totient(n) for n in range(1, 301)] == [
            cyclotomic(n).degree for n in range(1, 301)
        ]

    def test_builds_divisors_without_calling_itself(self):
        # every divisor's Phi is built locally, so only the call itself is cached
        cyclotomic.cache_clear()
        assert cyclotomic(720).degree == totient(720)
        assert cyclotomic.cache_info().currsize == 1

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            CycloModulus.of(1)
        assert CycloModulus(4).phi == cyclotomic(4)


class TestReduce:
    def test_examples(self):
        m3 = CycloModulus.of(3)
        m4 = CycloModulus.of(4)
        assert reduce(q_number(3), m3) == ZERO
        assert reduce(QPoly.monomial(4), m4) == ONE  # q^2 = -1, so q^4 = 1
        assert reduce(ZERO, m4) == ZERO

    def test_degree_bound(self):
        m = CycloModulus.of(5)
        r = reduce(QPoly.monomial(23, 7) + QPoly((1, 2, 3)), m)
        assert r.degree < m.phi.degree

    @pytest.mark.parametrize("n", range(2, 13))
    def test_binomial_vanishing(self, n):
        m = CycloModulus.of(n)
        for k in range(1, n):
            assert reduce(q_binomial(n, k), m) == ZERO

    @given(qpolys, qpolys, st.integers(2, 12))
    def test_reduce_is_ring_homomorphism(self, p, r, n):
        m = CycloModulus.of(n)
        assert reduce(p * r, m) == reduce(reduce(p, m) * reduce(r, m), m)
        assert reduce(p + r, m) == reduce(reduce(p, m) + reduce(r, m), m)

    @given(st.lists(st.integers(-9, 9), max_size=40).map(tuple).map(QPoly), st.integers(2, 12))
    def test_fold_then_divide_equals_plain_division(self, p, n):
        m = CycloModulus.of(n)
        assert reduce(p, m) == divmod(p, m.phi)[1]

    @given(st.data(), st.integers(2, 39))
    def test_folded_remainder_equals_plain_division(self, data, n):
        # up to n values, trailing zeros allowed, as a fold mod q^n - 1 leaves them,
        # and longer lists, which it folds first; one remainder function divides
        # several lists, as every caller reducing many coefficients uses it
        m = CycloModulus.of(n)
        remainder = cyclo._folded_remainder(m)
        for values in data.draw(st.lists(st.lists(st.integers(-99, 99), max_size=3 * n), min_size=1, max_size=4)):
            given_values = list(values)
            assert remainder(values) == divmod(QPoly(tuple(values)), m.phi)[1]
            assert values == given_values

    @given(qpolys, st.integers(2, 12))
    def test_reduce_is_idempotent(self, p, n):
        m = CycloModulus.of(n)
        assert reduce(reduce(p, m), m) == reduce(p, m)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: QPoly((1,)) ** -1, "negative powers are not defined in Z[q]", id="pow(-1)"),
        pytest.param(lambda: q_factorial(-1), "k must be nonnegative", id="q_factorial(-1)"),
        # unguarded, q_binomial(-1, 0) is 0 and cyclotomic(0) a KeyError
        pytest.param(lambda: q_binomial(-1, 0), "n must be nonnegative", id="q_binomial(-1, 0)"),
        pytest.param(lambda: cyclotomic(0), "n must be positive", id="cyclotomic(0)"),
        # unguarded, divisors(0) is [] and divisors(-4) a TypeError from a complex square root
        pytest.param(lambda: divisors(0), "n must be positive", id="divisors(0)"),
        pytest.param(lambda: divisors(-4), "n must be positive", id="divisors(-4)"),
        pytest.param(
            lambda: divmod(QPoly((0, 1)), QPoly((0, 2))), "1 is not divisible by 2", id="divmod(q, 2q)"
        ),
        pytest.param(lambda: cyclo._over_q_number([1, 1], 3), "not divisible by [3]_q", id="_over_q_number"),
    ],
)
def test_rejects_input_out_of_range(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
