"""Tests for the free operator algebra and its normal ordering."""

import gc
import sys
import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qcurvature import (
    CurvatureExpansion,
    freealg,
    generic_expansion,
    root_of_unity_expansion,
)
from qcurvature.cyclo import ONE, CycloModulus, QPoly
from qcurvature.freealg import (
    ElementPoly,
    _decoded,
    _lane_bits,
    _next_words,
    _operator_terms,
    _raising_moves,
    _unpack_lanes,
    _word_rewrite,
    OperatorPoly,
    Term,
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
    return OperatorPoly(
        {
            (Comp(entries), dpow): coeff if isinstance(coeff, QPoly) else QPoly((coeff,))
            for entries, dpow, coeff in terms
        }
    )


def element(*terms):
    """Shorthand: terms are (entries, coeff-as-QPoly-or-int)."""
    return ElementPoly(
        {
            Comp(entries): coeff if isinstance(coeff, QPoly) else QPoly((coeff,))
            for entries, coeff in terms
        }
    )


def operator_order(key):
    """The canonical order of an operator's stored keys, written out: dpow
    descending, then by length, then entrywise from the last entry back."""
    word, dpow = key
    return (-dpow, len(word), word[::-1])


def element_order(word):
    """The canonical order of an element's stored words, written out."""
    return (len(word), word[::-1])


def assert_canonical(poly):
    """``poly`` stores its words as entries tuples in canonical order (an operator
    by blocks of dpow descending, no block empty), holds no zero, and lists them as stored."""
    if isinstance(poly, OperatorPoly):
        assert list(poly._terms) == sorted(poly._terms, reverse=True)
        assert all(poly._terms.values())
        keys = [(word, dpow) for dpow, block in poly._terms.items() for word in block]
        coeffs = [c for block in poly._terms.values() for c in block.values()]
        assert keys == sorted(keys, key=operator_order)
        assert [(t.mono.entries, t.dpow) for t in poly.terms()] == keys
    else:
        keys, coeffs = list(poly._terms), list(poly._terms.values())
        assert keys == sorted(keys, key=element_order)
        assert [mono.entries for mono, _ in poly.items()] == keys
    assert not any(c.is_zero() for c in coeffs)


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
            rhs = {(mono, 0): c for mono, c in q_derivative(element((s.entries, ONE))).items()}
            rhs[(s, 1)] = QPoly.monomial(s.degree())
            assert lhs == OperatorPoly(rhs), s


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

    @pytest.mark.parametrize("n", range(10, 14))
    def test_step_matches_general_product(self, n):
        # one step through the general product, which shares no code with the slice kernel
        step = OperatorPoly.d() + OperatorPoly.e(0)
        assert deformed_power(n) == step * deformed_power(n - 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_terms_stored_in_canonical_order(self, n):
        assert_canonical(deformed_power(n))
        assert_canonical(maurer_cartan_element(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_read_after_the_stream_is_drained(self, n):
        # each block decodes its own list: reading it after every block has
        # been handed out gives what reading in order gives
        late = [(k, list(terms)) for k, terms in list(_operator_terms(n))]
        assert late == [(k, list(terms)) for k, terms in _operator_terms(n)]

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            deformed_power(0)

    def test_leaves_no_rewrite_entries(self):
        # the memo serves the general product; deformed_power adds nothing to it
        _word_rewrite.cache_clear()
        deformed_power.cache_clear()
        deformed_power(12)
        assert _word_rewrite.cache_info().currsize == 0

    def test_word_rewrite_past_the_recursion_limit(self):
        _word_rewrite.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            terms = _word_rewrite((0,) * 300)
        finally:
            sys.setrecursionlimit(limit)
            _word_rewrite.cache_clear()
        assert len(terms) == 301
        assert terms[5] == ((0,) * 5 + (1,) + (0,) * 294, 0, 5)
        assert terms[-1] == ((0,) * 300, 1, 300)


def spec_code(entries):
    """The word code as specified: from bit 0 up, s_1 zeros and a one, s_2 zeros
    and a one, ..., then a leading one at bit deg."""
    bits = "".join("0" * s + "1" for s in entries)
    return int("1" + bits[::-1], 2)


def word_tables(top):
    """The word table of each degree 1..top, by offset, as the oracles build it."""
    tables = {1: [(0,)]}
    for degree in range(2, top + 1):
        tables[degree] = _next_words(tables[degree - 1])
    return tables


class TestWordCode:
    words = enumerate_vertices(12)  # every word of degree <= 12
    tables = word_tables(12)

    def test_table_decodes_every_code(self):
        # offset j of degree D stands for code 3 * 2^(D-1) + j
        for degree, table in self.tables.items():
            codes = range((3 << degree) >> 1, 2 << degree)
            assert [spec_code(w) for w in table] == list(codes), degree
            assert {s.entries for s in self.words if s.degree() == degree} == set(table)

    def test_moves_on_codes_are_moves_on_words(self):
        for s in self.words:
            c = spec_code(s.entries)
            assert spec_code((0,) + s.entries) == (c << 1) | 1
            left = 0  # P_i, the degree left of entry i: the bit where it starts
            x = s.entries
            for i, entry in enumerate(x, start=1):
                raised = x[: i - 1] + (entry + 1,) + x[i:]
                assert spec_code(raised) == c + (c >> left << left)
                assert c + (c & -(1 << left)) == c + (c >> left << left)
                left += entry + 1
            # d pushed past the word: a raised entry at its start bit, or the word kept at q^deg
            for word, dpow, e in _word_rewrite.__wrapped__(s.entries):
                if dpow:
                    assert (word, e) == (s.entries, c.bit_length() - 1)
                else:
                    assert spec_code(word) == c + (c >> e << e)

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_slices_are_the_raising_moves(self, degree):
        # together the slices raise, exactly once, each entry after the first of every
        # word: code c -> c + (c >> p << p) where an entry starts at bit p (bit p - 1 set)
        count, low = 1 << (degree - 1), (3 << degree) >> 1  # offset j is code low + j
        made = []
        for p, t, s in _raising_moves(degree):
            targets, sources = range(2 * count)[t], range(count)[s]
            assert len(targets) == len(sources)
            made += [(p, low + j, 2 * low + k) for j, k in zip(sources, targets)]
        wanted = [
            (p, c, c + (c >> p << p))
            for p in range(1, degree)
            for c in range(low, low + count)
            if c >> (p - 1) & 1
        ]
        assert sorted(made) == wanted

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_decoded_in_canonical_order(self, degree):
        table = self.tables[degree]
        block = list(range(1, len(table) + 1))  # each offset's own coefficient
        decoded = [(w, c.coeffs) for w, c in _decoded(block, table, 64)]
        expect = sorted((Comp(w).sort_key(), w, (j + 1,)) for j, w in enumerate(table))
        assert decoded == [(w, coeffs) for _, w, coeffs in expect]
        assert block == [0] * len(table)  # every packed int is dropped once read

    def test_decoded_unpacks_each_distinct_int_once(self, monkeypatch):
        table = self.tables[4]
        values = [5, 7, 5, 9, 7, 5, 5, 9]
        block = list(values)
        unpacked = []

        def counted(x, lane):
            unpacked.append(x)
            return _unpack_lanes(x, lane)

        monkeypatch.setattr(freealg, "_unpack_lanes", counted)
        decoded = list(_decoded(block, table, 64))
        order = sorted(range(len(table)), key=lambda j: Comp(table[j]).sort_key())
        assert [(w, c.coeffs) for w, c in decoded] == [(table[j], (values[j],)) for j in order]
        assert sorted(unpacked) == [5, 7, 9]
        by_value = {}
        for j, (_, coeff) in zip(order, decoded):
            assert by_value.setdefault(values[j], coeff) is coeff
        assert block == [0] * len(table)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equal_coefficients_are_one_object(self, n):
        # each d^k block of D^n, and M(n), holds one QPoly per distinct value
        blocks = {}
        for t in deformed_power(n).terms():
            blocks.setdefault(t.dpow, []).append(t.coeff)
        blocks["M"] = [c for _, c in maurer_cartan_element(n).items()]
        for key, coeffs in blocks.items():
            assert len({id(c) for c in coeffs}) == len({c.coeffs for c in coeffs}), key

    @pytest.mark.parametrize("n", range(1, 13))
    def test_d0_part_of_power_is_maurer_cartan_element(self, n):
        # maurer_cartan_element(n) shares D^n's d^0 block, so this checks only
        # that the checking constructor rebuilds that block from the public
        # terms; test_matches_general_product, test_step_matches_general_product
        # and TestMaurerCartan::test_recursion_soundness check the recursion
        d0 = {t.mono: t.coeff for t in deformed_power(n).terms() if t.dpow == 0}
        assert ElementPoly(d0) == maurer_cartan_element(n)


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
        assert q_derivative(p + p) == direct + direct


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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_recursion_soundness(self, n):
        mc = maurer_cartan_element(n)
        assert maurer_cartan_element(n + 1) == q_derivative(mc) + multiply_by_a(mc)

    @pytest.mark.parametrize("first", [deformed_power, maurer_cartan_element], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_is_the_shared_d0_block_of_the_power(self, n, first):
        # M(n) = D^n applied to 1: the cached power's d^0 block, shared
        # uncopied, whichever of the two is asked for first
        deformed_power.cache_clear()
        maurer_cartan_element.cache_clear()
        first(n)
        assert maurer_cartan_element(n)._terms is deformed_power(n)._terms[0]

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
        single_letter = OperatorPoly(
            {(t.mono, t.dpow): t.coeff for t in deformed_power(n).terms() if len(t.mono) == 1}
        )
        assert deformed_power_first_order(n) == single_letter


class TestElementPoly:
    def test_reduce_mod_drops_vanishing_terms(self):
        p = element(((0,), QPoly((1, 1))), ((1,), ONE))
        reduced = p.reduce_mod(CycloModulus.of(2))
        assert reduced == element(((1,), ONE))


words = st.lists(st.integers(0, 3), max_size=4).map(lambda w: Comp(tuple(w)))
coeffs = st.lists(st.integers(-2, 2), max_size=3).map(lambda c: QPoly(tuple(c)))
element_dicts = st.dictionaries(words, coeffs, max_size=8)
operator_dicts = st.dictionaries(st.tuples(words, st.integers(0, 3)), coeffs, max_size=8)


def shuffled(data, terms):
    """``terms`` with its keys in an order drawn by Hypothesis."""
    order = data.draw(st.permutations(list(terms)))
    return {key: terms[key] for key in order}


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_curvature_routes_stored_in_canonical_order(self, n):
        assert_canonical(generic_expansion(n).as_operator())
        for c in [*generic_expansion(n).c.values(), *root_of_unity_expansion(n).c.values()]:
            assert_canonical(c)

    def test_sum_of_words_out_of_order(self):
        total = element(((1,), 1)) + element(((0,), 1))
        assert_canonical(total)
        assert [mono for mono, _ in total.items()] == [Comp((0,)), Comp((1,))]

    @settings(max_examples=60, deadline=None)
    @given(st.data(), element_dicts, element_dicts)
    def test_element_operations(self, data, left, right):
        a, b = ElementPoly(shuffled(data, left)), ElementPoly(shuffled(data, right))
        assert a._terms == {mono.entries: c for mono, c in left.items() if not c.is_zero()}
        modulus = CycloModulus.of(data.draw(st.integers(2, 6)))
        for made in (a, a + b, q_derivative(a), multiply_by_a(a), a.reduce_mod(modulus)):
            assert_canonical(made)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), operator_dicts, operator_dicts)
    def test_operator_operations(self, data, left, right):
        a, b = OperatorPoly(shuffled(data, left)), OperatorPoly(shuffled(data, right))
        blocks = {}
        for (mono, dpow), c in left.items():
            if not c.is_zero():
                blocks.setdefault(dpow, {})[mono.entries] = c
        assert a._terms == blocks
        for made in (a, a + b, a * b):
            assert_canonical(made)

    @settings(max_examples=20, deadline=None)
    @given(st.data(), st.integers(2, 6), st.sampled_from([generic_expansion, root_of_unity_expansion]))
    def test_from_json_dict(self, data, n, expand):
        expansion = expand(n)
        payload = expansion.to_json_dict()
        blocks = data.draw(st.permutations(payload["c"]))
        payload["c"] = [{"k": b["k"], "terms": data.draw(st.permutations(b["terms"]))} for b in blocks]
        read = CurvatureExpansion.from_json_dict(payload)
        for c in read.c.values():
            assert_canonical(c)
        assert_canonical(read.as_operator())
        assert read.to_json_dict() == expansion.to_json_dict()


def traced_peak_and_kept(read):
    """Bytes that ``read()`` allocates at its peak, and bytes its result keeps, under tracemalloc."""
    gc.collect()  # so no earlier garbage is freed inside the read and taken off what it keeps
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = read()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - start, kept - start


class TestReadAllocation:
    # a read of an n = 12 oracle builds one list of its terms and nothing transient
    @pytest.mark.parametrize("read", ["terms", "items"])
    def test_reading_allocates_nothing_transient(self, read):
        poly = deformed_power(12) if read == "terms" else maurer_cartan_element(12)
        peak, kept = traced_peak_and_kept(getattr(poly, read))
        assert kept > 0
        assert peak <= 1.05 * kept


class TestStorage:
    # the gathered sums keep words as entries tuples, in blocks by power of d;
    # Comps are made and taken only at the public edge
    @staticmethod
    def assert_entries(block):
        for word in block:
            assert type(word) is tuple and all(type(x) is int for x in word), word

    @pytest.mark.parametrize("n", range(1, 10))
    def test_gathered_sums_hold_entries_and_hand_out_comps(self, n):
        power, element, expansion = deformed_power(n), maurer_cartan_element(n), generic_expansion(n)
        for operator in (power, expansion.as_operator()):
            assert all(type(dpow) is int for dpow in operator._terms)
            for block in operator._terms.values():
                self.assert_entries(block)
            for term in operator.terms():
                mono = Comp(term.mono.entries)  # the checking constructor
                assert type(term.mono) is Comp and term.mono == mono and hash(term.mono) == hash(mono)
                assert term == Term(term.coeff, mono, term.dpow)
                assert operator.coefficient(mono, term.dpow) is term.coeff
        for sum_ in (element, *expansion.c.values()):
            self.assert_entries(sum_._terms)
            for word, coeff in sum_.items():
                mono = Comp(word.entries)
                assert type(word) is Comp and word == mono and hash(word) == hash(mono)
                assert sum_.coefficient(mono) is coeff


class TestOperandKinds:
    # a sum adds to and multiplies with only a sum of its own class, as it
    # equals only one, and reads a coefficient only at a Comp
    def test_operator_plus_element(self):
        with pytest.raises(TypeError):
            OperatorPoly.d() + element(((0,), 1))

    def test_element_plus_operator(self):
        with pytest.raises(TypeError):
            element(((0,), 1)) + OperatorPoly.d()

    def test_operator_never_equals_element(self):
        assert OperatorPoly() != ElementPoly()

    def test_operator_plus_int(self):
        with pytest.raises(TypeError):
            OperatorPoly.d() + 1

    def test_operator_times_int(self):
        with pytest.raises(TypeError):
            OperatorPoly.d() * 2

    def test_coefficient_of_a_bare_tuple(self):
        with pytest.raises(TypeError, match="must be a Comp, not tuple"):
            maurer_cartan_element(3).coefficient((0, 1))
        with pytest.raises(TypeError, match="must be a Comp, not tuple"):
            OperatorPoly.d().coefficient((), 1)
        assert maurer_cartan_element(3).coefficient(Comp((0, 1))) == QPoly((1, 1))
        assert OperatorPoly.d().coefficient(Comp(), 1) == ONE


class TestRendering:
    def test_operator_str(self):
        assert str(OperatorPoly()) == "0"
        assert str(deformed_power(2)) == "d^2 + (1+q)*a*d + d(a) + a^2"
        assert str(op(((0,), 0, q))) == "q*a"

    def test_element_latex(self):
        assert ElementPoly().latex() == "0"
        assert element(((0,), 1)).latex() == "a"
        assert element(((0,), QPoly((1, 1)))).latex() == "(1+q)a"
        assert element(((0,), -1)).latex() == "(-1)a"
        # summands in canonical word order: by length, then colex
        two = element(((0, 0), 1), ((2,), q2))
        assert two.latex() == "q^{2}d_M^{2}(a) + a^{2}"

    def test_element_latex_follows_the_text_rule(self):
        # the empty word shows its coefficient alone, unparenthesised
        p = element(((), QPoly((1, 1))), ((1,), -2))
        assert str(p) == "1+q + (-2)*d(a)"
        assert p.latex() == "1+q + (-2)d_M(a)"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: OperatorPoly.e(-1), ValueError, "derivative order must be nonnegative", id="e(-1)"),
        # unguarded, e(1.5) is d^1.5(a) and a True generator reads as e_1
        pytest.param(lambda: OperatorPoly.e(1.5), TypeError, "expected an int, got float 1.5", id="e(1.5)"),
        pytest.param(
            lambda: normal_order(["d", True]), TypeError, "expected an int, got bool True", id="normal_order(d, True)"
        ),
        pytest.param(
            lambda: OperatorPoly.d() ** -1, ValueError, "negative operator powers are not defined", id="d ** -1"
        ),
        pytest.param(
            lambda: deformed_power_first_order(0), ValueError, "n must be positive", id="deformed_power_first_order(0)"
        ),
        pytest.param(
            lambda: maurer_cartan_element(0), ValueError, "n must be positive", id="maurer_cartan_element(0)"
        ),
        # the public constructors check each word, power of d and coefficient; unguarded,
        # OperatorPoly printed a*d^-1 and a*d^1.5, and ElementPoly failed on a missing attribute
        pytest.param(
            lambda: OperatorPoly({(Comp((0,)), -1): ONE}), ValueError, "a power of d must be nonnegative",
            id="OperatorPoly(dpow=-1)",
        ),
        pytest.param(
            lambda: OperatorPoly({(Comp((0,)), 1.5): ONE}), TypeError, "a power of d must be an int, not float",
            id="OperatorPoly(dpow=1.5)",
        ),
        pytest.param(
            lambda: OperatorPoly({(Comp((0,)), True): ONE}), TypeError, "a power of d must be an int, not bool",
            id="OperatorPoly(dpow=True)",
        ),
        pytest.param(
            lambda: OperatorPoly({((0,), 1): ONE}), TypeError, "a word must be a Comp, not tuple",
            id="OperatorPoly(word=tuple)",
        ),
        pytest.param(
            lambda: OperatorPoly({(Comp((0,)), 1): 3}), TypeError, "a coefficient must be a QPoly, not int",
            id="OperatorPoly(coeff=int)",
        ),
        pytest.param(
            lambda: ElementPoly({(0, 1): ONE}), TypeError, "a word must be a Comp, not tuple",
            id="ElementPoly(word=tuple)",
        ),
        pytest.param(
            lambda: ElementPoly({Comp((0,)): 3}), TypeError, "a coefficient must be a QPoly, not int",
            id="ElementPoly(coeff=int)",
        ),
        pytest.param(
            lambda: OperatorPoly.d().coefficient(Comp(), True), TypeError, "a power of d must be an int, not bool",
            id="coefficient(dpow=True)",
        ),
    ],
)
def test_rejects_input_out_of_range(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
