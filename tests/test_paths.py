"""Tests for composition vectors, the step digraph, and weighted path sums."""

import pytest
from hypothesis import given, strategies as st

from qcurvature.cyclo import ONE, ZERO, QPoly
from qcurvature.paths import (
    EMPTY,
    Comp,
    WeightRule,
    enumerate_vertices,
    forward_tables,
    path_sum_dp,
    path_sum_enum,
    stay_count,
    successors,
)

comps = st.lists(st.integers(0, 4), max_size=4).map(tuple).map(Comp)


class TestComp:
    def test_basics(self):
        s = Comp((0, 1, 2))
        assert len(s) == 3
        assert s.total() == 3
        assert s.prefix(1) == EMPTY
        assert s.prefix(3) == Comp((0, 1))
        assert s.prefix(4) == s
        assert s.incremented(2) == Comp((0, 2, 2))
        assert s.prepended() == Comp((0, 0, 1, 2))

    def test_prefix_of_empty_is_empty(self):
        assert EMPTY.prefix(1) == EMPTY

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Comp((1, -1))

    @pytest.mark.parametrize("bad", [1.9, True, "1"])
    def test_rejects_non_int_entries(self, bad):
        with pytest.raises(TypeError):
            Comp((0, bad))

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            Comp((1,)).prefix(3)
        with pytest.raises(IndexError):
            Comp((1,)).incremented(2)

    def test_parse_and_str_roundtrip(self):
        assert Comp.parse("") == EMPTY
        assert Comp.parse("∅") == EMPTY
        assert Comp.parse("0,1") == Comp((0, 1))
        assert str(Comp((0, 1))) == "0,1"
        assert str(EMPTY) == "∅"
        with pytest.raises(ValueError):
            Comp.parse("0,x")

    def test_ordering_is_length_then_reversed_entries(self):
        # the order in which expansions are conventionally listed
        expect = [(), (0,), (1,), (2,), (0, 0), (1, 0), (0, 1), (0, 0, 0)]
        got = sorted([Comp(e) for e in expect[::-1]], key=Comp.sort_key)
        assert [c.entries for c in got] == expect

    @given(comps, comps)
    def test_order_is_total(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    def test_concatenation(self):
        left = Comp((1, 0))
        right = Comp((2,))
        assert left * right == Comp((1, 0, 2))

    def test_degree_counts_each_factor_plus_order(self):
        assert Comp(()).degree() == 0
        assert Comp((0,)).degree() == 1
        assert Comp((2, 0, 1)).degree() == 6

    def test_text(self):
        assert Comp(()).text() == "1"
        assert Comp((0, 0, 0)).text() == "a^3"
        assert Comp((1, 1)).text() == "d(a)^2"
        assert Comp((2, 0)).text() == "d^2(a)*a"

    def test_latex(self):
        assert Comp((0, 0, 0)).latex() == "a^{3}"
        assert Comp((1, 1)).latex() == "(d_M(a))^{2}"
        assert Comp((2,)).latex() == "d_M^{2}(a)"


class TestSuccessors:
    def test_empty_vertex(self):
        edges = successors(EMPTY, WeightRule.LITERAL)
        assert [(e.kind, e.target.entries, e.weight) for e in edges] == [
            ("prepend", (0,), ONE),
            ("stay", (), ONE),
        ]

    def test_literal_weights(self):
        s = Comp((0, 1))
        edges = successors(s, WeightRule.LITERAL)
        assert [e.kind for e in edges] == ["prepend", "stay", "increment", "increment"]
        weights = {(e.kind, e.index): e.weight for e in edges}
        assert weights[("prepend", None)] == ONE
        assert weights[("stay", None)] == QPoly.monomial(3)
        assert weights[("increment", 1)] == QPoly.monomial(1)
        assert weights[("increment", 2)] == QPoly.monomial(2)

    def test_prefix_weights(self):
        s = Comp((0, 1))
        weights = {
            (e.kind, e.index): e.weight for e in successors(s, WeightRule.PREFIX)
        }
        assert weights[("increment", 1)] == ONE
        assert weights[("increment", 2)] == QPoly.monomial(1)
        assert weights[("stay", None)] == QPoly.monomial(3)

    @given(comps)
    def test_edge_count_and_targets(self, s):
        for rule in WeightRule:
            edges = successors(s, rule)
            assert len(edges) == 2 + len(s)
            assert edges[0].target == s.prepended()
            assert edges[1].target == s
            for i, e in enumerate(edges[2:], start=1):
                assert e.target == s.incremented(i)
            for e in edges:
                # every weight is a single power of q
                assert e.weight.coeffs[-1] == 1
                assert all(c == 0 for c in e.weight.coeffs[:-1])


class TestEnumerateVertices:
    def test_n1(self):
        assert [c.entries for c in enumerate_vertices(1)] == [(), (0,)]

    def test_n3_matches_reference_set(self):
        expect = {(), (0,), (1,), (2,), (0, 0), (1, 0), (0, 1), (0, 0, 0)}
        assert {c.entries for c in enumerate_vertices(3)} == expect

    def test_n4_matches_reference_set(self):
        expect = {
            (), (0,), (1,), (2,), (3,),
            (0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1),
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (0, 0, 0, 0),
        }
        assert {c.entries for c in enumerate_vertices(4)} == expect

    @pytest.mark.parametrize("n", range(1, 7))
    def test_membership_and_order(self, n):
        vertices = enumerate_vertices(n)
        assert all(c.total() + len(c) <= n for c in vertices)
        assert list(vertices) == sorted(vertices, key=Comp.sort_key)
        assert len(set(vertices)) == len(vertices)
        # 2^(m-1) vertices with entry sum + length == m, plus the empty one
        assert len(vertices) == 2**n


class TestStayCount:
    def test_examples(self):
        assert stay_count(Comp((0, 1)), 3) == 0
        assert stay_count(EMPTY, 5) == 5
        assert stay_count(Comp((2,)), 3) == 0
        assert stay_count(Comp((1, 1, 1)), 3) == -3  # unreachable


class TestPathSums:
    def test_enum_examples(self):
        assert path_sum_enum(Comp((0, 1)), 3, WeightRule.LITERAL) == QPoly((1, 1))
        assert path_sum_enum(Comp((0,)), 3, WeightRule.LITERAL) == QPoly((1, 1, 1))
        assert path_sum_enum(EMPTY, 4, WeightRule.LITERAL) == ONE
        # the two conventions split on this vertex
        assert path_sum_enum(Comp((2,)), 3, WeightRule.PREFIX) == ONE
        assert path_sum_enum(Comp((2,)), 3, WeightRule.LITERAL) == QPoly((0, 1))

    def test_dp_examples(self):
        assert path_sum_dp(Comp((0, 1)), 3, WeightRule.LITERAL) == QPoly((1, 1))
        assert path_sum_dp(Comp((1, 1)), 4, WeightRule.PREFIX) == QPoly((1, 1, 1))
        assert path_sum_dp(Comp((0, 0, 0)), 3, WeightRule.LITERAL) == ONE

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dp_equals_enum_everywhere(self, n):
        for rule in WeightRule:
            for s in enumerate_vertices(n):
                assert path_sum_dp(s, n, rule) == path_sum_enum(s, n, rule), (n, s, rule)

    def test_unreachable_vertices_give_zero(self):
        for rule in WeightRule:
            assert path_sum_dp(Comp((3, 3)), 4, rule) == ZERO
            assert path_sum_enum(Comp((3, 3)), 4, rule) == ZERO

    @pytest.mark.parametrize("n", range(1, 12))
    def test_vertices_stay_within_their_step(self, n):
        # each edge raises entry sum + length by at most one, so step t holds
        # only vertices with entry sum + length <= t: the DP needs no bound
        # on its vertices, and no word of a coefficient below d^n has an
        # entry >= n, so dropping such words at a root would drop nothing
        for rule in WeightRule:
            tables = forward_tables(n, rule)
            for t, step in enumerate(tables):
                assert all(s.total() + len(s) <= t for s in step), (n, rule, t)
            assert all(x < n for s in tables[n] for x in s.entries), (n, rule)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dp_step_identity(self, n):
        # step t+1 at v must equal the gathered sum over incoming edges
        for rule in WeightRule:
            tables = forward_tables(n, rule)
            for t in range(n):
                gathered: dict = {}
                for u, value in tables[t].items():
                    for e in successors(u, rule):
                        if e.target.total() + len(e.target) > n:
                            continue
                        acc = gathered.get(e.target, ZERO) + value * e.weight
                        gathered[e.target] = acc
                gathered = {v: w for v, w in gathered.items() if not w.is_zero()}
                assert gathered == dict(tables[t + 1])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_path_counts_at_q_one(self, n):
        # weight-free counter: breadth-first tally of length-n walks
        def count_paths(target: Comp) -> int:
            counts = {EMPTY: 1}
            for _ in range(n):
                nxt: dict = {}
                for v, c in counts.items():
                    for e in successors(v, WeightRule.PREFIX):
                        nxt[e.target] = nxt.get(e.target, 0) + c
                counts = nxt
            return counts.get(target, 0)

        for rule in WeightRule:
            for s in enumerate_vertices(n):
                assert path_sum_enum(s, n, rule).evaluate(1) == count_paths(s)
