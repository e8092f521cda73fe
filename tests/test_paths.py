"""Tests for composition vectors, the step digraph, and weighted path sums."""

import pytest
from hypothesis import given, strategies as st

from qcurvature import curvature, paths
from qcurvature.cyclo import ONE, ZERO, QPoly
from qcurvature.paths import (
    EMPTY,
    Comp,
    WeightRule,
    enumerate_vertices,
    forward_tables,
    path_sum_dp,
    path_sum_enum,
    successors,
)

comps = st.lists(st.integers(0, 4), max_size=4).map(tuple).map(Comp)


class TestComp:
    def test_basics(self):
        s = Comp((0, 1, 2))
        assert len(s) == 3
        assert Comp((0,) + s.entries) == Comp((0, 0, 1, 2))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Comp((1, -1))

    @pytest.mark.parametrize("bad", [1.9, True, "1"])
    def test_rejects_non_int_entries(self, bad):
        with pytest.raises(TypeError):
            Comp((0, bad))

    def test_parse_and_str_roundtrip(self):
        assert Comp.parse("") == EMPTY
        assert Comp.parse("∅") == EMPTY
        assert Comp.parse("0,1") == Comp((0, 1))
        assert str(Comp((0, 1))) == "0,1"
        assert str(EMPTY) == "∅"
        with pytest.raises(ValueError, match="malformed composition"):
            Comp.parse("0,x")

    def test_parse_names_a_negative_entry(self):
        # only int() parsing is "malformed"; the constructor's own message stands
        with pytest.raises(ValueError, match="nonnegative"):
            Comp.parse("1,-1")

    def test_ordering_is_length_then_reversed_entries(self):
        # the order in which expansions are conventionally listed
        expect = [(), (0,), (1,), (2,), (0, 0), (1, 0), (0, 1), (0, 0, 0)]
        got = sorted([Comp(e) for e in expect[::-1]], key=Comp.sort_key)
        assert [c.entries for c in got] == expect

    @given(comps, comps)
    def test_order_is_total(self, a, b):
        assert (a < b) or (b < a) or (a == b)

    @pytest.mark.parametrize("other", [(0,), [0], 0, None], ids=["tuple", "list", "int", "None"])
    def test_orders_only_against_a_comp(self, other):
        # as with ==, a word is ordered only against a word, and Python refuses the rest
        assert Comp((1,)).__lt__(other) is NotImplemented
        with pytest.raises(TypeError, match="'<' not supported"):
            Comp((1,)) < other

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
            assert edges[0].target == Comp((0,) + s.entries)
            assert edges[1].target == s
            x = s.entries
            for i, e in enumerate(edges[2:], start=1):
                assert e.target == Comp(x[: i - 1] + (x[i - 1] + 1,) + x[i:])
            for e in edges:
                # every weight is a single power of q
                assert e.weight.coeffs[-1] == 1
                assert all(c == 0 for c in e.weight.coeffs[:-1])

    @given(comps)
    def test_increment_exponents_follow_the_rule_definitions(self, s):
        # LITERAL charges |s| + i - 1 for raising entry i, PREFIX |s_<i| + i - 1
        n = len(s) + 1
        literal = [sum(s.entries) + i - 1 for i in range(1, n)]
        prefix = [sum(s.entries[: i - 1]) + i - 1 for i in range(1, n)]
        assert list(WeightRule.LITERAL.increment_exponents(s.entries)) == literal
        assert list(WeightRule.PREFIX.increment_exponents(s.entries)) == prefix


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
        assert all(sum(c.entries) + len(c) <= n for c in vertices)
        assert list(vertices) == sorted(vertices, key=Comp.sort_key)
        assert len(set(vertices)) == len(vertices)
        # 2^(m-1) vertices with entry sum + length == m, plus the empty one
        assert len(vertices) == 2**n


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
                assert all(sum(s.entries) + len(s) <= t for s in step), (n, rule, t)
            assert all(x < n for s in tables[n] for x in s.entries), (n, rule)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dp_step_identity(self, n):
        # the tables equal a replay from the empty vertex through successors'
        # Edge objects, multiplying by each weight, so the two cannot drift
        for rule in WeightRule:
            replay = [{EMPTY: ONE}]
            for _ in range(n):
                gathered: dict = {}
                for u, value in replay[-1].items():
                    for e in successors(u, rule):
                        gathered[e.target] = gathered.get(e.target, ZERO) + value * e.weight
                replay.append(gathered)
            assert [dict(step) for step in forward_tables(n, rule)] == replay

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

    @pytest.mark.parametrize("path_sum", [path_sum_dp, path_sum_enum])
    @pytest.mark.parametrize("vertex", [(0, 1), [0, 1]])
    def test_rejects_a_vertex_that_is_not_a_comp(self, path_sum, vertex):
        # the tables are keyed by entries: a bare sequence must not read as unreachable
        with pytest.raises(TypeError, match="must be a Comp, not " + type(vertex).__name__):
            path_sum(vertex, 3, WeightRule.LITERAL)

    def test_private_routes_build_no_comp(self, monkeypatch):
        # the step tables, the enumeration and the path model's stream carry
        # each vertex as its entries; a Comp is built only at the public edge
        built = []
        real_init, real_trusted = Comp.__init__, Comp._trusted

        def init(self, *args):
            built.append(args)
            real_init(self, *args)

        def trusted(entries):
            built.append(entries)
            return real_trusted(entries)

        monkeypatch.setattr(Comp, "__init__", init)
        monkeypatch.setattr(Comp, "_trusted", staticmethod(trusted))
        for rule in WeightRule:
            assert len(list(paths._steps(8, rule))) == 9
            assert paths._path_sums_enum(6, rule)
            for _, terms in curvature._path_terms(8, "generic", paths._last_table(8, rule)):
                list(terms)
        assert built == []
        # the public views still hand out Comps
        assert all(type(e.target) is Comp for e in successors(EMPTY, WeightRule.PREFIX))
        assert built


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: enumerate_vertices(0), id="enumerate_vertices(0)"),
        pytest.param(lambda: path_sum_enum(Comp(()), 0, WeightRule.PREFIX), id="path_sum_enum(n=0)"),
        pytest.param(lambda: path_sum_dp(Comp(()), 0, WeightRule.PREFIX), id="path_sum_dp(n=0)"),
    ],
)
def test_rejects_n_below_one(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "n must be positive"
