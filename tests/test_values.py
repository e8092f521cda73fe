"""Value semantics shared by the package's immutable value types.

Equality is field by field and exact by class, equal values hash equally
(a value holding a dict is unhashable), fields cannot be reassigned or
deleted, constructors take their fields positionally or by keyword, and
``repr`` shows the fields (``QPoly``, ``Comp`` and the two sums render
themselves).
"""

import copy
import pickle

import pytest

from qcurvature.curvature import (
    CheckResult,
    CompositionSumComparison,
    CurvatureExpansion,
    InfinitesimalCoefficients,
    ListingMismatch,
    VerifyReport,
)
from qcurvature.cyclo import ONE, ZERO, CycloModulus, QPoly
from qcurvature.freealg import ElementPoly, OperatorPoly, Term
from qcurvature.paths import LATEX, TEXT, Comp, Edge, WeightRule

PREFIX = WeightRule.PREFIX

# name: (build, a second value of the class, its repr for build(), hashable?, a field)
VALUES = {
    "QPoly": (lambda: QPoly((1, 2)), QPoly((1, 3)), "QPoly('1 + 2*q')", True, "coeffs"),
    "CycloModulus": (
        lambda: CycloModulus(3), CycloModulus(4),
        "CycloModulus(n=3, phi=QPoly('1 + q + q^2'))", True, "phi",
    ),
    "Comp": (lambda: Comp((0, 1)), Comp((1, 0)), "Comp((0, 1))", True, "entries"),
    "Edge": (
        lambda: Edge(Comp(()), Comp((0,)), ONE, "prepend"),
        Edge(Comp((0,)), Comp((1,)), ONE, "increment", 1),
        "Edge(source=Comp(()), target=Comp((0,)), weight=QPoly('1'), kind='prepend', index=None)",
        True, "index",
    ),
    "Term": (
        lambda: Term(ONE, Comp((1,)), 2), Term(ONE, Comp((1,)), 3),
        "Term(coeff=QPoly('1'), mono=Comp((1,)), dpow=2)", True, "dpow",
    ),
    "OperatorPoly": (
        lambda: OperatorPoly({(Comp((1,)), 2): ONE}), OperatorPoly({(Comp((1,)), 1): ONE}),
        "OperatorPoly('d(a)*d^2')", False, "_terms",
    ),
    "ElementPoly": (
        lambda: ElementPoly({Comp((1,)): ONE}), ElementPoly({Comp((0,)): ONE}),
        "ElementPoly('d(a)')", False, "_terms",
    ),
    "CurvatureExpansion": (
        lambda: CurvatureExpansion(2, "root", PREFIX, {0: ElementPoly({Comp((1,)): ONE})}),
        CurvatureExpansion(2, "root", PREFIX, {}),
        "CurvatureExpansion(n=2, mode='root', rule=%r, c={0: ElementPoly('d(a)')})" % PREFIX,
        False, "c",
    ),
    "InfinitesimalCoefficients": (
        lambda: InfinitesimalCoefficients(2, (ONE, ZERO)), InfinitesimalCoefficients(2, (ONE,)),
        "InfinitesimalCoefficients(n=2, coeffs=(QPoly('1'), QPoly('0')))", True, "coeffs",
    ),
    "CompositionSumComparison": (
        lambda: CompositionSumComparison(2, "stay", (ONE,), (ONE,), (True,)),
        CompositionSumComparison(2, "block", (ONE,), (ONE,), (True,)),
        "CompositionSumComparison(n=2, convention='stay', values=(QPoly('1'),), "
        "reference=(QPoly('1'),), matches=(True,))",
        True, "matches",
    ),
    "CheckResult": (
        lambda: CheckResult("dp-vs-enum", 2, "pass"), CheckResult("dp-vs-enum", 3, "pass"),
        "CheckResult(check='dp-vs-enum', n=2, status='pass', rule=None, counterexample=None)",
        True, "counterexample",
    ),
    "ListingMismatch": (
        lambda: ListingMismatch((0,), (1,), (1, 1)), ListingMismatch((0,), (1,), (1,)),
        "ListingMismatch(s=(0,), stated=(1,), computed=(1, 1))", True, "computed",
    ),
    "VerifyReport": (
        lambda: VerifyReport(2, "default", "prefix", (), {"passing": "prefix"}, (), {}, True),
        VerifyReport(2, "default", "prefix", (), {}, (), {}, False),
        "VerifyReport(n_max=2, requested_rule='default', selected_rule='prefix', checks=(), "
        "arbitration={'passing': 'prefix'}, four_step_mismatches=(), three_step_display={}, "
        "passed=True)",
        False, "arbitration",
    ),
}

names = pytest.mark.parametrize("name", sorted(VALUES))


class _Lookalike:
    """A foreign class that claims equality with everything."""

    def __eq__(self, other):
        return True

    __hash__ = object.__hash__


@names
def test_equality_is_by_field_and_exact_by_class(name):
    build, other, _, _, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    # a foreign class decides for itself: no value type answers for it
    assert a == _Lookalike() and _Lookalike() == a


def test_no_value_equals_its_bare_fields():
    assert QPoly((1,)) != (1,)
    assert QPoly((1,)) != 1 and QPoly(()) != 0
    assert Comp((0, 1)) != (0, 1)
    assert CheckResult("x", 2, "pass") != ("x", 2, "pass", None, None)


@names
def test_equal_values_hash_equally(name):
    build, _, _, hashable, _ = VALUES[name]
    if hashable:
        assert hash(build()) == hash(build())
        assert len({build(), build()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(build())


def test_hash_fails_exactly_where_a_field_is_a_dict():
    hash(CheckResult("x", 2, "fail", "prefix", None))
    with pytest.raises(TypeError):
        hash(CheckResult("x", 2, "fail", "prefix", {"n": 2}))


@names
def test_fields_cannot_be_reassigned_or_deleted(name):
    build, _, _, _, field = VALUES[name]
    value = build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert getattr(value, field) is before


@names
def test_repr_shows_the_fields(name):
    build, _, shown, _, _ = VALUES[name]
    assert repr(build()) == shown


@names
def test_copies_and_pickles_are_equal_values(name):
    value = VALUES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


# name: (a trusted constructor, which skips the checks, and the checking
# constructor that builds the same value)
TRUSTED = {
    "Comp._trusted": (lambda: Comp._trusted((2, 0, 1)), lambda: Comp((2, 0, 1))),
    "QPoly._trusted": (lambda: QPoly._trusted((1, 0, 3)), lambda: QPoly((1, 0, 3))),
    "OperatorPoly._trusted": (
        lambda: OperatorPoly._trusted({2: {(1,): ONE}, 0: {(0, 0): QPoly((0, 1))}}),
        lambda: OperatorPoly({(Comp((0, 0)), 0): QPoly((0, 1)), (Comp((1,)), 2): ONE}),
    ),
    "ElementPoly._trusted": (
        lambda: ElementPoly._trusted({(1,): ONE, (0, 0): QPoly((0, 1))}),
        lambda: ElementPoly({Comp((0, 0)): QPoly((0, 1)), Comp((1,)): ONE}),
    ),
}


@pytest.mark.parametrize("name", sorted(TRUSTED))
def test_trusted_constructors_make_the_checked_value(name):
    # they set each slot through its descriptor, past __setattr__, and must
    # still make a value that is equal, hashes and shows the same, stays
    # immutable and survives copy and pickle
    trusted, checked = TRUSTED[name]
    value, expected = trusted(), checked()
    hashable = VALUES[type(expected).__name__][3]
    twins = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    for made in (value, *twins):
        assert type(made) is type(expected) and made == expected
        assert repr(made) == repr(expected)
        if hashable:
            assert hash(made) == hash(expected)
        else:
            with pytest.raises(TypeError):
                hash(made)
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.unknown_field = 1


@pytest.mark.parametrize("style", [TEXT, LATEX], ids=["TEXT", "LATEX"])
def test_word_styles_refuse_assignment(style):
    # the module-wide styles render every word and coefficient: none can be changed in place
    before = (style.run, style.sep, style.coeff)
    for field in ("run", "sep", "coeff", "unknown_field"):
        with pytest.raises(AttributeError):
            setattr(style, field, "+")
    for field in ("run", "sep", "coeff"):
        with pytest.raises(AttributeError):
            delattr(style, field)
    assert (style.run, style.sep, style.coeff) == before
    assert (Comp((0, 1)).text(), Comp((0, 1)).latex()) == ("a*d(a)", "ad_M(a)")
    assert (TEXT.coeff(QPoly((1, 0, 2))), LATEX.coeff(QPoly((1, 0, 2)))) == ("1+2*q^2", "1+2q^{2}")


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert CheckResult(check="x", n=2, status="pass", rule=None, counterexample=None) == (
            CheckResult("x", 2, "pass")
        )
        result = CheckResult("x", 2, "fail", counterexample={"n": 2})
        assert (result.rule, result.counterexample) == (None, {"n": 2})
        edge = Edge(source=Comp(()), target=Comp(()), weight=ONE, kind="stay", index=None)
        assert edge == Edge(Comp(()), Comp(()), ONE, "stay")
        assert Edge(Comp((0,)), Comp((1,)), ONE, "increment", index=1).index == 1
        assert Term(coeff=ONE, mono=Comp(()), dpow=0) == Term(ONE, Comp(()), 0)
        assert QPoly() == QPoly(coeffs=()) == ZERO
        assert Comp() == Comp(entries=()) == Comp(())
        assert InfinitesimalCoefficients(n=2, coeffs=()) == InfinitesimalCoefficients(2, ())
        assert ListingMismatch(s=(), stated=(), computed=()) == ListingMismatch((), (), ())
        expansion = CurvatureExpansion(n=2, mode="root", rule=PREFIX, c={})
        assert expansion == CurvatureExpansion(2, "root", PREFIX, {})
        comparison = CompositionSumComparison(
            n=2, convention="stay", values=(), reference=(), matches=()
        )
        assert comparison == CompositionSumComparison(2, "stay", (), (), ())
        report = VerifyReport(
            n_max=2, requested_rule="default", selected_rule="prefix", checks=(),
            arbitration={}, four_step_mismatches=(), three_step_display={}, passed=True,
        )
        assert report == VerifyReport(2, "default", "prefix", (), {}, (), {}, True)

    def test_wrong_arguments_are_refused(self):
        with pytest.raises(TypeError):
            CheckResult("x", 2)
        with pytest.raises(TypeError):
            Edge(Comp(()), Comp(()), ONE, "stay", 1, 2)
        with pytest.raises(TypeError):
            Term(ONE, Comp(()), dpow=0, power=1)

    def test_cyclo_modulus_derives_phi_and_needs_n_two(self):
        modulus = CycloModulus(n=6)
        assert modulus.phi == QPoly((1, -1, 1))
        with pytest.raises(TypeError):
            CycloModulus(6, QPoly((1,)))
        for n in (1, 0, -3):
            with pytest.raises(ValueError):
                CycloModulus(n)

    def test_qpoly_is_normalised(self):
        assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert QPoly((0, 0)) == ZERO and hash(QPoly((0, 0))) == hash(ZERO)
        assert type(QPoly([3]).coeffs) is tuple
        for bad in ((1.0,), (True,), ("1",)):
            with pytest.raises(TypeError):
                QPoly(bad)

    def test_comp_is_validated(self):
        assert Comp([2, 0]).entries == (2, 0)
        assert type(Comp([2]).entries) is tuple
        with pytest.raises(ValueError):
            Comp((0, -1))
        for bad in ((1.5,), (False,)):
            with pytest.raises(TypeError):
                Comp(bad)
