"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output) and asserts both exactness and its time budget.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

from qcurvature.curvature import (
    CurvatureExpansion,
    binomial_expansion,
    infinitesimal_coefficients,
    infinitesimal_from_operator,
    path_expansion,
    resolve_default_rule,
    root_of_unity_expansion,
    verify_suite,
)
from qcurvature.cyclo import (
    ONE,
    CycloModulus,
    QPoly,
    q_binomial,
    q_factorial,
    reduce,
)
from qcurvature.freealg import (
    ElementPoly,
    deformed_power,
    maurer_cartan_element,
)
from qcurvature.paths import (
    Comp,
    WeightRule,
    enumerate_vertices,
    path_sum_dp,
    path_sum_enum,
)
from qcurvature.cli import run


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(
        f"criterion {number:02d} ({description}): PASS"
        f" [{elapsed:.2f}s / budget {budget_seconds}s]"
    )
    assert elapsed < budget_seconds, f"criterion {number} exceeded its time budget"


def element(*terms):
    """Shorthand: terms are (entries, coeff-as-QPoly-or-int)."""
    return ElementPoly(
        {
            Comp(entries): coeff if isinstance(coeff, QPoly) else QPoly((coeff,))
            for entries, coeff in terms
        }
    )


def test_criterion_01_three_step_curvature():
    with criterion(1, "three-step curvature", 1.0):
        expansion = root_of_unity_expansion(3)
        assert expansion.coefficient(2).is_zero()
        assert expansion.coefficient(1).is_zero()
        expected_c0 = element(
            ((2,), 1), ((1, 0), 1), ((0, 1), QPoly((1, 1))), ((0, 0, 0), 1)
        )
        assert expansion.coefficient(0) == expected_c0
        # the cubic word is present with coefficient 1 ...
        assert expansion.coefficient(0).coefficient(Comp((0, 0, 0))) == ONE
        # ... and the discrepancy with the closed-form display is documented
        note = verify_suite(3).three_step_display
        assert note["missing_word"] == [0, 0, 0]
        assert note["computed_coeff"] == [1]
        assert note["note"]


def test_criterion_02_generic_oracle_equivalence():
    with criterion(2, "generic oracle equivalence n=2..6", 60.0):
        rule = resolve_default_rule()
        for n in range(2, 7):
            assert path_expansion(n, rule).as_operator() == deformed_power(n), n


def test_criterion_03_obstruction_at_roots_of_unity():
    with criterion(3, "obstruction collapse n=2..6", 60.0):
        for n in range(2, 7):
            expansion = root_of_unity_expansion(n)
            for k in range(1, n):
                assert expansion.coefficient(k).is_zero(), (n, k)
            expected = maurer_cartan_element(n).reduce_mod(CycloModulus.of(n))
            assert expansion.coefficient(0) == expected, n


def test_criterion_04_binomial_vanishing_and_exact_division():
    with criterion(4, "q-binomial vanishing n=2..12", 5.0):
        for n in range(2, 13):
            modulus = CycloModulus.of(n)
            for k in range(1, n):
                assert reduce(q_binomial(n, k), modulus).is_zero(), (n, k)
            for k in range(0, n + 1):
                quotient = q_factorial(n).exact_div(
                    q_factorial(n - k) * q_factorial(k)
                )
                assert q_binomial(n, k) == quotient, (n, k)


def test_criterion_05_power_formula():
    with criterion(5, "q-binomial power formula n=2..5", 30.0):
        for n in range(2, 6):
            assert binomial_expansion(n) == deformed_power(n), n


def test_criterion_06_infinitesimal_coefficients():
    with criterion(6, "infinitesimal coefficients n=2..8", 10.0):
        for n in range(2, 9):
            path_side = infinitesimal_coefficients(n)
            operator_side = infinitesimal_from_operator(n)
            assert path_side.coeffs == operator_side.coeffs, n
            for m in range(n):
                assert path_side.coeffs[m] == q_binomial(n, m + 1), (n, m)
            reduced = path_side.reduced(CycloModulus.of(n))
            for m in range(n - 1):
                assert reduced.coeffs[m].is_zero(), (n, m)
            assert reduced.coeffs[n - 1] == ONE, n


def test_criterion_07_dp_matches_enumeration():
    with criterion(7, "dp vs enumeration n=2..5", 30.0):
        for n in range(2, 6):
            for rule in WeightRule:
                for s in enumerate_vertices(n):
                    assert path_sum_dp(s, n, rule) == path_sum_enum(s, n, rule), (
                        n,
                        rule,
                        s,
                    )


def test_criterion_08_weight_rule_arbitration():
    with criterion(8, "weight-rule arbitration", 60.0):
        report = verify_suite(6)
        assert report.arbitration["passing"] == "prefix"
        assert report.arbitration["failing"] == "literal"
        ce = report.arbitration["counterexample"]
        assert ce is not None
        assert set(ce) == {"n", "s", "dpow", "path_value", "oracle_value"}
        assert ce["path_value"] != ce["oracle_value"]
        # the shipped default is the passing rule
        assert resolve_default_rule().value == report.arbitration["passing"]
        # and exactly one rule passes: the loser has a recorded failure
        literal_checks = [
            c for c in report.checks
            if c.check == "oracle-equivalence" and c.rule == "literal"
        ]
        prefix_checks = [
            c for c in report.checks
            if c.check == "oracle-equivalence" and c.rule == "prefix"
        ]
        assert any(c.status == "fail" for c in literal_checks)
        assert all(c.status == "pass" for c in prefix_checks)


def test_criterion_09_four_step_reference_listing():
    with criterion(9, "four-step reference listing report", 10.0):
        report = verify_suite(4)
        mismatches = {m.s: m for m in report.four_step_mismatches}
        # the oracle determines a non-empty list for this reference listing
        assert set(mismatches) == {(1,), (0, 0), (0, 1), (1, 1)}
        oracle = deformed_power(4)
        for s, m in mismatches.items():
            assert m.stated, s
            assert m.computed, s
            comp = Comp(s)
            k = 4 - comp.total() - len(comp)
            assert QPoly(m.computed) == oracle.coefficient(comp, k)
            assert QPoly(m.stated) != QPoly(m.computed)


def test_criterion_10_cli_contract(capsys):
    with criterion(10, "CLI round-trip, determinism, exit codes", 5.0):
        # json round-trip identity for n <= 5
        for n in range(2, 6):
            for mode in ("generic", "root"):
                assert run(["curvature", "--n", str(n), "--mode", mode, "--format", "json"]) == 0
                out = capsys.readouterr().out
                parsed = CurvatureExpansion.from_json_dict(json.loads(out))
                direct = (
                    path_expansion(n) if mode == "generic" else root_of_unity_expansion(n)
                )
                assert parsed == direct, (n, mode)
        # byte-identical repeated runs
        assert run(["curvature", "--n", "4", "--format", "json"]) == 0
        first = capsys.readouterr()
        assert run(["curvature", "--n", "4", "--format", "json"]) == 0
        second = capsys.readouterr()
        assert (first.out, first.err) == (second.out, second.err)
        # exit-code contract, exercised by three scripted invocations
        script = lambda *argv: subprocess.run(
            [sys.executable, "-m", "qcurvature", *argv], capture_output=True
        ).returncode
        assert script("binom", "--n", "4", "--k", "2", "--mode", "root") == 0
        assert script("verify", "--n", "3", "--rule", "literal") == 1
        assert script("cq", "--n", "3") == 2
