"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcurvature.cli as cli
import qcurvature.curvature as curvature
from qcurvature.cli import run
from qcurvature.curvature import (
    CurvatureExpansion,
    expansion_terms,
    generic_expansion,
    path_expansion,
    resolve_default_rule,
    root_of_unity_expansion,
)
from qcurvature.cyclo import CycloModulus, q_number
from qcurvature.freealg import ElementPoly
from qcurvature.paths import WeightRule, forward_tables


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurvatureCommand:
    def test_root_text_output(self, capsys):
        code, out, err = invoke(
            capsys, "curvature", "--n", "3", "--mode", "root", "--format", "text"
        )
        assert code == 0
        assert out.splitlines() == [
            "c[2] = 0",
            "c[1] = 0",
            "c[0] = d^2(a) + d(a)*a + (1+q)*a*d(a) + a^3",
        ]
        assert "rule: prefix" in err

    def test_generic_text_output(self, capsys):
        code, out, _ = invoke(
            capsys, "curvature", "--n", "2", "--mode", "generic", "--format", "text"
        )
        assert code == 0
        assert out.splitlines() == [
            "c[2] = 1",
            "c[1] = (1+q)*a",
            "c[0] = d(a) + a^2",
        ]

    def test_latex_output(self, capsys):
        code, out, _ = invoke(
            capsys, "curvature", "--n", "3", "--mode", "root", "--format", "latex"
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            "c_{0} = d_M^{2}(a) + d_M(a)a + (1+q)ad_M(a) + a^{3}"
        )

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("mode", ["generic", "root"])
    def test_json_round_trip(self, capsys, n, mode):
        code, out, _ = invoke(
            capsys, "curvature", "--n", str(n), "--mode", mode, "--format", "json"
        )
        assert code == 0
        parsed = CurvatureExpansion.from_json_dict(json.loads(out))
        direct = (
            path_expansion(n, WeightRule.PREFIX)
            if mode == "generic"
            else root_of_unity_expansion(n, WeightRule.PREFIX)
        )
        assert parsed == direct

    @pytest.mark.parametrize("n", range(2, 6))
    def test_text_and_json_render_the_same_terms(self, capsys, n):
        _, text_out, _ = invoke(
            capsys, "curvature", "--n", str(n), "--mode", "generic", "--format", "text"
        )
        _, json_out, _ = invoke(
            capsys, "curvature", "--n", str(n), "--mode", "generic", "--format", "json"
        )
        data = json.loads(json_out)
        text_lines = {
            line.split(" = ")[0]: line.split(" = ")[1]
            for line in text_out.splitlines()
        }
        for entry in data["c"]:
            line = text_lines[f"c[{entry['k']}]"]
            assert len(line.split(" + ")) == len(entry["terms"])
        # json rebuilt through the expansion renders the same text
        rebuilt = CurvatureExpansion.from_json_dict(data)
        for k in rebuilt.powers():
            assert str(rebuilt.coefficient(k)) == text_lines[f"c[{k}]"]

    @pytest.mark.parametrize("rule", ["prefix", "literal"])
    @pytest.mark.parametrize("mode", ["generic", "root"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_json_bytes_are_the_expansion_json_dict(self, capsys, n, mode, rule):
        # the CLI lists each QPoly as it writes; to_json_dict lists them
        # itself: both must give the same bytes
        weight_rule = WeightRule(rule)
        expand = generic_expansion if mode == "generic" else root_of_unity_expansion
        expected = json.dumps(expand(n, weight_rule).to_json_dict(), indent=2, ensure_ascii=False)
        argv = ("curvature", "--n", str(n), "--mode", mode, "--format", "json", "--rule", rule)
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == expected + "\n"

    def test_byte_identical_repeated_runs(self, capsys):
        first = invoke(capsys, "curvature", "--n", "4", "--format", "json")
        second = invoke(capsys, "curvature", "--n", "4", "--format", "json")
        assert first == second

    def test_root_mode_needs_n_at_least_two(self, capsys):
        code, _, err = invoke(capsys, "curvature", "--n", "1", "--mode", "root")
        assert code == 2
        assert "error" in err


def path_model(n, mode, rule):
    """The path model's expansion, built here from the dynamic program's
    table n alone: c[k] gathers the words reached with k stays, each
    coefficient reduced mod Phi_n at the root, where d^n is gone; vanished
    coefficients are dropped."""
    by_power = {}
    for s, weight in forward_tables(n, rule)[n].items():
        by_power.setdefault(n - s.degree(), {})[s] = weight
    if mode == "root":
        reduce = CycloModulus.of(n).reduce
        by_power = {k: {s: reduce(w) for s, w in terms.items()}
                    for k, terms in by_power.items() if k < n}
    c = {k: ElementPoly(terms) for k, terms in by_power.items()}
    return CurvatureExpansion(n, mode, rule, {k: e for k, e in c.items() if not e.is_zero()})


class TestStreamedCurvature:
    """Every format reads one stream; each must equal the path model, built in the test.

    Under the arbitrated rule the production route and the path model are
    two routes whose equality ``verify`` proves; under any other rule the
    stream reads the path model's own stream, so the expected side is
    built from the dynamic program's last table, not from that stream.
    """

    @pytest.mark.parametrize("rule", ["default", "literal", "prefix"])
    @pytest.mark.parametrize("mode", ["generic", "root"])
    def test_stream_equals_path_model(self, capsys, mode, rule):
        weight_rule = resolve_default_rule() if rule == "default" else WeightRule(rule)
        for n in range(2, 13):
            expansion = path_model(n, mode, weight_rule)
            powers = range(n - 1 if mode == "root" else n, -1, -1)
            text = "".join(f"c[{k}] = {expansion.coefficient(k)}\n" for k in powers)
            latex = "".join(f"c_{{{k}}} = {expansion.coefficient(k).latex()}\n" for k in powers)
            for fmt in ("text", "latex", "json"):
                argv = ("curvature", "--n", str(n), "--mode", mode, "--format", fmt, "--rule", rule)
                code, out, _ = invoke(capsys, *argv)
                assert code == 0, (n, fmt)
                if fmt == "json":
                    assert CurvatureExpansion.from_json_dict(json.loads(out)) == expansion, n
                else:
                    assert out == (text if fmt == "text" else latex), (n, fmt)

    @pytest.mark.parametrize("mode", ["generic", "root"])
    def test_other_rule_keeps_no_step_table(self, mode):
        assert resolve_default_rule() is not WeightRule.LITERAL
        forward_tables.cache_clear()
        for _, terms in expansion_terms(9, mode, WeightRule.LITERAL):
            for _ in terms:
                pass
        assert forward_tables.cache_info().currsize == 0


class TestOtherCommands:
    def test_binom_root(self, capsys):
        code, out, _ = invoke(capsys, "binom", "--n", "4", "--k", "2", "--mode", "root")
        assert code == 0
        assert out.strip() == "0"

    def test_binom_generic(self, capsys):
        code, out, _ = invoke(
            capsys, "binom", "--n", "4", "--k", "2", "--mode", "generic"
        )
        assert code == 0
        assert out.strip() == "1 + q + 2*q^2 + q^3 + q^4"

    def test_cq_literal_enum(self, capsys):
        code, out, _ = invoke(
            capsys,
            "cq", "--s", "0,1", "--n", "3", "--rule", "literal", "--method", "enum",
        )
        assert code == 0
        assert out.strip() == "1 + q"

    def test_cq_empty_comp(self, capsys):
        code, out, _ = invoke(
            capsys, "cq", "--s", "", "--n", "4", "--rule", "prefix", "--mode", "generic"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_cq_json_payload(self, capsys):
        code, out, _ = invoke(
            capsys,
            "cq", "--s", "1,1", "--n", "4", "--rule", "prefix",
            "--mode", "generic", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "n": 4,
            "s": [1, 1],
            "rule": "prefix",
            "method": "dp",
            "mode": "generic",
            "value": [1, 1, 1],
        }

    def test_infinitesimal_text(self, capsys):
        code, out, _ = invoke(
            capsys, "infinitesimal", "--n", "3", "--mode", "generic"
        )
        assert code == 0
        assert out.splitlines() == [
            "m=0: 1 + q + q^2",
            "m=1: 1 + q + q^2",
            "m=2: 1",
        ]

    def test_infinitesimal_root_collapses(self, capsys):
        code, out, _ = invoke(capsys, "infinitesimal", "--n", "4", "--mode", "root")
        assert code == 0
        assert out.splitlines() == ["m=0: 0", "m=1: 0", "m=2: 0", "m=3: 1"]

    def test_verify_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--n", "3")
        assert code == 0
        assert "result: PASS" in out

    def test_verify_shallow_run_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--n", "2")
        assert code == 0
        assert "result: PASS" in out

    def test_verify_forced_literal_fails(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--n", "3", "--rule", "literal")
        assert code == 1
        assert "result: FAIL" in out

    def test_verify_json(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--n", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["selected_rule"] == "prefix"


class TestArgumentErrors:
    def test_missing_subcommand(self, capsys):
        assert invoke(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "binom", "--n", "4", "--k", "2", "--bogus")[0] == 2

    def test_cq_requires_s(self, capsys):
        assert invoke(capsys, "cq", "--n", "3")[0] == 2

    def test_binom_requires_k(self, capsys):
        assert invoke(capsys, "binom", "--n", "4")[0] == 2

    def test_curvature_rejects_k(self, capsys):
        assert invoke(capsys, "curvature", "--n", "3", "--k", "2")[0] == 2

    def test_curvature_rejects_s(self, capsys):
        assert invoke(capsys, "curvature", "--n", "3", "--s", "0,1")[0] == 2

    def test_malformed_comp(self, capsys):
        code, out, err = invoke(capsys, "cq", "--n", "3", "--s", "0,x")
        assert (code, out) == (2, "")
        assert "malformed composition '0,x'" in err

    def test_negative_comp_entry(self, capsys):
        for argv, message in (
            (["--s", "1,-1"], "nonnegative"),
            (["--s=-1,0"], "nonnegative"),
            # argparse reads a spaced value that starts with "-" and is not a
            # plain negative number as an option, so --s gets no argument
            (["--s", "-1,0"], "argument --s"),
        ):
            code, out, err = invoke(capsys, "cq", "--n", "3", *argv)
            assert (code, out) == (2, "")
            assert message in err

    def test_nonpositive_n(self, capsys):
        assert invoke(capsys, "curvature", "--n", "0")[0] == 2

    @pytest.mark.parametrize("command", ["curvature", "cq", "verify"])
    def test_non_integer_n(self, capsys, command):
        code, out, err = invoke(capsys, command, "--n", "abc")
        assert (code, out) == (2, "")
        assert "not an integer: 'abc'" in err

    def test_verify_rejects_mode(self, capsys):
        code, out, err = invoke(capsys, "verify", "--n", "3", "--mode", "root")
        assert (code, out) == (2, "")
        assert "usage:" in err

    def test_verify_rejects_latex(self, capsys):
        code, out, err = invoke(capsys, "verify", "--n", "3", "--format", "latex")
        assert (code, out) == (2, "")
        assert "usage:" in err

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("curvature", []),
            ("cq", ["--s", "0"]),
            ("binom", ["--k", "0"]),
        ],
    )
    def test_root_mode_n1_rejected_before_any_work(self, capsys, command, argv):
        # no rule arbitration, no path sum: the one error line and nothing else
        code, out, err = invoke(capsys, command, "--n", "1", *argv, "--mode", "root")
        assert (code, out) == (2, "")
        assert err == f"error: {command} --mode root needs --n >= 2\n"


class TestLargeBinomial:
    def test_binom_past_the_recursion_limit(self, capsys):
        # [n choose 2]_q = [n]_q [n-1]_q / [2]_q, the factorial quotient with
        # the common factor [n-2]_q! cancelled
        code, out, _ = invoke(capsys, "binom", "--n", "1500", "--k", "2", "--mode", "generic", "--format", "json")
        assert code == 0
        expected = (q_number(1500) * q_number(1499)).exact_div(q_number(2))
        assert json.loads(out)["value"] == list(expected.coeffs)
        # the default root mode: every middle binomial vanishes at the root
        assert invoke(capsys, "binom", "--n", "1500", "--k", "2")[:2] == (0, "0\n")


class TestInternalErrors:
    def test_unexpected_exception_exits_three_with_one_line(self, capsys, monkeypatch):
        def crash(n, k):
            raise RecursionError("maximum recursion depth exceeded\nwhile calling")

        monkeypatch.setattr(cli, "q_binomial", crash)
        code, out, err = invoke(capsys, "binom", "--n", "3000", "--k", "1500")
        assert code == 3
        assert out == ""
        assert err == "error: internal failure: RecursionError: maximum recursion depth exceeded while calling\n"

    def test_failed_arbitration_exits_three_but_verify_exits_one(self, capsys, monkeypatch):
        # exit code 1 is reserved for a failed verification: a curvature run
        # that cannot pick its rule is an internal failure
        def failing(n, rule, final):
            return curvature._row("oracle-equivalence", n, rule, {"n": n})

        monkeypatch.setattr(curvature, "_check_oracle_equivalence", failing)
        resolve_default_rule.cache_clear()
        try:
            code, out, err = invoke(capsys, "curvature", "--n", "3")
            assert (code, out) == (3, "")
            assert err == "error: internal failure: RuntimeError: rule arbitration did not single out one rule: []\n"
            assert invoke(capsys, "verify", "--n", "3")[0] == 1
        finally:
            resolve_default_rule.cache_clear()


# Imports the CLI and the package, then runs one CLI call in process; after
# each step it lists what was loaded of the modules that each CLI call would
# otherwise pay for before any work.
IMPORT_PROBE = """
import io, sys
loaded = lambda: sorted({"dataclasses", "typing", "inspect", "json"} & set(sys.modules))
import qcurvature.cli
import qcurvature
print(loaded())
sys.stdout = io.StringIO()
code = qcurvature.cli.run(["curvature", "--n", "6", "--mode", "root", "--format", "text"])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
assert code == 0 and out.startswith("c[5] = 0\\nc[4] = 0\\n"), (code, out)
print(loaded())
"""


class TestScriptedInvocations:
    """The exit-code contract exercised through real processes."""

    def test_cli_call_loads_no_dataclasses_typing_inspect_or_json(self):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", IMPORT_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n"

    @staticmethod
    def script(*argv):
        return subprocess.run(
            [sys.executable, "-m", "qcurvature", *argv],
            capture_output=True,
            text=True,
        )

    def test_success_exits_zero(self):
        proc = self.script("binom", "--n", "4", "--k", "2", "--mode", "root")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"

    def test_verification_failure_exits_one(self):
        proc = self.script("verify", "--n", "3", "--rule", "literal")
        assert proc.returncode == 1

    def test_closed_pipe_exits_141_quietly(self):
        # the reader takes 20 bytes of several megabytes and goes away
        with subprocess.Popen(
            [sys.executable, "-m", "qcurvature", "curvature", "--n", "14", "--mode", "generic"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.read(20) == b"c[14] = 1\nc[13] = (1"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
        assert err == "rule: prefix (oracle-arbitrated default)\n"

    def test_argument_error_exits_two(self):
        proc = self.script("cq", "--n", "3")
        assert proc.returncode == 2
        assert proc.stderr.strip() != ""


# Seeds 0 and 2 order the two members of ``WeightRule`` differently in a set
# (``test_the_seeds_order_a_set_of_rules_differently``), so output that
# follows the iteration order of str-hashed values differs between them.
HASH_SEEDS = ("0", "2")
SEEDED_INVOCATIONS = [
    ("curvature", "--n", "6", "--mode", "root", "--format", "text"),
    ("curvature", "--n", "5", "--mode", "generic", "--format", "json"),
    ("curvature", "--n", "6", "--mode", "root", "--rule", "literal"),
    ("verify", "--n", "5", "--format", "json"),
    ("cq", "--n", "5", "--s", "1,0,1", "--mode", "generic", "--format", "json"),
    ("binom", "--n", "6", "--k", "3", "--mode", "generic", "--format", "json"),
    ("infinitesimal", "--n", "5", "--format", "json"),
]


def seeded_run(seed: str, *argv: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python argv`` in a fresh process under ``PYTHONHASHSEED=seed``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestHashSeed:
    """Output is the same bytes under every hash seed."""

    def test_the_seeds_order_a_set_of_rules_differently(self):
        probe = "from qcurvature.paths import WeightRule; print([r.value for r in set(WeightRule)])"
        orders = {seeded_run(seed, "-c", probe) for seed in HASH_SEEDS}
        assert len(orders) == len(HASH_SEEDS)

    @pytest.mark.parametrize("argv", SEEDED_INVOCATIONS, ids=" ".join)
    def test_output_does_not_depend_on_the_hash_seed(self, argv):
        first, second = (seeded_run(seed, "-m", "qcurvature", *argv) for seed in HASH_SEEDS)
        assert first[0] == 0, first[2]
        assert first == second
