"""Self-test of the benchmark harness: python -m pytest perfbench

Runs every workload and the traced run at n = 5, checks the emitted JSON
against BENCHMARK.json, and proves that wrong output is counted as failed.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qcurvature  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from child import run_cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(bounds) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "fail_ratio"}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("n", range(2, 8))
def test_reference_route_agrees_with_the_package(n):
    element = qcurvature.maurer_cartan_element(n)
    words = {mono.comp.entries: coeff.coeffs for mono, coeff in element.items()}
    assert reference.maurer_cartan(n)[n] == words
    for k in range(n + 1):
        assert reference.gaussian_binomials(n)[k] == qcurvature.q_binomial(n, k).coeffs
    assert reference.cyclotomic(n) == qcurvature.cyclotomic(n).coeffs


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("workload", ["root_expand", "generic_json"])
def test_reference_output_is_the_cli_output(workload, n):
    code, out = run_cli(qcurvature.cli.main, WORKLOADS[workload].cli_args(n))
    assert reference.expected(workload, n).problem(code, out) is None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["fail_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    missing = [k for k, v in result["metrics"].items() if v["value"] is None]
    assert missing == []
    spans = (BENCH / "out" / f"spans-{workload}-op.jsonl").read_text().splitlines()
    assert {"name", "layer", "start", "end", "parent", "workload"} <= set(json.loads(spans[0]))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrong_reference_counts_as_failed(workload):
    run.OUT.mkdir(exist_ok=True)
    wrong = (reference.Expected(last_line="result: FAIL") if workload == "verify"
             else reference.Expected(sha256="0" * 64))
    measured = run.end_to_end(workload, 3, 0, random.Random(0), wrong)
    ops = len(measured.samples["op.wall_s"])
    assert measured.failed == ops >= 1
    assert measured.metrics["fail_ratio"] == 1 + ops / measured.attempted > 1


def test_checkout_without_the_package_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "root_expand", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_vanished_public_name_is_reported_missing(monkeypatch):
    public = [name for name in qcurvature.__all__ if name != "forward_tables"]
    monkeypatch.setattr(qcurvature, "__all__", public)
    suite = layers.Suite(4, 3)
    suite.dp()
    suite.cyclo()
    assert "paths.forward_tables_s" in suite.missing
    assert "qcurvature.forward_tables" in suite.missing["cyclo.reduce_s"]
    assert suite.failures == []


def test_self_time_subtracts_child_spans():
    tracer = Tracer("test")
    with tracer.span("op", None) as root:
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                pass
    tracer.spans[root][2:4] = [0.0, 10.0]
    tracer.spans[root + 1][2:4] = [1.0, 8.0]
    tracer.spans[root + 2][2:4] = [2.0, 5.0]
    per_layer, unaccounted = tracer.self_times(root)
    assert per_layer == {"a": 4.0, "b": 3.0}
    assert unaccounted == 3.0
