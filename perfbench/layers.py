"""Per-layer measurements: each layer's public entry points timed from outside.

    python perfbench/layers.py N VERIFY_N DIR

Every timed name is looked up in ``qcurvature.__all__`` (the CLI through its
console entry point ``qcurvature.cli.main``).  A metric whose name has gone,
or whose call no longer fits, is reported missing with the reason instead of
failing the run.  Caches are cleared before each cold timing; "self" timings
run with the other layers' caches warm and subtract the spans of the
package's own public calls.  Prints one JSON object with ``metrics``,
``missing`` and ``failures``, and writes the spans to DIR.
"""

from __future__ import annotations

import json
import sys
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import qcurvature
import qcurvature.cli
from child import run_cli
from reference import expected
from tracer import Tracer, clear_caches, discover_caches

ENUM_N_MAX = 5  # verify_suite enumerates paths up to this n


class Missing(Exception):
    """A name the suite times is no longer public."""


class Suite:
    def __init__(self, n: int, verify_n: int):
        self.n, self.verify_n = n, verify_n
        self.tracer = Tracer("layers")
        self.caches = discover_caches(qcurvature)
        self.metrics: dict[str, float] = {}
        self.missing: dict[str, str] = {}
        self.failures: list[str] = []

    def api(self, name: str):
        if name not in getattr(qcurvature, "__all__", ()) or not hasattr(qcurvature, name):
            raise Missing(f"qcurvature.{name} is not public")
        return getattr(qcurvature, name)

    def rule(self):
        return self.api("resolve_default_rule")()

    @contextmanager
    def measuring(self, *names: str):
        """Record each of ``names`` the block did not set as missing, with the reason."""
        try:
            yield
            reason = "not measured"
        except Missing as exc:
            reason = str(exc)
        except Exception as exc:  # an API change must not stop the other layers
            traceback.print_exc()
            reason = f"{type(exc).__name__}: {exc}"
        for name in names:
            if name not in self.metrics:
                self.missing[name] = reason

    def cold(self, name: str, layer: str, fn, *args):
        """Time one call with every package cache cleared; returns its result."""
        clear_caches(self.caches)
        with self.tracer.span(name, layer) as index:
            result = fn(*args)
        self.metrics[f"{name}_s"] = self.tracer.duration(index)
        return result

    def self_time(self, name: str, layer: str, fn, *args):
        """Time one call minus the spans of the package's public calls it makes."""
        with self.tracer.installed(qcurvature):
            with self.tracer.span(name, layer) as index:
                result = fn(*args)
        _, own = self.tracer.self_times(index)
        self.metrics[f"{name}_s"] = own
        return result

    def peak_mb(self, fn, *args) -> float:
        """tracemalloc peak of one call with every package cache cleared."""
        clear_caches(self.caches)
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    # -- layers ------------------------------------------------------------------

    def dp(self) -> None:
        n, m = self.n, self.metrics
        with self.measuring("paths.forward_tables_s", "paths.vertices", "paths.table_entries",
                            "paths.edges_relaxed", "cyclo.kernel_s", "cyclo.kernel_ops"):
            forward_tables, successors = self.api("forward_tables"), self.api("successors")
            zero, rule = self.api("ZERO"), self.rule()
            tables = self.cold("paths.forward_tables", "paths", forward_tables, n, rule)
            m["paths.vertices"] = len(tables[-1])
            m["paths.table_entries"] = sum(len(t) for t in tables)
            # An edge is relaxed when its target is inside the pruned table.
            relaxed, last_step = 0, []
            for step, nxt in zip(tables, tables[1:]):
                last_step = []
                for vertex, value in step.items():
                    for edge in successors(vertex, rule):
                        if edge.target in nxt:
                            relaxed += 1
                            last_step.append((value, edge.weight, edge.target))
            m["paths.edges_relaxed"] = relaxed
            # Replay the final step's multiply-accumulate through the Z[q] kernel.
            acc: dict = {}
            with self.tracer.span("cyclo.kernel", "cyclo") as index:
                for value, weight, target in last_step:
                    acc[target] = acc.get(target, zero) + value * weight
            m["cyclo.kernel_s"] = self.tracer.duration(index)
            m["cyclo.kernel_ops"] = len(last_step)
            self.check(acc == dict(tables[-1]), "kernel replay differs from the DP's final step")

    def enum(self) -> None:
        n, m = self.n, self.metrics
        with self.measuring("paths.enum_s"):
            path_sum_enum, vertices = self.api("path_sum_enum"), self.api("enumerate_vertices")
            rules = list(self.api("WeightRule"))
            clear_caches(self.caches)
            with self.tracer.span("paths.enum", "paths") as index:
                for size in range(2, min(n, ENUM_N_MAX) + 1):
                    for rule in rules:
                        for s in vertices(size):
                            path_sum_enum(s, size, rule)
            m["paths.enum_s"] = self.tracer.duration(index)

    def cyclo(self) -> None:
        n, m = self.n, self.metrics
        with self.measuring("cyclo.max_coeff_degree", "cyclo.max_coeff_bits",
                            "cyclo.reduce_s", "cyclo.reduce_calls"):
            coefficients = list(self.api("forward_tables")(n, self.rule())[-1].values())
            m["cyclo.max_coeff_degree"] = max(p.degree for p in coefficients)
            m["cyclo.max_coeff_bits"] = max(abs(c).bit_length() for p in coefficients for c in p.coeffs)
            modulus = self.api("CycloModulus").of(n)
            with self.tracer.span("cyclo.reduce", "cyclo") as index:
                for p in coefficients:
                    modulus.reduce(p)
            m["cyclo.reduce_s"] = self.tracer.duration(index)
            m["cyclo.reduce_calls"] = len(coefficients)

    def freealg(self) -> None:
        n, m = self.n, self.metrics
        with self.measuring("freealg.deformed_power_s", "freealg.op_terms"):
            op = self.cold("freealg.deformed_power", "freealg", self.api("deformed_power"), n)
            m["freealg.op_terms"] = len(op.terms())
        with self.measuring("freealg.maurer_cartan_s"):
            self.cold("freealg.maurer_cartan", "freealg", self.api("maurer_cartan_element"), n)

    def peaks(self) -> None:
        """tracemalloc slows the calls it watches, so peaks are taken apart from timings."""
        n, m = self.n, self.metrics
        with self.measuring("paths.peak_mb"):
            m["paths.peak_mb"] = self.peak_mb(self.api("forward_tables"), n, self.rule())
        with self.measuring("freealg.peak_mb"):
            m["freealg.peak_mb"] = self.peak_mb(self.api("deformed_power"), n)

    def curvature(self) -> None:
        n, m = self.n, self.metrics
        with self.measuring("curvature.path_expansion_self_s", "curvature.output_words"):
            path_expansion, rule = self.api("path_expansion"), self.rule()
            path_expansion(n, rule)  # warm the other layers' caches
            expansion = self.self_time("curvature.path_expansion_self", "curvature", path_expansion, n, rule)
            m["curvature.output_words"] = sum(len(block["terms"]) for block in expansion.to_json_dict()["c"])
        with self.measuring("curvature.root_expansion_self_s"):
            root_expansion, rule = self.api("root_of_unity_expansion"), self.rule()
            root_expansion(n, rule)
            self.self_time("curvature.root_expansion_self", "curvature", root_expansion, n, rule)
        with self.measuring("curvature.verify_self_s"):
            verify_suite = self.api("verify_suite")
            verify_suite(self.verify_n)
            report = self.self_time("curvature.verify_self", "curvature", verify_suite, self.verify_n)
            self.check(report.passed, f"verify_suite({self.verify_n}) did not pass")

    def cli(self) -> None:
        n, m = self.n, self.metrics
        renders = (
            ("cli.render_text", "root_expand", ["curvature", "--n", str(n), "--mode", "root", "--format", "text"]),
            ("cli.render_json", "generic_json", ["curvature", "--n", str(n), "--mode", "generic", "--format", "json"]),
        )
        for name, workload, argv in renders:
            names = [f"{name}_s"] + (["cli.stdout_bytes"] if workload == "generic_json" else [])
            with self.measuring(*names):
                main = qcurvature.cli.main
                run_cli(main, argv)  # warm the other layers' caches
                code, out = self.self_time(name, "cli", run_cli, main, argv)
                problem = expected(workload, n).problem(code, out)
                self.check(problem is None, f"{name}: {problem}")
                if workload == "generic_json":
                    m["cli.stdout_bytes"] = len(out)


def main(argv: list[str]) -> int:
    n, verify_n, out_dir = int(argv[0]), int(argv[1]), Path(argv[2])
    suite = Suite(n, verify_n)
    # Warm measurements follow the cold DP; the ones that clear caches come last.
    for layer in (suite.dp, suite.cyclo, suite.curvature, suite.cli, suite.enum, suite.freealg, suite.peaks):
        layer()
    suite.tracer.write(out_dir / "spans-layers.jsonl")
    print(json.dumps({"metrics": suite.metrics, "missing": suite.missing, "failures": suite.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
