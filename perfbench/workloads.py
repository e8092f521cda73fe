"""The benchmark's workloads.

Each operation is one fresh ``python`` process.  A CLI workload runs
``python -m qcurvature <args>``; the library workload runs ``child.py
oracle``.  The calculator is deterministic, so a run's seed only shuffles
the order of operations.
"""

from __future__ import annotations

from dataclasses import dataclass

SMOKE_N = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # problem size of a full run
    cli: tuple[str, ...] | None  # CLI arguments, "{n}" filled in; None for the library call

    def cli_args(self, n: int) -> list[str]:
        return [arg.format(n=n) for arg in self.cli]


WORKLOADS = {
    w.name: w
    for w in (
        # DP ~70% and cyclotomic reduction ~15% of the work.
        Workload("root_expand", 13, ("curvature", "--n", "{n}", "--mode", "root", "--format", "text")),
        # Same DP, no reduction; JSON rendering of 8193 words (6.1 MB) ~15%.
        Workload("generic_json", 13, ("curvature", "--n", "{n}", "--mode", "generic", "--format", "json")),
        # Many small cache-hitting calls for n = 2..11 under both weight rules.
        Workload("verify", 11, ("verify", "--n", "{n}")),
        # deformed_power and maurer_cartan_element: almost all freealg.
        Workload("operator_oracle", 13, None),
    )
}
