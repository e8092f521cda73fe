"""Benchmark harness for qcurvature.

    python3 perfbench/run.py --workload root_expand --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload root_expand --seed 1 --seconds 55 --trace 1
    python3 perfbench/run.py --workload verify --seed 1 --seconds 1 --trace 0 --smoke

Run it from the root of a checkout that holds ``src/qcurvature``; it uses the
standard library only.  ``--trace 0`` runs the workload closed loop, one
fresh ``python`` process per operation, until ``--seconds`` have passed, and
reports the end-to-end metrics.  ``--trace 1`` runs the layer suite
(``layers.py``) and traced copies of the workload's operation, and reports
the per-layer metrics.  Every output is checked against ``reference.py``.
``--smoke`` shrinks every workload to n = 5.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of ``BENCHMARK.json``.  Samples, missing metrics and spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from reference import Expected, expected
from workloads import SMOKE_N, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
PACKAGE = ROOT / "src" / "qcurvature"

SETUP_PROBES = 9  # fresh-process set-ups per end-to-end run; setup_s is their median
TRACE_SETUP_PROBES = 3
TRACE_PAIRS = 2  # at least this many traced/untraced operation pairs per traced run
OP_TIMEOUT_S = 150


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: str | None
    stdout: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn(argv: list[str], expect: Expected | None = None, name: str = "child") -> Sample:
    """Run ``python argv`` to completion, through ``launch.py``; its own wall, CPU and peak RSS.

    The launcher's ``os.wait4`` gives the rusage of this one command, not
    the running maximum over all children that ``RUSAGE_CHILDREN`` gives.
    """
    stdout_path, stderr_path = OUT / f"{name}.stdout", OUT / f"{name}.stderr"
    launcher = subprocess.Popen(
        [sys.executable, "-S", str(BENCH / "launch.py"), str(stdout_path), str(stderr_path),
         sys.executable, *argv],
        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, start_new_session=True)
    try:
        line, _ = launcher.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(launcher.pid, signal.SIGKILL)  # the launcher and the command
        launcher.wait()
        line = b""
    fields = line.split()
    if len(fields) != 4:
        wall = cpu = rss_kb = float("nan")
        code, problem = -1, f"timed out after {OP_TIMEOUT_S} s" if not line else "launcher failed"
    else:
        wall, cpu, rss_kb, code = float(fields[0]), float(fields[1]), float(fields[2]), int(fields[3])
        problem = None
    stdout = stdout_path.read_bytes()
    if problem is None:
        problem = expect.problem(code, stdout) if expect is not None else (
            None if code == 0 else f"exit code {code}")
    if problem is not None:
        tail = stderr_path.read_bytes()[-2000:].decode(errors="replace")
        print(f"{name} {' '.join(argv)}: {problem}\n{tail}", file=sys.stderr)
    return Sample(wall, cpu, rss_kb / 1024, problem, stdout)


def op_argv(workload: str, n: int) -> list[str]:
    spec = WORKLOADS[workload]
    if spec.cli is None:
        return [str(BENCH / "child.py"), "oracle", str(n)]
    return ["-m", "qcurvature", *spec.cli_args(n)]


def setup_probe() -> tuple[Sample, dict]:
    sample = spawn([str(BENCH / "child.py"), "setup"], name="setup")
    info = json.loads(sample.stdout) if sample.problem is None else {}
    return sample, info


def check_checkout() -> None:
    """Refuse to run unless the package under test is this checkout's."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SetupError(f"{PACKAGE} not found: run from the root of a qcurvature checkout")
    OUT.mkdir(exist_ok=True)
    sample, info = setup_probe()  # also compiles the bytecode before any timing
    if sample.problem is not None:
        raise SetupError(f"the package does not import: {sample.problem}")
    if Path(info["module"]).resolve() != (PACKAGE / "__init__.py").resolve():
        raise SetupError(f"qcurvature was imported from {info['module']}, not this checkout")


@dataclass
class Run:
    """What one benchmark run measured."""

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    missing: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, kind: str, sample: Sample) -> Sample:
        self.attempted += 1
        if sample.problem is not None:
            self.failed += 1
            self.problems.append(f"{kind}: {sample.problem}")
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            self.samples.setdefault(f"{kind}.{metric}", []).append(getattr(sample, metric))
        return sample


def end_to_end(workload: str, n: int, seconds: float, rng: random.Random,
               expect: Expected) -> Run:
    """Closed loop, one client: operations back to back until ``seconds`` pass.

    The set-up probes are interleaved with the operations at positions the
    seed picks.
    """
    run = Run()
    argv = op_argv(workload, n)
    setup_at = set(rng.sample(range(2 * SETUP_PROBES), SETUP_PROBES))
    setups = ops = 0
    deadline = time.perf_counter() + seconds
    step = 0
    while setups < SETUP_PROBES or not ops or time.perf_counter() < deadline:
        if step in setup_at or (ops and time.perf_counter() >= deadline):
            run.record("setup", setup_probe()[0])
            setups += 1
        else:
            run.record("op", spawn(argv, expect, name=workload))
            ops += 1
        step += 1
    s = run.samples
    run.metrics = {
        "wall_s": median(s["op.wall_s"]),
        "cpu_s": median(s["op.cpu_s"]),
        "peak_rss_mb": median(s["op.peak_rss_mb"]),
        "setup_s": median(s["setup.wall_s"]),
        # 1 + the failed share, so the metric is never 0; see README.md.
        "fail_ratio": 1 + run.failed / run.attempted,
    }
    return run


def traced(workload: str, n: int, layer_n: int, verify_n: int, seconds: float,
           rng: random.Random, expect: Expected) -> Run:
    """The layer suite, then traced and untraced copies of the operation in pairs."""
    run = Run()
    deadline = time.perf_counter() + seconds
    probes = []
    for _ in range(TRACE_SETUP_PROBES):
        sample, info = setup_probe()
        run.record("setup", sample)
        if info:
            probes.append(info)
    if probes:
        run.metrics["cli.import_s"] = median([p["import_s"] for p in probes])
        run.metrics["curvature.arbitration_s"] = median([p["arbitration_s"] for p in probes])

    sample = run.record("layers", spawn([str(BENCH / "layers.py"), str(layer_n), str(verify_n), str(OUT)],
                                        name="layers"))
    if sample.problem is None:
        suite = json.loads(sample.stdout)
        run.metrics.update(suite["metrics"])
        run.missing.update(suite["missing"])
        if suite["failures"]:
            run.failed += 1
            run.problems.extend(f"layers: {f}" for f in suite["failures"])

    untraced_cpu, traced_cpu, reports = [], [], []
    traced_argv = [str(BENCH / "child.py"), "traced", workload, str(n), str(OUT)]
    pairs = 0
    while pairs < TRACE_PAIRS or time.perf_counter() < deadline:
        for kind in rng.sample(["untraced", "traced"], 2):
            if kind == "untraced":
                sample = run.record("op", spawn(op_argv(workload, n), expect, name=workload))
                untraced_cpu.append(sample.cpu_s)
                continue
            sample = run.record("traced", spawn(traced_argv, name="traced"))
            traced_cpu.append(sample.cpu_s)
            if sample.problem is None:
                report = json.loads(sample.stdout)
                problem = expect.problem(report["exit_code"], (OUT / "traced-stdout").read_bytes())
                if problem is not None:
                    run.failed += 1
                    run.problems.append(f"traced: {problem}")
                reports.append(report)
        pairs += 1
        if not reports:
            break  # the traced child fails outright; no use repeating it
    if reports:
        run.metrics["trace.op_s"] = median([r["op_s"] for r in reports])
        run.metrics["trace.unaccounted_s"] = median([r["unaccounted_s"] for r in reports])
        for layer in {layer for r in reports for layer in r["self_s"]}:
            run.metrics[f"trace.{layer}.self_s"] = median([r["self_s"].get(layer, 0.0) for r in reports])
        for name, size in reports[-1]["cache_currsize"].items():
            run.metrics[f"cache.{name}.currsize"] = size
        run.metrics["trace.overhead_s"] = median(traced_cpu) - median(untraced_cpu)
    return run


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(run: Run, declared: list[dict]) -> dict:
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = run.metrics.get(name)
        if value is None:
            run.missing.setdefault(name, "not measured")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def summary_lines(workload: str, n: int, run: Run) -> list[str]:
    lines = []
    for key, values in sorted(run.samples.items()):
        lines.append(f"{workload} n={n} {key}: median {median(values):.4f} "
                     f"min {min(values):.4f} max {max(values):.4f} (samples={len(values)})")
    lines += [f"missing {name}: {reason}" for name, reason in sorted(run.missing.items())]
    lines += [f"failed {problem}" for problem in run.problems]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at n = 5")
    args = parser.parse_args(argv)

    try:
        check_checkout()
        declared = declared_metrics(bool(args.trace))
    except (SetupError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = SMOKE_N if args.smoke else WORKLOADS[args.workload].n
    verify_n = SMOKE_N if args.smoke else WORKLOADS["verify"].n
    curvature_n = SMOKE_N if args.smoke else WORKLOADS["root_expand"].n
    expect = expected(args.workload, n)
    rng = random.Random(args.seed)
    if args.trace:
        run = traced(args.workload, n, curvature_n, verify_n, args.seconds, rng, expect)
    else:
        run = end_to_end(args.workload, n, args.seconds, rng, expect)

    result = report(run, declared)
    detail = {"workload": args.workload, "n": n, "seed": args.seed, "trace": args.trace,
              "samples": run.samples, "missing": run.missing, "problems": run.problems,
              "result": result}
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(detail, indent=1))
    for line in summary_lines(args.workload, n, run):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
