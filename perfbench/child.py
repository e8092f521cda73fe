"""Programs the harness runs as fresh processes, one operation each.

    python perfbench/child.py setup                  import the CLI, arbitrate the rule
    python perfbench/child.py oracle N               the operator-oracle workload
    python perfbench/child.py traced WORKLOAD N DIR  one operation in-process, traced

Arguments are read from ``sys.argv`` directly and the standard library is
imported late, so ``setup`` times the package's import and nothing else.
"""

import sys
import time


def setup() -> int:
    start = time.perf_counter()
    import qcurvature.cli  # what every CLI call imports first

    imported = time.perf_counter()
    qcurvature.resolve_default_rule()
    done = time.perf_counter()
    import json

    print(json.dumps({
        "import_s": imported - start,
        "arbitration_s": done - imported,
        "module": qcurvature.__file__,
    }))
    return 0


def oracle_parts(qcurvature, n: int):
    """The timed library calls: deformed_power(n) and maurer_cartan_element(n)."""
    return qcurvature.deformed_power(n), qcurvature.maurer_cartan_element(n)


def oracle_output(op, element) -> tuple[int, bytes]:
    """Exit code and stdout of the oracle operation, given its two results."""
    from reference import canonical_text

    d0 = {t.mono.comp.entries: t.coeff.coeffs for t in op.terms() if t.dpow == 0}
    words = {mono.comp.entries: coeff.coeffs for mono, coeff in element.items()}
    if d0 != words:
        print("the d^0 part of deformed_power differs from maurer_cartan_element", file=sys.stderr)
        return 1, b""
    return 0, canonical_text(words)


def oracle(n: int) -> int:
    import qcurvature

    code, out = oracle_output(*oracle_parts(qcurvature, n))
    sys.stdout.buffer.write(out)
    return code


def run_cli(main, argv: list[str]) -> tuple[int, bytes]:
    """Run the console entry point ``main`` in-process; its exit code and stdout."""
    import io

    saved_argv, saved_stdout = sys.argv, sys.stdout
    sys.argv, sys.stdout = ["qcurvature", *argv], io.StringIO()
    try:
        main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        captured = sys.stdout.getvalue()
        sys.argv, sys.stdout = saved_argv, saved_stdout
    return code, captured.encode()


def traced(workload: str, n: int, out_dir: str) -> int:
    import json
    from pathlib import Path

    import qcurvature
    import qcurvature.cli
    from tracer import Tracer, discover_caches, package_modules
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    caches = discover_caches(qcurvature)
    tracer = Tracer(workload)
    with tracer.installed(qcurvature):
        with tracer.span("op", None) as root:
            if spec.cli is None:
                results = oracle_parts(qcurvature, n)
            else:
                code, out = run_cli(qcurvature.cli.main, spec.cli_args(n))
    if spec.cli is None:
        code, out = oracle_output(*results)
    per_layer, unaccounted = tracer.self_times(root)
    # A layer the operation never entered spent no time.
    self_s = {m.__name__.rsplit(".", 1)[-1]: 0.0 for m in package_modules(qcurvature)[1:]}
    self_s.update(per_layer)
    Path(out_dir, "traced-stdout").write_bytes(out)
    tracer.write(Path(out_dir, f"spans-{workload}-op.jsonl"))
    print(json.dumps({
        "exit_code": code,
        "op_s": tracer.duration(root),
        "unaccounted_s": unaccounted,
        "self_s": self_s,
        "cache_currsize": {name: fn.cache_info().currsize for name, fn in caches.items()},
    }))
    return 0


def main(argv: list[str]) -> int:
    command, args = argv[0], argv[1:]
    if command == "setup":
        return setup()
    if command == "oracle":
        return oracle(int(args[0]))
    if command == "traced":
        return traced(args[0], int(args[1]), args[2])
    print(f"unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
