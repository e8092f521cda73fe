"""Command-line front end.

Subcommands: ``curvature`` (full expansion), ``cq`` (one path sum),
``binom`` (Gaussian binomial), ``infinitesimal`` (first-order
coefficients), ``verify`` (cross-validation suite).  Output formats:
text, latex, json; every ``curvature`` format makes one call of
``curvature.expansion_terms`` with the builder it names: the styles ``TEXT``
and ``LATEX`` head, render and join each sum as it is computed, and
``JsonEntries`` gathers coefficient lists, written at the end.
``cq``, ``binom`` and ``infinitesimal`` share one writer
(:func:`_write_polys`), which reduces their values at the root in ``--mode
root`` and writes them in each format.  Exit codes: 0 success, 1
verification failure, 2 argument error, 3 unexpected internal error (one
line on stderr), 141 stdout closed by its reader (nothing on stderr); ``run``
maps every outcome to its code in one place.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys

from .curvature import (
    expansion_json,
    expansion_terms,
    infinitesimal_coefficients,
    resolve_default_rule,
    verify_suite,
)
from .cyclo import CycloModulus, QPoly, coeffs_list, q_binomial
from .paths import LATEX, TEXT, Comp, JsonEntries, WeightRule, path_sum_dp, path_sum_enum


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
# --rule: "default" runs the arbitration, any other names a WeightRule
RULES = ("default", *(rule.value for rule in WeightRule))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("n must be a positive integer")
    return value


def _comp(text: str) -> Comp:
    try:
        return Comp.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcurvature",
        description="Exact calculator for deformed q-differentials at roots of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, rule: bool = True) -> None:
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--mode", choices=("generic", "root"), default="root")
        p.add_argument("--format", choices=("text", "latex", "json"), default="text")
        if rule:
            p.add_argument("--rule", choices=RULES, default="default")

    p_curv = sub.add_parser("curvature", help="expansion of the n-th deformed power")
    common(p_curv)
    p_curv.set_defaults(handler=_run_curvature)

    p_cq = sub.add_parser("cq", help="weighted path sum to one composition")
    common(p_cq)
    p_cq.add_argument("--s", type=_comp, required=True, metavar="COMP")
    p_cq.add_argument("--method", choices=("dp", "enum"), default="dp")
    p_cq.set_defaults(handler=_run_cq)

    p_binom = sub.add_parser("binom", help="Gaussian binomial coefficient")
    common(p_binom, rule=False)
    p_binom.add_argument("--k", type=int, required=True)
    p_binom.set_defaults(handler=_run_binom)

    p_inf = sub.add_parser("infinitesimal", help="first-order deformation coefficients")
    common(p_inf)
    p_inf.set_defaults(handler=_run_infinitesimal)

    # verify checks both modes and reports as text or JSON
    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--n", type=_positive_int, required=True)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--rule", choices=RULES, default="default")
    p_verify.set_defaults(handler=_run_verify)

    return parser


def _resolve_rule(args: argparse.Namespace) -> WeightRule:
    """Map the --rule flag to a WeightRule; ``default`` runs the arbitration."""
    if args.rule == "default":
        rule = resolve_default_rule()
        print(f"rule: {rule.value} (oracle-arbitrated default)", file=sys.stderr)
        return rule
    return WeightRule(args.rule)


def _emit_json(payload: dict) -> None:
    """Write ``payload``, which holds only JSON values (coefficients as lists), as JSON."""
    import json  # here, not at the top: only JSON output pays for loading it

    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _require(condition: bool, parser_message: str) -> None:
    if not condition:
        print(f"error: {parser_message}", file=sys.stderr)
        raise SystemExit(2)


def _write_polys(
    args: argparse.Namespace, payload: dict, values: tuple[QPoly, ...], labelled: bool = False
) -> int:
    """Write ``values``, each reduced modulo Phi_n in ``--mode root``, in ``--format``.

    Text and LaTeX take one line per value, ``m=<index>: `` in front when
    ``labelled``.  JSON is ``payload`` with the coefficient lists added under
    ``"coeffs"`` when ``labelled``, else the one value's under ``"value"``.
    """
    if args.mode == "root":
        values = tuple(map(CycloModulus.of(args.n).reduce, values))
    if args.format == "json":
        lists = [coeffs_list(value) for value in values]
        payload.update({"coeffs": lists} if labelled else {"value": lists[0]})
        _emit_json(payload)
        return 0
    show = QPoly.latex if args.format == "latex" else str
    for m, value in enumerate(values):
        print(f"m={m}: {show(value)}" if labelled else show(value))
    return 0


def _run_curvature(args: argparse.Namespace) -> int:
    _require(args.mode != "root" or args.n >= 2, "curvature --mode root needs --n >= 2")
    rule = _resolve_rule(args)
    style = {"text": TEXT, "latex": LATEX, "json": JsonEntries}[args.format]
    blocks = expansion_terms(args.n, args.mode, rule, style)
    if style is JsonEntries:
        _emit_json(expansion_json(args.n, args.mode, rule, blocks))
        return 0
    for k, terms in blocks:  # text and LaTeX are written term by term
        sys.stdout.write(style.head.format(k))
        sys.stdout.writelines(style.pieces(terms))
        sys.stdout.write("\n")
    return 0


def _run_cq(args: argparse.Namespace) -> int:
    _require(args.mode != "root" or args.n >= 2, "cq --mode root needs --n >= 2")
    rule = _resolve_rule(args)
    compute = path_sum_dp if args.method == "dp" else path_sum_enum
    payload = {"n": args.n, "s": list(args.s.entries), "rule": rule.value,
               "method": args.method, "mode": args.mode}
    return _write_polys(args, payload, (compute(args.s, args.n, rule),))


def _run_binom(args: argparse.Namespace) -> int:
    _require(args.mode != "root" or args.n >= 2, "binom --mode root needs --n >= 2")
    payload = {"n": args.n, "k": args.k, "mode": args.mode}
    return _write_polys(args, payload, (q_binomial(args.n, args.k),))


def _run_infinitesimal(args: argparse.Namespace) -> int:
    _require(args.n >= 2, "infinitesimal needs --n >= 2")
    rule = _resolve_rule(args)
    payload = {"n": args.n, "mode": args.mode, "rule": rule.value}
    return _write_polys(args, payload, infinitesimal_coefficients(args.n, rule).coeffs, labelled=True)


def _run_verify(args: argparse.Namespace) -> int:
    _require(args.n >= 2, "verify needs --n >= 2")
    rule = None if args.rule == "default" else WeightRule(args.rule)
    report = verify_suite(args.n, rule)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.passed else 1


def run(argv: list[str]) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here at the latest, not at exit
        return code
    except SystemExit as exc:  # argparse's errors and --help, and _require
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # the reader has gone (as with `| head`): end quietly, as a SIGPIPE
        # would; stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # exit code 1 is reserved for a failed verification
        detail = " ".join(str(exc).split())
        print(f"error: internal failure: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
