"""Command-line front end: coefficients, single-instance verification, sweeps,
counterexample search, reduction adjudication, and special-function evaluation.

Exit codes: 0 success, 1 mathematical findings or evaluation failure
(violations, certification failures, oracle-level reduction mismatches),
2 usage errors.  All floats are printed with 15 significant digits; JSON and
CSV are the stable output contracts, text is human-oriented.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import Optional

from . import bounds, harness
from .bounds import GRADIENT_THEOREMS, PRINTED_SETS, THEOREMS, Interval, lemma_residual
from .errors import (
    CertificationError,
    ConvergenceError,
    DomainError,
    ParameterError,
    ToleranceNotMetError,
)
from .functions import FAMILY_ROWS, FunctionSpec, SMParams, check_grid
from .harness import CSV_FIELDS, SweepConfig, _fmt15, render_csv, render_json
from .specfun import Hyp2F1Args, beta, hyp2f1_euler, hyp2f1_series, ln_gamma

__all__ = ["main", "build_parser", "dispatch"]

_FORMATS = ("json", "csv", "text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhkit",
        description="Verify Hermite-Hadamard type bounds for harmonically (s,m)-convex functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=_FORMATS, default="text")

    p = sub.add_parser("coeffs", help="closed-form coefficients with quadrature oracles")
    p.add_argument("--set", required=True, choices=tuple(PRINTED_SETS), dest="coeff_set")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    add_format(p)

    p = sub.add_parser("verify", help="verify one theorem instance")
    # the integral identity sits between the mean bound and the gradient bounds it underlies
    p.add_argument("--theorem", required=True,
                   choices=[t for t in THEOREMS if t not in GRADIENT_THEOREMS] + ["Lemma", *GRADIENT_THEOREMS])
    p.add_argument("--family", required=True, choices=tuple(FAMILY_ROWS))
    for row in FAMILY_ROWS.values():
        for param in row.params:
            p.add_argument("--" + param.name, type=float, default=param.default, help=f"{row.name}: {param.help}")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--grid", type=int, default=64, help="certification grid density")
    add_format(p)

    p = sub.add_parser("sweep", help="run a verification sweep from a JSON config")
    p.add_argument("--config", required=True, help="path to a SweepConfig JSON document")
    p.add_argument("--json", dest="json_out", default="sweep_report.json")
    p.add_argument("--csv", dest="csv_out", default="sweep_report.csv")
    add_format(p)

    p = sub.add_parser("search", help="randomized counterexample search")
    p.add_argument("--theorem", required=True, choices=list(THEOREMS))
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)

    p = sub.add_parser("specfun", help="evaluate the special functions")
    p.add_argument("--fn", required=True, choices=("2f1", "2f1-series", "beta", "lngamma"))
    p.add_argument("--a", type=float, default=None, help="2f1: a parameter")
    p.add_argument("--b", type=float, default=None, help="2f1: b parameter")
    p.add_argument("--c", type=float, default=None, help="2f1: c parameter")
    p.add_argument("--z", type=float, default=None, help="2f1: argument in [0, 1)")
    p.add_argument("--x", type=float, default=None, help="beta/lngamma first argument")
    p.add_argument("--y", type=float, default=None, help="beta second argument")
    add_format(p)

    p = sub.add_parser("reductions", help="reduction-identity and closed-form adjudication")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--s-grid", type=float, nargs="+", default=(0.25, 0.5, 0.75, 1.0))
    p.add_argument("--q-grid", type=float, nargs="+", default=(1.5, 2.0, 3.0))
    add_format(p)

    return parser


def _render(fmt: str, doc: dict, header, rows, text: list[str]) -> str:
    """The one format switch: ``doc`` as JSON, ``rows`` under ``header`` as CSV
    (``rows`` is only iterated for csv), or the text lines."""
    if fmt == "json":
        return render_json(doc)
    if fmt == "csv":
        return render_csv(header, rows)
    return "\n".join(text) + "\n"


def _interval(args) -> Interval:
    if not 0.0 < args.a < args.b:
        raise ParameterError(f"--a/--b must satisfy 0 < a < b, got a={args.a}, b={args.b}")
    return Interval(args.a, args.b)


def _build_function(args, m: float, iv: Interval) -> FunctionSpec:
    params = tuple(args.s if param.name == "sexp" and args.sexp is None else getattr(args, param.name)
                   for param in FAMILY_ROWS[args.family].params)
    return harness.make_function({"family": args.family, "params": params}, m, iv)


def _cmd_coeffs(args) -> tuple[int, str]:
    iv = _interval(args)
    row = PRINTED_SETS[args.coeff_set]
    flags = ["--" + p for p in row.takes]
    if any(getattr(args, p) is None for p in row.takes):
        raise ParameterError(f"{' and '.join(flags)} {'is' if len(flags) == 1 else 'are'} required "
                             f"for --set {row.name} ({row.ranges})")
    cs = row.build(args.s, args.q, iv)
    doc = {"a": iv.a, "b": iv.b, "s": args.s, "q": args.q, **cs.to_dict()}
    entries = list(zip(cs.labels, cs.values, cs.oracle_values, cs.deviations))
    text = [f"{lab}: printed={_fmt15(v)} oracle={_fmt15(o)} |dev|={_fmt15(d)}" for lab, v, o, d in entries]
    text.append(f"max_abs_dev={_fmt15(cs.max_abs_dev)}")
    return 0, _render(args.format, doc, ["label", "printed", "oracle", "deviation"], entries, text)


def _cmd_verify(args) -> tuple[int, str]:
    iv = _interval(args)
    check_grid(args.grid)
    params = SMParams(args.s, args.m, args.q)
    f = _build_function(args, params.m, iv)

    if args.theorem == "Lemma":
        residual = lemma_residual(f, iv)
        ok = residual <= bounds.TOL_ACCEPT
        doc = {"theorem": "Lemma", "a": iv.a, "b": iv.b, "family": f.label,
               "residual": residual, "tolerance": bounds.TOL_ACCEPT, "satisfied": ok}
        header = ["theorem", "a", "b", "family", "residual", "satisfied"]
        text = [f"residual={_fmt15(residual)} {'satisfied' if ok else 'VIOLATED'}"]
    else:
        rec = bounds.verify_theorem(args.theorem, f, params, iv, grid=args.grid)
        ok, doc, header = rec.satisfied, rec.to_dict(), CSV_FIELDS
        text = [f"lhs={_fmt15(rec.lhs)} rhs={_fmt15(rec.rhs)} margin={_fmt15(rec.margin)} "
                f"{'satisfied' if ok else 'VIOLATED'}"]
    return 0 if ok else 1, _render(args.format, doc, header, [[doc[k] for k in header]], text)


def _cmd_sweep(args) -> tuple[int, str]:
    with open(args.config, "rb") as fh:
        cfg = SweepConfig.from_json(fh.read())
    # Open both report paths before the sweep, so that a bad one fails at
    # once; on any failure up to the end of the sweep, remove the report
    # files this call created.
    created = []
    try:
        for path in (args.json_out, args.csv_out):
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
        result = harness.run_sweep(cfg)
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    harness.write_report_json(result, args.json_out)
    bad = [f for f in result.findings if f.kind in ("BoundViolation", "EvaluationError")]
    code = 1 if bad else 0
    harness.write_report_csv(result, args.csv_out)
    if args.format == "csv":  # the CSV report itself, as written
        with open(args.csv_out, encoding="utf-8", newline="") as fh:
            return code, fh.read()
    s = result.summary
    text = [
        f"instances={s['instances_evaluated']} skipped={s['instances_skipped']} "
        f"violations={s['violations']} findings={s['findings']}",
        f"worst_margin={_fmt15(s['worst_margin'])} mean_margin={_fmt15(s['mean_margin'])}",
        f"reports: {args.json_out} {args.csv_out}",
    ]
    doc = {"summary": s, "json_report": args.json_out, "csv_report": args.csv_out}
    return code, _render(args.format, doc, None, None, text)


def _cmd_search(args) -> tuple[int, str]:
    finding = harness.search_counterexample(args.theorem, args.budget, args.seed)
    doc = {"theorem": args.theorem, "budget": args.budget, "seed": args.seed,
           "finding": None if finding is None else finding.to_dict()}
    if finding is None:
        return 0, _render(args.format, doc, ["theorem", "budget", "seed", "finding"],
                          [[args.theorem, args.budget, args.seed, None]],
                          [f"no counterexample found ({args.theorem}, budget {args.budget}, seed {args.seed})"])
    return 1, _render(args.format, doc, ["kind", "severity", "description"],
                      [[finding.kind, finding.severity, finding.description]], [finding.description])


def _cmd_specfun(args) -> tuple[int, str]:
    def need(names):
        missing = [n for n in names if getattr(args, n) is None]
        if missing:
            raise ParameterError(f"--fn {args.fn} requires {', '.join('--' + n for n in missing)}")

    if args.fn in ("2f1", "2f1-series"):
        need(["a", "b", "c", "z"])
        h = Hyp2F1Args(args.a, args.b, args.c, args.z)
        value = hyp2f1_euler(h) if args.fn == "2f1" else hyp2f1_series(h)
    elif args.fn == "beta":
        need(["x", "y"])
        value = beta(args.x, args.y)
    else:
        need(["x"])
        value = ln_gamma(args.x)
    return 0, _render(args.format, {"fn": args.fn, "value": value}, ["fn", "value"], [[args.fn, value]],
                      [_fmt15(value)])


def _cmd_reductions(args) -> tuple[int, str]:
    iv = _interval(args)
    report = harness.build_adjudication_report([iv], tuple(args.s_grid), tuple(args.q_grid))
    findings = report["findings"]
    oracle_failures = [f for f in findings if f["kind"] == "ReductionMismatch" and f["payload"].get("level") == "oracle"]
    text = [
        f"oracle chain: {'FAILED' if oracle_failures else 'OK'} (tolerance {_fmt15(report['oracle_chain_tol'])})",
        f"printed-form findings: {len(findings)}",
        *(f"[{f['kind']}] severity={_fmt15(f['severity'])}: {f['description']}" for f in findings),
    ]
    rows = ([f["kind"], f["severity"], f["description"]] for f in findings)
    return 1 if oracle_failures else 0, _render(args.format, report, ["kind", "severity", "description"], rows, text)


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "specfun": _cmd_specfun,
    "reductions": _cmd_reductions,
}


def dispatch(args: argparse.Namespace) -> tuple[int, str]:
    """Validate flags, run the subcommand, and return (exit code, document)."""
    return _COMMANDS[args.command](args)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: building it takes
    about 2 ms, and parsing leaves a parser as it was."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, document = dispatch(args)
    except (DomainError, ParameterError, OSError) as exc:  # OSError: a path named on the command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 1
    except (ToleranceNotMetError, ConvergenceError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(document)
    return code


if __name__ == "__main__":
    sys.exit(main())
