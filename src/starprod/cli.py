"""Command line interface.

All commands print a single report to stdout, as JSON (default) or as flat
"key: value" text lines; diagnostics go to stderr.  Output is deterministic:
keys are sorted and every number is exact.  Exit codes: 0 success, 2 bad
input (including argument errors), 3 a resource limit refused the job,
4 internal inconsistency.

A whole job can be supplied as a JSON file through --json FILE; the file
holds {"command": "star", "alpha": ..., "f": ..., ...} using the long
option names (underscores allowed) and is expanded to the equivalent
command line.

Numbers in expressions and --at entries are the same rational literals
(2, -1/3; no decimals, exponents or '+').  Expressions nest parentheses and
unary minus at most expr.MAX_NESTING (100) levels deep.  moduli jobs past
moduli.MAX_N inputs, and listings whose trees exceed
moduli.MAX_LISTED_LEAVES leaves, are refused with exit 3, and so are
powers past superalg.MAX_POWER_DEGREE or superalg.MAX_POWER_BITS, reports
with a number part over scalars.MAX_DIGITS digits, and products over their
--max-work budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, TextIO

from . import bv, koszul, moduli, poisson, structures, wick
from .errors import (InputError, InternalError, ResourceLimitError,
                     StarprodError)
from .expr import parse_poly, poly_to_expr
from .scalars import Scalar, format_scalar, parse_rational
from .superalg import coeff_space

DEFAULT_ORDER = wick.DEFAULT_ORDER


# input decoding -----------------------------------------------------------------

def _read_payload(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {text[1:]!r}: {exc}") from None
    return text


def _load_json(text: str, what: str) -> dict:
    """A JSON object given inline or as @file."""
    try:
        data = json.loads(_read_payload(text))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON for {what}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    return data


def load_bivector(text: str) -> poisson.Multivector:
    """Fixture name, inline JSON, or @file with JSON.

    The degree is checked by the library call that uses the bivector.
    """
    payload = _read_payload(text).strip()
    if payload.startswith("{"):
        return poisson.Multivector.from_data(_load_json(payload, "bivector"))
    return structures.fixture(payload)


def parse_basepoint(text: str) -> list[Scalar]:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        parts = []
    return [Scalar(parse_rational(part, "in the basepoint")) for part in parts]


def _series_report(basepoint: Sequence[Scalar], series) -> dict:
    return {
        "basepoint": [format_scalar(v) for v in basepoint],
        "series": series.as_strings(),
    }


# command handlers ------------------------------------------------------------------

def _cmd_series(args) -> dict:
    """star, moyal and associator: the wick function of the same name."""
    alpha = load_bivector(args.alpha)
    ring = coeff_space(alpha.dim)
    factors = [parse_poly(args.f, ring), parse_poly(args.g, ring)]
    if "h" in args:
        factors.append(parse_poly(args.h, ring))
    at = parse_basepoint(args.at)
    # looked up at call time, so a rebound wick.star (or moyal, associator)
    # is the one called
    series = getattr(wick, args.command)(alpha, *factors, at, args.order,
                                         args.max_work)
    return _series_report(at, series)


def _cmd_check_poisson(args) -> dict:
    alpha = load_bivector(args.alpha)
    witness = poisson.jacobi_witness(alpha)
    report = {
        "alpha": alpha.to_data(),
        "poisson": witness is None,
    }
    if witness is None:
        report["witness"] = None
    else:
        (i, j, k), defect = witness
        report["witness"] = {"indices": [i, j, k],
                             "defect": poly_to_expr(defect)}
    return report


def _cmd_schouten(args) -> dict:
    a = poisson.Multivector.from_data(_load_json(args.a, "multivector"))
    b = poisson.Multivector.from_data(_load_json(args.b, "multivector"))
    return {"bracket": poisson.schouten(a, b).to_data()}


def _cmd_koszul(args) -> dict:
    alpha = load_bivector(args.alpha)
    # the degree is checked by koszul_bracket
    w1 = koszul.DifferentialForm.from_data(_load_json(args.w1, "one-form"))
    w2 = koszul.DifferentialForm.from_data(_load_json(args.w2, "one-form"))
    report: dict = {}
    if args.route in ("geometric", "both"):
        geometric = koszul.koszul_bracket(alpha, w1, w2, "geometric")
        report["geometric"] = geometric.to_data()
    if args.route in ("diagram", "both"):
        diagram = koszul.koszul_bracket(alpha, w1, w2, "diagram")
        report["diagram"] = diagram.to_data()
    if args.route == "both":
        report["agree"] = report["geometric"] == report["diagram"]
    return report


def _cmd_bv_check(args) -> dict:
    space = bv.BVSpace.from_data(_load_json(args.space, "BV space"))
    f = space.poly(args.f)
    g = space.poly(args.g)
    h = space.poly(args.h)
    report = bv.check_bv_axioms(space, f, g, h)
    residuals = {name: poly_to_expr(p) for name, p in report.residuals().items()}
    return {
        "space": space.to_data(),
        "residuals": residuals,
        "all_zero": report.all_zero(),
    }


def _cmd_qme(args) -> dict:
    data = _load_json(args.space, "BV space")
    if args.order is not None:
        data["hbar_order"] = args.order
    space = bv.BVSpace.from_data(data)
    action = space.poly(args.s)
    result = bv.qme_residual(space, action)
    return {
        "classical": poly_to_expr(result.classical),
        "residual": poly_to_expr(result.residual),
        "solves_qme": result.solves(),
    }


def _cmd_moduli(args) -> dict:
    n = args.n
    if args.facets:
        facets = moduli.facet_compositions(n)
        return {
            "n": n,
            "facets": [{
                "stratum": fc.stratum.serialize(),
                "notation": fc.notation,
                "outer": fc.outer,
                "inner": fc.inner,
                "position": fc.position,
            } for fc in facets],
        }
    if args.codim is not None:
        strata = moduli.enumerate_strata(n, args.codim)
        return {
            "n": n,
            "codim": args.codim,
            "count": len(strata),
            "strata": [s.serialize() for s in strata],
        }
    top = moduli.dim(n)
    counts = {str(c): moduli.stratum_count(n, c) for c in range(top + 1)}
    return {
        "n": n,
        "dim": top,
        "counts": counts,
        "total": sum(counts.values()),
    }


# plumbing -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starprod",
        description="Exact deformation products, graded brackets, and "
                    "field/antifield checks on polynomial bivector structures.")
    parser.add_argument("--json", metavar="FILE",
                        help="read the whole job from a JSON file")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    for name, help_text in (
            ("star", "deformation product at a basepoint"),
            ("moyal", "constant-bivector exponential product"),
            ("associator", "associativity defect of the product")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("--alpha", required=True,
                       help="bivector: fixture name, inline JSON, or @file")
        p.add_argument("--f", required=True, help="first factor expression")
        p.add_argument("--g", required=True, help="second factor expression")
        if name == "associator":
            p.add_argument("--h", required=True, help="third factor expression")
        p.add_argument("--at", required=True,
                       help="comma-separated rational basepoint, e.g. 0,1/2")
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"truncation order (default {DEFAULT_ORDER})")
        p.add_argument("--max-work", type=int, default=wick.DEFAULT_MAX_WORK,
                       help="work budget: operator terms visited, or index "
                            "rows for moyal (default "
                            f"{wick.DEFAULT_MAX_WORK})")
        p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("check-poisson", parents=[common],
                       help="Jacobi identity check with witness")
    p.add_argument("--alpha", required=True,
                   help="bivector: fixture name, inline JSON, or @file")
    p.set_defaults(handler=_cmd_check_poisson)

    p = sub.add_parser("schouten", parents=[common],
                       help="bracket of two multivector fields")
    p.add_argument("--a", required=True, help="multivector JSON or @file")
    p.add_argument("--b", required=True, help="multivector JSON or @file")
    p.set_defaults(handler=_cmd_schouten)

    p = sub.add_parser("koszul", parents=[common],
                       help="bracket of one-forms, by route")
    p.add_argument("--alpha", required=True,
                   help="bivector: fixture name, inline JSON, or @file")
    p.add_argument("--w1", required=True, help="one-form JSON or @file")
    p.add_argument("--w2", required=True, help="one-form JSON or @file")
    p.add_argument("--route", choices=("geometric", "diagram", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_koszul)

    p = sub.add_parser("bv-check", parents=[common],
                       help="bracket/laplacian axiom residuals")
    p.add_argument("--space", required=True, help="BV space JSON or @file")
    p.add_argument("--f", required=True, help="first expression")
    p.add_argument("--g", required=True, help="second expression")
    p.add_argument("--h", required=True, help="third expression")
    p.set_defaults(handler=_cmd_bv_check)

    p = sub.add_parser("qme", parents=[common],
                       help="master equation residual of an action")
    p.add_argument("--space", required=True, help="BV space JSON or @file")
    p.add_argument("--s", required=True, help="action expression (even)")
    p.add_argument("--order", type=int, default=None,
                   help="override the space truncation order")
    p.set_defaults(handler=_cmd_qme)

    p = sub.add_parser("moduli", parents=[common],
                       help="strata counts and facet compositions")
    p.add_argument("--n", type=int, required=True, help="number of inputs")
    p.add_argument("--codim", type=int, default=None,
                   help="list strata of this codimension")
    p.add_argument("--facets", action="store_true",
                   help="list codimension-1 compositions")
    p.set_defaults(handler=_cmd_moduli)

    return parser


# built once: nothing in it depends on the call
_PARSER = _build_parser()


def _job_to_argv(job: dict) -> list[str]:
    if "command" not in job or not isinstance(job["command"], str):
        raise InputError("job file needs a 'command' string")
    argv = [job["command"]]
    for key, value in job.items():
        if key == "command":
            continue
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        if isinstance(value, dict):
            rendered = json.dumps(value, sort_keys=True)
        elif isinstance(value, list):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = str(value)
        # one token, so a value that starts with "-" is not read as a flag
        argv.append(f"{flag}={rendered}")
    return argv


def _emit_text(report: dict, out: TextIO, prefix: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            _emit_text(value, out, f"{path}.")
        elif isinstance(value, list):
            for idx, item in enumerate(value):
                if isinstance(item, dict):
                    _emit_text(item, out, f"{path}.{idx}.")
                else:
                    out.write(f"{path}.{idx}: {item}\n")
        else:
            out.write(f"{path}: {value}\n")


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.json is not None:
            if args.command is not None:
                raise InputError("--json replaces the command line; "
                                 "drop the explicit command")
            job = _load_json("@" + args.json, "job file")
            return main(_job_to_argv(job), out)
        if args.command is None:
            _PARSER.print_usage(sys.stderr)
            print("error: a command or --json FILE is required", file=sys.stderr)
            return 2
        report = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (InternalError, StarprodError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        out.write(json.dumps(report, sort_keys=True, indent=2))
        out.write("\n")
    else:
        _emit_text(report, out)
    return 0
