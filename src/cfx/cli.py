"""Batch command-line front end.

Subcommands: convergents, eval, diff-table, verify, compare.  Every command
assembles one OutputRecord (schema version 1) and renders it as text, CSV or
JSON with identical numeric content.  Exact rationals are serialized as
"num/den" digit strings (bare integer when the denominator is 1); decimal
strings carry exactly the requested number of significant digits.

Exit status contract: 0 success, 1 verification failure (also an eval value
its oracle does not confirm) or a value that could not be computed (depth
cap, precision, singular), 2 usage error, 3 domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from mpmath import mp, mpc

from . import engine, families, identities
from .kernel import CFXError, ComplexParam, DomainError, NonConvergenceError, ParameterError, agrees, to_mp

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

DEFAULT_DIGITS = 30
DEFAULT_DEPTH = 50


def decimal_str(v, digits: int) -> str:
    """Decimal string with exactly ``digits`` significant digits; a non-real
    value as ``(re + imj)``, with ``digits`` in each part."""
    with mp.workdps(digits + 10):
        x = to_mp(v)
        if not isinstance(x, mpc):
            return _nstr(x, digits)
        # mpmath's nstr of an mpc strips the zeros of the real part.
        re, im = (_nstr(part, digits) for part in (x.real, abs(x.imag)))
        return f"({re} {'-' if x.imag < 0 else '+'} {im}j)"


def _nstr(x, digits: int) -> str:
    """A real mpf with ``digits`` significant digits; mpmath prints zero as
    ``0.0`` at any precision, so zero gets the zeros that a one would."""
    return mp.nstr(x, digits, strip_zeros=False) if x else "0." + "0" * (digits - 1)


def _spec_params(args, family_ids: list[str]) -> tuple[dict, list]:
    """The family flags given, in ``families.PARAMS`` order, and the spec of
    each family in ``family_ids`` built from them.  An unknown family, and a
    flag that none of the families takes, is a usage error, checked before
    any family is built."""
    params = {key: getattr(args, key) for key in families.PARAMS
              if getattr(args, key) is not None}
    unknown = [fid for fid in family_ids if fid not in families.FAMILIES]
    if unknown:
        raise ParameterError(f"unknown family {unknown[0]!r}")
    unused = [f"--{key}" for key in params
              if not any(key in families.FAMILIES[fid].params for fid in family_ids)]
    if unused:
        raise ParameterError(f"{', '.join(unused)} not taken by {', '.join(family_ids)}")
    return params, [families.make_family(fid, **params) for fid in family_ids]


def _record(command: str, parameters: dict, rows: list, diagnostics: dict) -> dict:
    return {
        "schema": 1,
        "command": command,
        "parameters": parameters,
        "rows": rows,
        "diagnostics": diagnostics,
    }


def _param_repr(params: dict) -> dict:
    return {k: (str(v) if isinstance(v, (ComplexParam, Fraction)) else v) for k, v in params.items()}


def cmd_convergents(args) -> tuple[dict, int]:
    params, (spec,) = _spec_params(args, [args.expansion])
    convs = engine.convergents(spec, args.depth)
    rows = []
    for c in convs:
        singular = c.value is None
        rows.append(
            {
                "k": c.k,
                "p_raw": str(c.p_raw),
                "q_raw": str(c.q_raw),
                "value": "singular" if singular else str(c.value),
                "decimal": "singular" if singular else decimal_str(c.value, args.digits),
            }
        )
    record = _record(
        "convergents",
        {"expansion": args.expansion, **_param_repr(params), "depth": args.depth, "digits": args.digits},
        rows,
        {},
    )
    return record, EXIT_OK


def cmd_eval(args) -> tuple[dict, int]:
    params, (spec,) = _spec_params(args, [args.expansion])
    value, depth = engine.estimate_limit(spec, args.digits)
    with mp.workdps(args.digits + 15):
        target = families.FAMILIES[args.expansion].oracle(params, args.digits)
        oracle_delta = mp.nstr(abs(to_mp(value) - target), 5)
    status = EXIT_OK if agrees(value, target, args.digits - 2) else EXIT_VERIFY_FAIL
    rows = [
        {
            "value": decimal_str(value, args.digits),
            "achieved_depth": depth,
            "oracle_delta": oracle_delta,
        }
    ]
    record = _record(
        "eval",
        {"expansion": args.expansion, **_param_repr(params), "digits": args.digits},
        rows,
        {},
    )
    return record, status


def cmd_diff_table(args) -> tuple[dict, int]:
    if args.n < 1:
        raise ParameterError("diff-table requires --n >= 1")
    if args.depth < 1:
        raise ParameterError("diff-table requires --depth >= 1")
    rows = [{"k": k, "difference": str(direct), "formula": str(formula), "match": direct == formula}
            for k, direct, formula, _ in identities.difference_rows(args.n, args.depth)]
    record = _record(
        "diff-table",
        {"n": args.n, "depth": args.depth},
        rows,
        {},
    )
    return record, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    selection = "all" if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    reports = identities.run_suite(
        selection, max_n=args.max_n, k_max=args.depth, digits=args.digits
    )
    rows = [asdict(r) for r in reports]
    n_failed = sum(1 for r in reports if not r.passed)
    record = _record(
        "verify",
        {"suite": args.suite, "max_n": args.max_n, "depth": args.depth, "digits": args.digits},
        rows,
        {"total": len(reports), "failed": n_failed},
    )
    return record, EXIT_OK if n_failed == 0 else EXIT_VERIFY_FAIL


def cmd_compare(args) -> tuple[dict, int]:
    ids = [s.strip() for s in args.expansions.split(",") if s.strip()]
    if not ids:
        raise ParameterError("--expansions must list at least one family")
    repeated = sorted({fid for fid in ids if ids.count(fid) > 1})
    if repeated:
        raise ParameterError(f"repeated expansion ids: {repeated}")
    params, specs = _spec_params(args, ids)
    labels = sorted({families.FAMILIES[fid].label(params) for fid in ids})
    if len(labels) > 1:
        raise ParameterError(f"expansions evaluate different constants: {labels}")
    if args.value != labels[0]:
        raise ParameterError(f"--value {args.value} is not {labels[0]}, the limit of {ids}")
    conv_lists = [engine.convergents(s, args.depth) for s in specs]
    rows = []
    for k in range(args.depth + 1):
        row = {"k": k}
        for s, convs in zip(specs, conv_lists):
            v = convs[k].value
            row[s.name] = "singular" if v is None else str(v)
        rows.append(row)
    matrix = {f"{a.name}|{b.name}": families.first_differing_index(table_a, table_b)
              for (a, table_a), (b, table_b) in itertools.combinations(zip(specs, conv_lists), 2)}
    limits = [engine.estimate_limit(s, args.digits)[0] for s in specs]
    agree = all(agrees(limits[0], v, args.digits - 2) for v in limits[1:])
    record = _record(
        "compare",
        {
            "value": args.value,
            "expansions": ids,
            **_param_repr(params),
            "depth": args.depth,
            "digits": args.digits,
        },
        rows,
        {"first_differing_index": matrix, "limits_agree": agree},
    )
    return record, EXIT_OK


# ---------------------------------------------------------------------------
# Rendering


def render_text(record: dict) -> str:
    out = io.StringIO()
    out.write(f"# {record['command']}")
    for key, value in record["parameters"].items():
        out.write(f" {key}={value}")
    out.write("\n")
    rows = record["rows"]
    if rows:
        columns = list(rows[0].keys())
        table = [[_cell(r.get(c)) for c in columns] for r in rows]
        widths = [
            max(len(col), *(len(row[i]) for row in table)) for i, col in enumerate(columns)
        ]
        out.write("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip() + "\n")
        for row in table:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    for key, value in record["diagnostics"].items():
        if key != "runtime_seconds":
            out.write(f"{key}: {value}\n")
    return out.getvalue()


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def render_csv(record: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    rows = record["rows"]
    if rows:
        columns = list(rows[0].keys())
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_cell(r.get(c)) for c in columns])
    return out.getvalue()


def render_json(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"


def render(record: dict, fmt: str) -> str:
    if fmt == "text":
        return render_text(record)
    if fmt == "csv":
        return render_csv(record)
    return render_json(record)


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit status 2, argparse default
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, depth=True, digits=True):
        if digits:
            p.add_argument("--digits", type=_positive_int, default=DEFAULT_DIGITS)
        if depth:
            p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    def add_family_params(p):
        for key, parse in families.PARAMS.items():
            p.add_argument(f"--{key}", type=parse)

    p = sub.add_parser("convergents", help="tabulate raw and reduced convergents")
    p.add_argument("--expansion", required=True, choices=families.FAMILY_IDS)
    add_family_params(p)
    add_common(p)
    p.set_defaults(fn=cmd_convergents)

    p = sub.add_parser("eval", help="evaluate an expansion to a digit target")
    p.add_argument("--expansion", required=True, choices=families.FAMILY_IDS)
    add_family_params(p)
    add_common(p, depth=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diff-table", help="successive differences vs closed form")
    p.add_argument("--n", type=int, required=True)
    add_common(p, digits=False)
    p.set_defaults(fn=cmd_diff_table)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--max-n", dest="max_n", type=_positive_int, default=6)
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--digits", type=_positive_int, default=40)
    p.add_argument("--format", choices=("text", "csv", "json"), default="json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="compare expansions of the same constant")
    p.add_argument("--value", required=True)
    p.add_argument("--expansions", required=True)
    add_family_params(p)
    add_common(p)
    p.set_defaults(fn=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _merge_complex_flags(argv: list[str]) -> list[str]:
    """Rewrite `--z -3+0i` as `--z=-3+0i` so argparse does not read a
    negative family parameter as an option string."""
    flags = {f"--{key}" for key in families.PARAMS}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_complex_flags(list(argv))
    try:
        # A complex literal that does not parse raises ParameterError here.
        args = _parser().parse_args(argv)
        start = time.monotonic()
        record, status = args.fn(args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ParameterError as exc:
        print(f"cfx: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"cfx: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NonConvergenceError as exc:
        print(f"cfx: depth cap reached before convergence: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except CFXError as exc:  # PrecisionError, SingularError
        print(f"cfx: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    record["diagnostics"]["runtime_seconds"] = round(time.monotonic() - start, 3)
    sys.stdout.write(render(record, getattr(args, "format", "json")))
    return status


if __name__ == "__main__":
    sys.exit(main())
