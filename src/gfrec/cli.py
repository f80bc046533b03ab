"""Command-line front end.

Every subcommand emits a single OutputRecord: schema_version, an echo of
the resolved command, and a payload whose numbers are exact decimal
strings.  Timings never live inside payloads, so byte-identical inputs
give byte-identical payloads.

Every subcommand takes --format json (the default) or pretty, a
human-readable table; expsum, the one subcommand with a sequence payload,
also takes csv.

Exit codes: 0 success, 1 a check that ran and failed, 2 usage error,
3 resource limit.  main is the one place that maps exceptions to them:
NoRecurrenceError from discover is a failed check, any other ValueError
(a bad argument, an expression that does not parse, a range the library
refuses) is a usage error, and ResourceLimitExceeded is a resource limit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from .cyclotomic import to_decimal
from .funcalg import parse, unparse
from .galois import make_field, prime_power
from .harness import (
    acceptance_run,
    compare,
    rot_conjecture_seq,
    trap_conjecture_seq,
)
from .limits import DEFAULT_DEGREE_CAP, DEFAULT_POINT_BUDGET, ResourceLimitExceeded, check_degree_cap, check_field
from .numtheory import eigen_check, eisenstein_dumas, gauss_sum
from .oracle import sum_sequence
from .recurrence import (
    IntPolynomial,
    NoRecurrenceError,
    check_discover,
    discover,
    satisfies,
)
from . import transfer

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(ValueError):
    pass


def _parse_field(args):
    p_s, power, r_s = args.field.strip().partition("^")
    try:
        p, r = int(p_s), int(r_s) if power else 1
        check_field(p, r, args.budget)  # every field request enumerates at some n >= 1
        if not power:
            p, r = prime_power(p)
    except ValueError:
        raise UsageError("field must be a prime power, like 9 or 3^2") from None
    modulus = None
    if args.modulus is not None:
        try:
            modulus = [int(c) for c in args.modulus.split(",")]
        except ValueError:
            raise UsageError("modulus must be comma-separated integers") from None
    return make_field(p, r, modulus)


def _field_echo(f, args):
    """The echo of a resolved field: its size, and its modulus when
    --modulus chose it, since values depend on the modulus."""
    echo = {"field": f.describe()}
    if args.modulus is not None:
        echo["modulus"] = list(f.modulus)
    return echo


def _parse_range(text):
    text = text.strip()
    if ".." in text:
        a_s, b_s = text.split("..", 1)
    else:
        a_s = b_s = text
    try:
        a, b = int(a_s), int(b_s)
    except ValueError:
        raise UsageError("range must look like 3..6") from None
    if a > b:
        raise UsageError("empty range %d..%d" % (a, b))
    return a, b


def _parse_poly(text):
    try:
        coeffs = [int(c) for c in text.split(",")]
    except ValueError:
        raise UsageError("polynomial must be ascending comma-separated integers") from None
    if not any(coeffs):
        raise UsageError("polynomial must be nonzero")
    return IntPolynomial(coeffs)


def _start(e, f, args):
    """The first n, and the transfer system if that took building.

    The first n is --n-min when given.  Otherwise it is the family minimum,
    or the transfer system's first index when that is later (rotations start
    later).  The system goes on to _sums, so a request builds it once.
    """
    n_min = getattr(args, "n_min", None)  # conjecture has no --n-min
    if n_min is not None or args.method != "transfer":
        return (e.min_n() if n_min is None else n_min), None
    sys_ = transfer.system_for(e, f, budget=args.budget)
    return max(e.min_n(), sys_.n_min), sys_


def _sums(e, f, lo, hi, args, sys_=None):
    """The sums of e for n = lo..hi by --method, from sys_ when it is built."""
    if args.method != "transfer":
        return sum_sequence(e, f, range(lo, hi + 1), budget=args.budget)
    if sys_ is None:
        sys_ = transfer.system_for(e, f, budget=args.budget)
    return transfer.run_range(sys_, e, range(lo, hi + 1))


def _sequence_payload(seq, f, expr_text, method):
    return {
        "expr": expr_text,
        "field": f.describe(),
        "method": method,
        "n_min": seq.n_min,
        "values": [
            {
                "n": seq.n_min + i,
                "coeffs": [to_decimal(c) for c in v.coeffs],
                "integer": None if v.as_integer() is None else to_decimal(v.as_integer()),
            }
            for i, v in enumerate(seq.values)
        ],
    }


def _emit(record, args, stream=None):
    if stream is None:
        stream = sys.stdout
    if args.format == "json":
        stream.write(json.dumps(record, sort_keys=True) + "\n")
        return
    if args.format == "csv":  # expsum only: the one sequence payload
        values = record["payload"]["values"]
        width = max(len(v["coeffs"]) for v in values)
        stream.write("n," + ",".join("c%d" % i for i in range(width)) + "\n")
        for v in values:
            row = list(v["coeffs"]) + ["0"] * (width - len(v["coeffs"]))
            stream.write("%d,%s\n" % (v["n"], ",".join(row)))
        return
    _emit_pretty(record, stream)


def _emit_pretty(record, stream):
    payload = record["payload"]
    name = record["command"]["name"]
    stream.write("%s\n" % name)
    if isinstance(payload, dict) and "values" in payload:
        for v in payload["values"]:
            shown = v["integer"] if v["integer"] is not None else "[%s]" % ", ".join(v["coeffs"])
            stream.write("  n=%-3d %s\n" % (v["n"], shown))
        return
    if isinstance(payload, list):  # acceptance report
        for item in payload:
            stream.write(
                "  %-4s %-4s %5dms  %s\n"
                % (item["id"], item["status"], item["millis"], item["got"])
            )
        return
    for key in sorted(payload):
        stream.write("  %s: %s\n" % (key, payload[key]))


def _record(name, args_dict, payload):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": name, "args": args_dict},
        "payload": payload,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_expsum(args):
    f = _parse_field(args)
    e = parse(args.expr)
    lo, hi = _parse_range(args.n)
    if lo < e.min_n():
        raise UsageError("family needs n >= %d" % e.min_n())
    seq = _sums(e, f, lo, hi, args)
    payload = _sequence_payload(seq, f, unparse(e), args.method)
    echo = {"expr": args.expr, **_field_echo(f, args), "n": "%d..%d" % (lo, hi), "method": args.method}
    return _record("expsum", echo, payload), EXIT_OK


def _cmd_verify(args):
    f = _parse_field(args)
    e = parse(args.expr)
    poly = _parse_poly(args.poly)
    lo, sys_ = _start(e, f, args)
    if lo < e.min_n():
        raise UsageError("family needs n >= %d" % e.min_n())
    if args.n_max < lo:
        raise UsageError("empty range %d..%d" % (lo, args.n_max))
    if args.n_max - lo < poly.degree:
        raise UsageError(
            "need at least %d terms to check a degree-%d recurrence"
            % (poly.degree + 1, poly.degree)
        )
    seq = _sums(e, f, lo, args.n_max, args, sys_)
    holds = satisfies(seq, poly)
    payload = {
        "expr": unparse(e),
        "field": f.describe(),
        "poly": [to_decimal(c) for c in poly.coeffs],
        "n_range": [lo, args.n_max],
        "windows": len(seq) - poly.degree,
        "holds": holds,
    }
    echo = {"expr": args.expr, **_field_echo(f, args), "poly": args.poly, "n_max": args.n_max}
    return _record("verify", echo, payload), EXIT_OK if holds else EXIT_CHECK_FAILED


def _cmd_discover(args):
    f = _parse_field(args)
    e = parse(args.expr)
    check_discover(args.max_order)  # before a transfer build fixes the first n
    lo, sys_ = _start(e, f, args)
    if args.n_max < lo:
        raise UsageError("empty range %d..%d" % (lo, args.n_max))
    check_discover(args.max_order, args.n_max - lo + 1)  # before any sum
    seq = _sums(e, f, lo, args.n_max, args, sys_)
    poly = discover(seq, max_order=args.max_order)
    payload = {
        "expr": unparse(e),
        "field": f.describe(),
        "n_range": [lo, args.n_max],
        "poly": [to_decimal(c) for c in poly.coeffs],
        "degree": poly.degree,
        "pretty": poly.pretty(),
    }
    echo = {"expr": args.expr, **_field_echo(f, args), "n_max": args.n_max, "max_order": args.max_order}
    return _record("discover", echo, payload), EXIT_OK


def _cmd_annihilator(args):
    f = _parse_field(args)
    e = parse(args.expr)
    check_degree_cap(args.degree_cap)
    sys_ = transfer.system_for(e, f, budget=args.budget)
    poly = transfer.integer_annihilator(sys_, degree_cap=args.degree_cap)
    payload = {
        "expr": unparse(e),
        "field": f.describe(),
        "system": sys_.label,
        "dim": sys_.dim,
        "poly": [to_decimal(c) for c in poly.coeffs],
        "degree": poly.degree,
        "pretty": poly.pretty(),
    }
    echo = {"expr": args.expr, **_field_echo(f, args)}
    return _record("annihilator", echo, payload), EXIT_OK


def _cmd_conjecture(args):
    if args.k < 2:
        raise UsageError("need k >= 2")
    f = _parse_field(args)
    if args.n_max < args.k:
        raise UsageError("empty range %d..%d" % (args.k, args.n_max))
    if args.which == "trapezoid":
        expr = parse("tau(%d)" % args.k)
    else:
        if f.q != 2:
            raise UsageError("the rotation conjecture is stated over field 2")
        expr = parse("R(%s)" % ",".join(str(j) for j in range(2, args.k + 1)))
    lo, sys_ = _start(expr, f, args)
    if args.n_max < lo:
        raise UsageError("empty range %d..%d" % (lo, args.n_max))
    # the measured sums first: they check the range and the point budget
    # before the conjectured sequence is extended to n_max
    measured = _sums(expr, f, lo, args.n_max, args, sys_)
    if args.which == "trapezoid":
        conjectured = trap_conjecture_seq(args.k, f, args.n_max)
    else:
        conjectured = rot_conjecture_seq(args.k, args.n_max)
    report = compare(conjectured, measured, which=args.which, k=args.k, field=f.describe())
    first = report.first_disagreement
    payload = {
        "which": report.which,
        "k": report.k,
        "field": report.field,
        "checked_range": list(report.checked_range),
        "agreements": report.agreements,
        "first_disagreement": None
        if first is None
        else {
            "n": first[0],
            "expected": [to_decimal(c) for c in first[1].coeffs],
            "got": [to_decimal(c) for c in first[2].coeffs],
        },
        "status": report.status,
    }
    echo = {"which": args.which, "k": args.k, **_field_echo(f, args), "n_max": args.n_max}
    code = EXIT_CHECK_FAILED if report.status == "refuted" else EXIT_OK
    return _record("conjecture", echo, payload), code


def _cmd_numtheory(args):
    if args.op == "gauss-sum":
        if args.p is None:
            raise UsageError("gauss-sum needs --p")
        g = gauss_sum(args.a, args.p)
        payload = {
            "op": "gauss-sum",
            "p": args.p,
            "a": args.a,
            "coeffs": [to_decimal(c) for c in g.coeffs],
        }
        echo = {"op": args.op, "p": args.p, "a": args.a}
        return _record("numtheory", echo, payload), EXIT_OK
    if args.op == "eigen-check":
        if args.p is None:
            raise UsageError("eigen-check needs --p")
        rep = eigen_check(args.p)
        payload = {
            "op": "eigen-check",
            "p": rep.p,
            "ok": rep.ok,
            "predicted": [
                {"coeffs": [to_decimal(c) for c in v.coeffs], "multiplicity": m}
                for v, m in rep.predicted
            ],
        }
        echo = {"op": args.op, "p": args.p}
        code = EXIT_OK if rep.ok else EXIT_CHECK_FAILED
        return _record("numtheory", echo, payload), code
    # eisenstein
    if args.poly is None or args.p is None:
        raise UsageError("eisenstein needs --poly and --p")
    poly = _parse_poly(args.poly)
    verdict = eisenstein_dumas(poly, args.p)
    payload = {
        "op": "eisenstein",
        "p": args.p,
        "poly": [to_decimal(c) for c in poly.coeffs],
        "verdict": verdict,
    }
    echo = {"op": args.op, "p": args.p, "poly": args.poly}
    return _record("numtheory", echo, payload), EXIT_OK


def _cmd_accept(args):
    try:  # before the battery, so that an unwritable path costs no run
        out = open(args.out, "w") if args.out else contextlib.nullcontext()
    except OSError as exc:
        raise UsageError("cannot write --out %s: %s" % (args.out, exc.strerror)) from None
    with out as fh:
        report = acceptance_run(profile=args.profile)
        record = _record("accept", {"profile": args.profile}, report["items"])
        if fh:
            json.dump(record, fh, sort_keys=True, indent=2)
            fh.write("\n")
    code = EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED
    return record, code


def _cmd_bench(args):
    f = _parse_field(args)
    e = parse(args.expr)
    lo, hi = _parse_range(args.n)
    if lo < e.min_n():
        raise UsageError("family needs n >= %d" % e.min_n())
    t0 = time.monotonic()
    brute = sum_sequence(e, f, range(lo, hi + 1), budget=args.budget)
    t1 = time.monotonic()
    fast = transfer.run_range(transfer.system_for(e, f, budget=args.budget), e, range(lo, hi + 1))
    t2 = time.monotonic()
    agree = brute.values == fast.values
    payload = {
        "expr": unparse(e),
        "field": f.describe(),
        "n_range": [lo, hi],
        "terms": len(brute),
        "agree": agree,
    }
    record = _record("bench", {"expr": args.expr, **_field_echo(f, args), "n": args.n}, payload)
    record["timings"] = {
        "brute_millis": int((t1 - t0) * 1000),
        "transfer_millis": int((t2 - t1) * 1000),
    }
    return record, EXIT_OK if agree else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sp, field=True, budget=True, formats=("json", "pretty")):
    if field:
        sp.add_argument("--field", required=True, help="prime power, like 9 or 3^2")
        sp.add_argument("--modulus", help="ascending modulus coefficients for extensions")
    if budget:
        sp.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET,
                        help="enumeration point budget")
    sp.add_argument("--format", choices=formats, default="json",
                    help="pretty is a human-readable table")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gfrec",
        description="Exact character sums of polynomial families over finite "
        "fields, and the integer recurrences they satisfy.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("expsum", help="character sums over a range of n")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n", required=True, help="range like 3..6")
    sp.add_argument("--method", choices=("brute", "transfer"), default="brute")
    _add_common(sp, formats=("json", "pretty", "csv"))
    sp.set_defaults(func=_cmd_expsum)

    sp = sub.add_parser("verify", help="check a recurrence against computed sums")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--poly", required=True, help="ascending comma-separated coefficients")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-min", type=int)
    sp.add_argument("--method", choices=("brute", "transfer"), default="brute")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("discover", help="fit the minimal integer recurrence")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-min", type=int)
    sp.add_argument("--max-order", type=int, default=6)
    sp.add_argument("--method", choices=("brute", "transfer"), default="brute")
    _add_common(sp)
    sp.set_defaults(func=_cmd_discover)

    sp = sub.add_parser("annihilator", help="integer annihilator of a state system")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    _add_common(sp)
    sp.set_defaults(func=_cmd_annihilator)

    sp = sub.add_parser("conjecture", help="conjectured versus measured sums")
    sp.add_argument("--which", choices=("trapezoid", "rotation"), required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--method", choices=("brute", "transfer"), default="brute")
    _add_common(sp)
    sp.set_defaults(func=_cmd_conjecture)

    sp = sub.add_parser("numtheory", help="Gauss sums, the exact quadratic-matrix spectrum, irreducibility")
    sp.add_argument("op", choices=("gauss-sum", "eigen-check", "eisenstein"))
    sp.add_argument("--p", type=int)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--poly")
    _add_common(sp, field=False, budget=False)
    sp.set_defaults(func=_cmd_numtheory)

    sp = sub.add_parser("accept", help="run the acceptance battery")
    sp.add_argument("--profile", choices=("quick", "full"), default="quick")
    sp.add_argument("--out", help="also write the report to this file")
    _add_common(sp, field=False, budget=False)
    sp.set_defaults(func=_cmd_accept)

    sp = sub.add_parser("bench", help="time brute versus transfer, equality first")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n", required=True, help="range like 3..12")
    _add_common(sp)
    sp.set_defaults(func=_cmd_bench)

    return ap


@functools.cache
def _parser():
    """build_parser's parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        record, code = args.func(args)
        _emit(record, args)
        return code
    except NoRecurrenceError as exc:  # a ValueError, so it is caught first
        print("check failed: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:  # UsageError and the library's own refusals
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitExceeded as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
