"""Command-line front door: analyze, verify, search, plot, constants.

Exit codes: 0 success / no violations, 1 input error, 2 numeric failure,
3 violations found (verify only).  Reports go to stdout or --out; diagnostics
to stderr.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import sys

from .bounds import solve_constants, verify_all
from .corpusio import (
    CorpusFormatError,
    PolynomialRecord,
    emit_report,
    emit_zero_plot,
    parse_corpus,
)
from .measure import mahler_from_roots, mahler_graeffe
from .polycore import norms, structural_flags
from .rootfind import PrecisionError, RootFindError, roots
from .search import SearchSpaceError, search_min_mahler
from .structure import THETA0, classify_E_theta

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_VIOLATIONS = 3
NUMERIC_ERRORS = (RootFindError, PrecisionError, OverflowError, ArithmeticError)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call reads; `parse_args` leaves it as it
    is, so it is built once."""
    ap = argparse.ArgumentParser(
        prog="mahlerlab",
        description="Mahler measures, zero geometry, and bound verification "
        "for integer/complex polynomials.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, corpus=True, theta=True, fmt=True):
        """Add --precision and --out; with ``corpus`` the corpus file and
        --descending, with ``theta`` --theta and --jobs (which only a corpus
        spreads over processes), with ``fmt`` --format."""
        if corpus:
            p.add_argument("file", help="corpus file (ascending integer coefficients)")
            p.add_argument("--descending", action="store_true",
                           help="corpus lines list the leading coefficient first")
        p.add_argument("--precision", type=int, default=128, metavar="BITS",
                       help="working precision in bits (64..4096; default 128)")
        if theta:
            p.add_argument("--theta", type=float, default=1.3,
                           help=f"small-measure threshold in (1, {THETA0:.6f}]")
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes" if corpus
                           else "1 only: search runs in one process")
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write report here instead of stdout")

    common(sub.add_parser("analyze", help="norms, measure, roots, structure, "
                          "small-measure classification per polynomial"))
    common(sub.add_parser("verify", help="evaluate every bound; exit 3 on any violation"))

    ps = sub.add_parser("search", help="exhaustive small-measure search over "
                        "monic self-reciprocal integer polynomials; the table "
                        "goes to stdout, the JSON records to --out")
    ps.add_argument("--degree", type=int, required=True, help="even degree cap")
    ps.add_argument("--height", type=int, required=True, help="coefficient height")
    common(ps, corpus=False, fmt=False)

    pp = sub.add_parser("plot", help="SVG scatter of all zeros in the corpus")
    common(pp, theta=False, fmt=False)

    pc = sub.add_parser("constants", help="print the transcendental constants "
                        "with defining-equation residuals")
    pc.add_argument("--out", default=None)
    return ap


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {out_path}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT)
    else:
        sys.stdout.write(text)


def _load_corpus(args):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    try:
        return parse_corpus(text, descending=args.descending)
    except CorpusFormatError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _precision(args) -> int:
    bits = args.precision
    if not 64 <= bits <= 4096:
        print(f"precision {bits} outside [64, 4096]", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    return bits


def _check_theta(args):
    if not (1.0 < args.theta <= THETA0 + 1e-15):
        print(f"theta {args.theta} outside (1, {THETA0}]", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _analyze_one(payload):
    ident, coeffs, bits, theta = payload
    from .polycore import Polynomial

    p = Polynomial(coeffs)
    rec = PolynomialRecord(ident, p)
    nb = norms(p)
    rec.norms = {"H": float(nb.H), "L": float(nb.L), "L2": nb.L2}
    flags = structural_flags(p)
    rec.flags = {
        "selfReciprocal": flags.self_reciprocal,
        "primitiveC1": flags.primitive_c1,
        "signC2": flags.sign_c2,
        "content": flags.content,
        "vanishesAt0": flags.vanishes_at_0,
        "vanishesAt1": flags.vanishes_at_1,
        "vanishesAtMinus1": flags.vanishes_at_minus1,
    }
    if p.degree >= 1:
        rset = roots(p, bits)
        mroot = mahler_from_roots(p, rset)
        mgra = mahler_graeffe(p, k=20, precision_bits=max(bits, 128))
        rec.measure = {
            "rootProduct": mroot.value,
            "rootProductError": mroot.error_bound,
            "graeffe": mgra.value,
            "graeffeError": mgra.error_bound,
        }
        rec.roots = [
            {
                "re": r.z.real,
                "im": r.z.imag,
                "errorRadius": float(r.error_radius),
                "multiplicity": r.multiplicity,
            }
            for r in sorted(rset.roots, key=lambda r: (r.z.real, r.z.imag))
        ]
        if p.is_integer():
            et = classify_E_theta(p, theta, precision_bits=bits, rs=rset, measure=mroot)
            rec.etheta = {
                "member": et.member,
                "conditional": et.conditional,
                "failures": et.failures,
                "theta": et.theta,
                "propertyAudit": et.property_audit,
            }
    return rec


def _verify_one(payload):
    ident, coeffs, bits, _theta = payload
    from .polycore import Polynomial

    p = Polynomial(coeffs)
    rec = PolynomialRecord(ident, p)
    report = verify_all(p, precision_bits=bits, polynomial_id=ident)
    rec.bounds = report.entries
    return rec


def _fan_out(entries, worker, bits, theta, jobs):
    payloads = [(e.id, e.polynomial.coeffs, bits, theta) for e in entries]
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(pl) for pl in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads, chunksize=4))


def cmd_analyze(args) -> int:
    _check_theta(args)
    bits = _precision(args)
    entries = _load_corpus(args)
    try:
        records = _fan_out(entries, _analyze_one, bits, args.theta, args.jobs)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(emit_report(records, args.format), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_theta(args)
    bits = _precision(args)
    entries = _load_corpus(args)
    try:
        records = _fan_out(entries, _verify_one, bits, args.theta, args.jobs)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(emit_report(records, args.format), args.out)
    violated = sum(
        1 for r in records for e in r.bounds if e.verdict.value == "Violated"
    )
    if violated:
        print(f"{violated} violated bound(s)", file=sys.stderr)
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_search(args) -> int:
    _check_theta(args)
    bits = _precision(args)
    if args.degree < 2 or args.degree % 2 or args.height < 1:
        print("search needs an even --degree >= 2 and --height >= 1", file=sys.stderr)
        return EXIT_INPUT
    if args.jobs != 1:
        print("search runs in one process: --jobs must be 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        records = search_min_mahler(args.degree, args.height, args.theta,
                                    precision_bits=bits)
    except SearchSpaceError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    lines = [f"{'rank':>4}  {'measure':<20}  coefficients (ascending)"]
    for r in records:
        coeffs = " ".join(map(str, r.polynomial.coeffs))
        lines.append(f"{r.rank:>4}  {r.measure.value:<20.15f}  {coeffs}")
    table = "\n".join(lines) + "\n"
    if args.out:
        payload = {
            "records": [
                {
                    "rank": r.rank,
                    "measure": r.measure.value,
                    "measureError": r.measure.error_bound,
                    "degree": r.polynomial.degree,
                    "coefficients": list(r.polynomial.coeffs),
                }
                for r in records
            ]
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    sys.stdout.write(table)
    return EXIT_OK


def cmd_plot(args) -> int:
    bits = _precision(args)
    entries = _load_corpus(args)
    try:
        rootsets = [roots(e.polynomial, bits) for e in entries if e.polynomial.degree >= 1]
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(emit_zero_plot(rootsets), args.out)
    return EXIT_OK


def cmd_constants(args) -> int:
    c = solve_constants()
    res = c.residuals()
    rows = [
        ("theta0", c.theta0, "x^3 - x - 1 = 0", res["theta0"]),
        ("golden", c.golden, "x^2 - x - 1 = 0", res["golden"]),
        ("c", c.c, "c log c = 1 + c", res["c"]),
        ("a", c.a, "a (log a)^3 = 4", res["a"]),
        ("A", c.A, "A^2 = 4 / (a (2 + log a))", res["A"]),
        ("b", c.b, "b (log b)^2 (log b - 2) = 8", res["b"]),
        ("B", c.B, "B^4 = 8 log(b^2) / (b (log b + 2))", res["B"]),
    ]
    lines = [f"{'name':<8} {'value':<20} {'residual':<10} defining equation"]
    for name, val, eq, r in rows:
        lines.append(f"{name:<8} {val:<20.15f} {r:<10.2e} {eq}")
    lines.append(
        f"note: solved c = {c.c:.6f}; commonly printed as {c.printed_c} "
        f"(difference {abs(c.c - c.printed_c):.2e})"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a numeric failure
        # here; --help exits 0 and stays an exit
        if exc.code:
            return EXIT_INPUT
        raise
    handlers = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "search": cmd_search,
        "plot": cmd_plot,
        "constants": cmd_constants,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
