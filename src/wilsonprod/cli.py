"""Command-line front end.

Subcommands: ``factor`` (prime splitting report), ``classify`` (closed-form
product class with witness), ``verify`` (closed form vs. brute force for one
modulus), ``sweep`` (verify across every small-norm ideal), ``gauss`` (the
classical table over Z), and ``cyclo-demo`` (the 2-power cyclotomic pattern
1, 1+pi, 1+pi^2, 1, 1, ...).

Exit codes: 0 success/match, 1 verification mismatch, 2 error (reported as a
single JSON object on stdout regardless of output mode; an exception that is
not a WilsonError is a defect and is reported as ``internal_error``, with its
traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .errors import (
    DumpTooLarge,
    InvariantViolation,
    ParseError,
    WilsonError,
    magnitude,
)
from .order import NumberFieldOrder, make_order, parse_poly, poly_str
from .primes import FactoredIdeal, factor_element, factor_prime, parse_ideal
from .residue import DEFAULT_CAP, OrderContext, build_residue_ring
from .wilson import (
    ProductClass,
    classify_gauss,
    classify_global,
    d2_of_ideal,
    gauss_product,
    sweep_field,
    verify_ideal,
)


# the largest cyclo-demo --t: degree 2^7 = 128, a few seconds
CYCLO_T_MAX = 8
# the largest ring verify --dump lists: about 4 MB of JSON in 0.6 s
DUMP_CAP = 1 << 16
# the largest gauss --max-A: the brute force is quadratic in it, and takes
# about 0.5 s at the cap
GAUSS_MAX_A = 2000
# the integer flags, by argparse dest; argparse keeps their text and main
# parses it, so that a bad value is a parse_error like any other bad input
INT_FLAGS = {"prime": "--prime", "cap": "--cap", "max_norm": "--max-norm",
             "max_a": "--max-A", "t": "--t", "n_max": "--n-max"}


def _emit(args: argparse.Namespace, doc: dict, lines: list) -> None:
    if args.output == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


def _load_ideal(o: NumberFieldOrder, args: argparse.Namespace) -> FactoredIdeal:
    if args.ideal is not None:
        return parse_ideal(o, args.ideal)
    if args.gen is not None:
        gen = o.element_from_poly(parse_poly(args.gen))
        return factor_element(o, gen)
    raise ParseError("provide an ideal with --ideal or --gen")


def _witness_text(coeffs) -> str:
    if coeffs is None:
        return "(not evaluated: ring beyond cap)"
    return poly_str(coeffs)


def cmd_factor(args: argparse.Namespace) -> int:
    o = make_order(args.poly)
    factors = factor_prime(o, args.prime)
    doc = {
        "poly": poly_str(o.poly),
        "prime": args.prime,
        "maximal": True,
        "factors": [dict(pd.to_json(), label=pd.label()) for pd in factors],
    }
    lines = [f"o = {o}, p = {args.prime} (maximal at {args.prime}: yes)"]
    for pd in factors:
        lines.append(f"  {pd.label()}: P = {pd}, e = {pd.e}, f = {pd.f}")
    lines.append(f"sum of e*f = {sum(pd.e * pd.f for pd in factors)}"
                 f" = degree {o.degree}")
    _emit(args, doc, lines)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    o = make_order(args.poly)
    a = _load_ideal(o, args)
    res = classify_global(o, a, cap=args.cap)
    doc = dict(res.to_json(), ideal=a.label(), poly=poly_str(o.poly),
               d2=d2_of_ideal(a))
    lines = [
        f"o = {o}, a = {a.label()}",
        f"product of all units: {res.kind.symbol()}  (class {res.kind.value})",
        f"d2 = {d2_of_ideal(a)}",
        f"witness: {_witness_text(doc['witness'])}",
    ]
    if res.prime is not None:
        lines.insert(2, f"at the even prime P = {res.prime}")
    _emit(args, doc, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    o = make_order(args.poly)
    a = _load_ideal(o, args)
    if args.dump and a.absolute_norm > DUMP_CAP:
        raise DumpTooLarge(f"|o/a| = {magnitude(a.absolute_norm)} is above"
                           f" the dump cap {DUMP_CAP}")
    res = verify_ideal(o, a, cap=args.cap)
    verdict = "MATCH" if res.match else "MISMATCH"
    doc = dict(res.to_json(), poly=poly_str(o.poly), verdict=verdict)
    if args.dump:
        doc["ring"] = res.ring.to_dump_json(res.census)
    lines = [
        f"o = {o}, a = {a.label()}, |o/a| = {res.ring.size},"
        f" units {res.ring.unit_count}",
        f"closed form: {res.predicted.kind.symbol()}"
        f" (class {res.predicted.kind.value}),"
        f" witness {_witness_text(doc['predicted']['witness'])}",
        f"brute force: {poly_str(res.actual.coeffs)}",
        f"census: d2 = {res.census.d2},"
        f" order-2 elements {res.census.count}",
        verdict,
    ]
    if args.dump:
        lines.append(json.dumps(doc["ring"]))
    _emit(args, doc, lines)
    return 0 if res.match else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_nonnegative(args.max_norm, "max-norm")
    o = make_order(args.poly)
    summary = sweep_field(o, args.max_norm, cap=args.cap)
    doc = dict(summary.to_json(), poly=poly_str(o.poly),
               max_norm=args.max_norm)
    lines = [
        f"o = {o}, ideals of norm <= {args.max_norm}"
        f" on primes above p <= 13, exponents <= 8",
        f"cases: {summary.cases}, matches: {summary.matches}",
        "classes: " + ", ".join(f"{k}: {v}" for k, v in
                                sorted(summary.class_counts.items())),
    ]
    for mis in summary.mismatches:
        lines.append(f"MISMATCH at {mis['ideal']}:"
                     f" predicted {mis['predicted']},"
                     f" product {mis['product']}, census {mis['census']}")
    lines.append("all verified" if summary.ok else
                 f"{summary.cases - summary.matches} mismatches")
    _emit(args, doc, lines)
    return 0 if summary.ok else 1


def cmd_gauss(args: argparse.Namespace) -> int:
    _check_nonnegative(args.max_a, "max-a")
    if args.max_a > GAUSS_MAX_A:
        raise ParseError(f"--max-A must be at most {GAUSS_MAX_A}")
    minus = []
    disagreements = []
    for a_mod in range(2, args.max_a + 1):
        prod = gauss_product(a_mod)
        sign = classify_gauss(a_mod)
        brute_minus = prod == a_mod - 1 and a_mod > 2
        if brute_minus:
            minus.append(a_mod)
        if (sign == -1) != brute_minus:
            disagreements.append(a_mod)
    ok = not disagreements
    doc = {
        "max_A": args.max_a,
        "cases": args.max_a - 1,
        "minus_one": minus,
        "disagreements": disagreements,
        "ok": ok,
    }
    lines = [
        f"product over (Z/A)^x for 2 <= A <= {args.max_a}",
        f"-1 cases ({len(minus)}):"
        f" {', '.join(str(a) for a in minus)}",
        "closed form agrees with brute force" if ok else
        f"DISAGREEMENTS at {disagreements}",
    ]
    _emit(args, doc, lines)
    return 0 if ok else 1


def cmd_cyclo_demo(args: argparse.Namespace) -> int:
    _check_nonnegative(args.n_max, "n-max")
    if args.t < 2:
        raise ParseError("--t must be at least 2")
    if args.t > CYCLO_T_MAX:
        raise ParseError(f"--t must be at most {CYCLO_T_MAX}")
    m = 1 << (args.t - 1)
    o = make_order((1,) + (0,) * (m - 1) + (1,))
    factors = factor_prime(o, 2)
    if len(factors) != 1 or factors[0].e != m or factors[0].f != 1:
        raise InvariantViolation(
            f"2 is not totally ramified in {o}: {[str(pd) for pd in factors]}")
    pd = factors[0]
    expected = {1: ProductClass.ONE, 2: ProductClass.ONE_PLUS_PI,
                3: ProductClass.ONE_PLUS_PI_SQ}
    # |o/P^n| = 2^n: an n past the cap is refused before any ring below it
    # is walked, by the error the first such ring raises as it is built
    first_over = args.cap.bit_length()
    if args.n_max >= first_over:
        build_residue_ring(o, FactoredIdeal(((pd, first_over),)), cap=args.cap)
    rows = []
    ok = True
    ctx = OrderContext(o)
    for n in range(1, args.n_max + 1):
        res = verify_ideal(o, FactoredIdeal(((pd, n),)), cap=args.cap,
                           ctx=ctx, with_census=False)
        want = expected.get(n, ProductClass.ONE)
        good = res.match and res.predicted.kind is want
        ok = ok and good
        rows.append({
            "n": n,
            "class": res.predicted.kind.value,
            "expected": want.value,
            "witness": list(res.predicted.witness.coeffs),
            "product": list(res.actual.coeffs),
            "match": res.match,
        })
    doc = {"t": args.t, "poly": poly_str(o.poly),
           "prime": pd.to_json(), "rows": rows, "ok": ok}
    lines = [f"o = {o} (2-power cyclotomic, t = {args.t}),"
             f" (2) = P^{pd.e}, f = 1",
             "expected pattern: 1, 1+pi, 1+pi^2, then 1 forever"]
    for row in rows:
        verdict = "ok" if (row["match"] and row["class"] == row["expected"]) \
            else "UNEXPECTED"
        lines.append(f"  n={row['n']}: class {row['class']},"
                     f" product {poly_str(row['product'])} [{verdict}]")
    lines.append("pattern verified" if ok else "pattern FAILED")
    _emit(args, doc, lines)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not change
    it)."""
    parser = argparse.ArgumentParser(
        prog="wilsonprod",
        description="products of all units in residue rings of monogenic"
                    " orders: closed form and brute force")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        if poly:
            p.add_argument("--poly", required=True,
                           help="monic irreducible defining polynomial,"
                                " e.g. 'x^2+1' or '1,0,1'")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--cap", default=None,
                       help="enumeration cap on |o/a|"
                            " (default 2^20; env WILSON_CAP)")

    p = sub.add_parser("factor", help="factor a rational prime in the order")
    p.set_defaults(handler=cmd_factor)
    common(p)
    p.add_argument("--prime", required=True)

    p = sub.add_parser("classify", help="closed-form product class of o/a")
    p.set_defaults(handler=cmd_classify)
    common(p)
    p.add_argument("--ideal", help="factored form, e.g. '2^3; 5^1@0'")
    p.add_argument("--gen", help="principal ideal generator, e.g. 'x+1'")

    p = sub.add_parser("verify", help="closed form vs. brute force for one a")
    p.set_defaults(handler=cmd_verify)
    common(p)
    p.add_argument("--ideal")
    p.add_argument("--gen")
    p.add_argument("--dump", action="store_true",
                   help="include the full ring dump (elements, units, census)"
                        " of a ring of at most %d elements" % DUMP_CAP)

    p = sub.add_parser("sweep", help="verify all small ideals of the order")
    p.set_defaults(handler=cmd_sweep)
    common(p)
    p.add_argument("--max-norm", required=True)

    p = sub.add_parser("gauss", help="classical table over Z")
    p.set_defaults(handler=cmd_gauss)
    common(p, poly=False)
    p.add_argument("--max-A", dest="max_a", required=True,
                   help="largest modulus (at most %d)" % GAUSS_MAX_A)

    p = sub.add_parser("cyclo-demo",
                       help="2-power cyclotomic pattern 1, 1+pi, 1+pi^2, 1...")
    p.set_defaults(handler=cmd_cyclo_demo)
    common(p, poly=False)
    p.add_argument("--t", required=True,
                   help="conductor exponent (2 <= t <= %d; degree is"
                        " 2^(t-1))" % CYCLO_T_MAX)
    p.add_argument("--n-max", dest="n_max", default=6)

    return parser


def _resolve_cap(cap: int | None) -> int:
    if cap is None:
        env = os.environ.get("WILSON_CAP")
        try:
            cap = DEFAULT_CAP if env is None else int(env)
        except ValueError:
            raise ParseError(f"WILSON_CAP must be an integer, got {env!r}")
    if cap < 2:
        raise ParseError(f"cap must be at least 2, got {cap}")
    return cap


def _parse_int_flags(args: argparse.Namespace) -> None:
    for dest, flag in INT_FLAGS.items():
        value = getattr(args, dest, None)
        if isinstance(value, str):
            try:
                setattr(args, dest, int(value))
            except ValueError:  # not an integer, or beyond the digit limit
                shown = value if len(value) <= 40 else value[:40] + "..."
                raise ParseError(
                    f"{flag} must be an integer, got {shown!r}") from None


def _check_nonnegative(value: int, flag: str) -> None:
    if value < 0:
        raise ParseError(f"{flag} must be positive")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse_int_flags(args)
        args.cap = _resolve_cap(args.cap)
        return args.handler(args)
    except WilsonError as exc:
        print(json.dumps({"error": {"type": exc.code, "message": str(exc)}}))
        return 2
    except Exception as exc:
        # a defect, not a bad input: keep the traceback on stderr and still
        # answer with one JSON error
        traceback.print_exc()
        message = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": {"type": "internal_error",
                                    "message": message}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
