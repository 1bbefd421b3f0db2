"""Command-line frontend.

Subcommands: h1, presentation, branch-knot, cover-order, two-bridge-equiv,
braid-alexander, verify-paper, conjecture-scan.  Every command accepts
--json for a single machine-readable document on stdout.

Each cmd_* computes its answer once and returns a Result: the exit code,
the JSON document, and a zero-argument function that builds the text
lines.  Only main writes to stdout, and only main reads --json: it prints
json.dumps of the document, or else calls the function and prints its
lines, so under --json no text (and no str of a large order) is built.
Exit codes: 0 success (all claims pass), 1 claim failure, 2 usage error,
3 internal self-check failure (a bug, reported on one line, not as a
traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from collections import Counter
from typing import Callable

from .claims import FAIL, PASS, UNVERIFIED, grid_specs, run_claims
from .exactalg import AbelianGroup, IntPoly, Rational
from .grouppres import cyclic_presentation, takahashi_presentation
from .knotkit import (
    BraidWord3,
    alexander_from_braid3,
    alexander_two_bridge,
    branched_cover_homology,
    normalize_two_bridge,
    two_bridge_equivalent,
)
from .manifolds import branch_knot, h1_transfer, normalize_spec

__all__ = ["main", "entry"]

Result = tuple[int, dict, Callable[[], list[str]]]


def rational_arg(text: str) -> Rational:
    """Parse p/q with optional signs, a bare integer k as k/1, or inf."""
    s = text.strip()
    if s.lower() in ("inf", "+inf", "-inf"):
        return Rational(1, 0)
    if "/" in s:
        a, b = s.split("/", 1)
        return Rational(int(a), int(b))
    return Rational(int(s), 1)


def poly_pretty(p: IntPoly) -> str:
    if p.is_zero:
        return "0"
    terms = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms)


def word_pretty(w, prefix: str) -> str:
    return " ".join(
        f"{prefix}{g + 1}" + ("" if e == 1 else f"^{e}") for g, e in w.letters
    )


def spec_fields(spec) -> dict:
    return {"n": spec.n, "pq": str(spec.pq), "rs": str(spec.rs)}


def group_fields(g: AbelianGroup) -> dict:
    return {"torsion": list(g.torsion), "freeRank": g.free_rank, "order": g.order()}


def group_lines(g: AbelianGroup) -> list[str]:
    order = g.order()
    return [f"H1 = {g}",
            "invariant factors: " + (" ".join(str(d) for d in g.torsion) or "-"),
            f"free rank: {g.free_rank}",
            f"order: {'infinite' if order is None else order}"]


def cmd_h1(args) -> Result:
    spec = normalize_spec(args.n, args.pq, args.rs)
    g = h1_transfer(spec)
    return 0, {**spec_fields(spec), **group_fields(g)}, lambda: [str(spec), *group_lines(g)]


def cmd_presentation(args) -> Result:
    spec = normalize_spec(args.n, args.pq, args.rs)
    if args.cyclic:
        if spec.rs.num != 1:
            raise ValueError(
                f"--cyclic needs a second coefficient of the form 1/s, got {spec.rs}"
            )
        pres = cyclic_presentation(spec.n, spec.pq.num, spec.pq.den, spec.rs.den)
        prefix = "z"
    else:
        pres = takahashi_presentation(spec.n, spec.pq, spec.rs)
        prefix = "x"
    gens = [f"{prefix}{i + 1}" for i in range(pres.generator_count)]
    relators = [word_pretty(r, prefix) for r in pres.relators]
    doc = {**spec_fields(spec), "cyclic": bool(args.cyclic),
           "generators": gens, "relators": relators}
    return 0, doc, lambda: [str(spec), "generators: " + " ".join(gens),
                            *(f"relator: {r or '(empty)'}" for r in relators)]


_KNOT_NOTES = {(1, 0): "unknot", (3, 1): "trefoil", (3, 2): "trefoil",
               (5, 2): "figure-eight", (5, 3): "figure-eight"}


def cmd_branch_knot(args) -> Result:
    k = branch_knot(args.q, args.s)
    conway = [-2 * args.q, 2 * args.s]
    k2q = normalize_two_bridge(k.alpha, 2 * args.q)
    equivalent = two_bridge_equivalent(k, k2q, allow_mirror=True)
    note = _KNOT_NOTES.get((k.alpha, k.beta))
    doc = {"q": args.q, "s": args.s, "alpha": k.alpha, "beta": k.beta, "conway": conway,
           "beta2q": k2q.beta, "equivalent": equivalent, "note": note}
    return 0, doc, lambda: [f"branch knot: {k}", f"conway form: {conway}",
                            f"equivalent to {k2q}: {'yes' if equivalent else 'no'}",
                            *([f"note: {note}"] if note else [])]


def cmd_cover_order(args) -> Result:
    k = normalize_two_bridge(args.alpha, args.beta)
    if not k.is_knot:
        raise ValueError(f"alpha must be odd (a knot); {k} is a two-component link")
    g = branched_cover_homology(alexander_two_bridge(k), args.n)
    doc = {"alpha": k.alpha, "beta": k.beta, "n": args.n, **group_fields(g)}
    return 0, doc, lambda: [f"{args.n}-fold cyclic branched cover of {k}", *group_lines(g)]


def cmd_two_bridge_equiv(args) -> Result:
    k1 = normalize_two_bridge(args.alpha1, args.beta1)
    k2 = normalize_two_bridge(args.alpha2, args.beta2)
    equivalent = two_bridge_equivalent(k1, k2, allow_mirror=args.mirror)
    doc = {"first": {"alpha": k1.alpha, "beta": k1.beta},
           "second": {"alpha": k2.alpha, "beta": k2.beta},
           "mirror": args.mirror, "equivalent": equivalent}
    rel = "equivalent" if equivalent else "not equivalent"
    scope = "up to mirror" if args.mirror else "strictly"
    return 0, doc, lambda: [f"{k1} and {k2} are {rel} ({scope})"]


def cmd_braid_alexander(args) -> Result:
    letters = []
    for chunk in args.word:
        letters.extend(int(x) for x in chunk.split())
    delta = alexander_from_braid3(BraidWord3(tuple(letters))).poly
    pretty = poly_pretty(delta)
    doc = {"word": letters, "coefficients": list(delta.coeffs), "pretty": pretty}
    return 0, doc, lambda: [f"Delta = {pretty}",
                            f"coefficients (lowest degree first): {list(delta.coeffs)}"]


def cmd_verify_paper(args) -> Result:
    reports = run_claims()
    tally = Counter(r.status for r in reports)
    doc = {"claims": [{"claimId": r.claim_id, "description": r.description,
                       "expected": r.expected, "computed": r.computed, "status": r.status}
                      for r in reports],
           "failures": tally[FAIL]}

    def text():
        wid = max(len(r.claim_id) for r in reports)
        wstat = max(len(r.status) for r in reports)
        return [*(f"{r.claim_id:<{wid}}  {r.status:<{wstat}}  "
                  f"expected: {r.expected} | computed: {r.computed}" for r in reports),
                f"{tally[PASS]} passed, {tally[FAIL]} failed, "
                f"{tally[UNVERIFIED]} unverified by design"]

    return (1 if tally[FAIL] else 0), doc, text


def cmd_conjecture_scan(args) -> Result:
    if args.grid_max < 1:
        raise ValueError("--grid-max must be at least 1")
    if args.n_max < 2:
        raise ValueError("--n-max must be at least 2: the scan starts at n = 2")
    rows = [{**spec_fields(spec), **group_fields(h1_transfer(spec)),
             "pOneROne": spec.pq.num == 1 and spec.rs.num == 1}
            for spec in grid_specs(args.grid_max, range(2, args.n_max + 1))]

    def text():
        lines = [f"{'n':>2}  {'p/q':>6}  {'r/s':>6}  {'order':>10}  {'torsion':<16} p=1=r"]
        for row in rows:
            order = "infinite" if row["order"] is None else str(row["order"])
            torsion = " ".join(str(d) for d in row["torsion"]) or "-"
            if row["freeRank"]:
                torsion += f" +Z^{row['freeRank']}"
            mark = "*" if row["pOneROne"] else ""
            lines.append(f"{row['n']:>2}  {row['pq']:>6}  {row['rs']:>6}  {order:>10}  "
                         f"{torsion:<16} {mark}")
        return lines

    return 0, {"nMax": args.n_max, "gridMax": args.grid_max, "rows": rows}, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="takahashi",
        description="Exact homology invariants of periodic Takahashi 3-manifolds "
        "M_n(p/q, r/s) and their branching knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a single JSON document")

    p = sub.add_parser("h1", help="first homology of M_n(p/q, r/s)")
    p.add_argument("n", type=int)
    p.add_argument("pq", type=rational_arg)
    p.add_argument("rs", type=rational_arg)
    add_json(p)
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("presentation", help="fundamental group presentation")
    p.add_argument("n", type=int)
    p.add_argument("pq", type=rational_arg)
    p.add_argument("rs", type=rational_arg)
    p.add_argument("--cyclic", action="store_true",
                   help="n-generator cyclic presentation (needs r = 1)")
    add_json(p)
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("branch-knot", help="branching knot of M_n(1/q, 1/s)")
    p.add_argument("q", type=int)
    p.add_argument("s", type=int)
    add_json(p)
    p.set_defaults(func=cmd_branch_knot)

    p = sub.add_parser("cover-order", help="H1 of the n-fold cyclic branched cover of b(alpha, beta)")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.add_argument("n", type=int)
    add_json(p)
    p.set_defaults(func=cmd_cover_order)

    p = sub.add_parser("two-bridge-equiv", help="Schubert equivalence of two-bridge classes")
    p.add_argument("alpha1", type=int)
    p.add_argument("beta1", type=int)
    p.add_argument("alpha2", type=int)
    p.add_argument("beta2", type=int)
    p.add_argument("--mirror", action=argparse.BooleanOptionalAction, default=True,
                   help="allow mirror images (default: on)")
    add_json(p)
    p.set_defaults(func=cmd_two_bridge_equiv)

    p = sub.add_parser("braid-alexander",
                       help="Alexander polynomial of a 3-braid closure, e.g. \"1 1 1 2\"")
    p.add_argument("word", nargs="+",
                   help="whitespace-separated letters; 1, -1, 2, -2 mean "
                        "sigma_1, sigma_1^-1, sigma_2, sigma_2^-1")
    add_json(p)
    p.set_defaults(func=cmd_braid_alexander)

    p = sub.add_parser("verify-paper", help="run the built-in claims suite")
    add_json(p)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("conjecture-scan", help="H1 table over a coefficient grid")
    p.add_argument("--grid-max", type=int, default=2, metavar="K",
                   help="coefficient entry bound, at least 1 (default 2)")
    p.add_argument("--n-max", type=int, default=4, metavar="N",
                   help="largest n to scan, at least 2 (default 4)")
    add_json(p)
    p.set_defaults(func=cmd_conjecture_scan)

    return parser


# A negative coefficient such as -2/3 or -inf, which argparse would read
# as an option: it only takes -k for a positional.
_NEGATIVE_COEFFICIENT = re.compile(r"-(inf|\d+(/[+-]?\d+)?)", re.IGNORECASE)


def _coefficients_as_positionals(argv: list[str]) -> list[str]:
    """Let h1 and presentation take negative coefficients without "--".

    Their options are all flags, so the options move to the front and the
    positionals follow a "--"; any other command line is left alone.
    """
    if argv[:1] not in (["h1"], ["presentation"]) or "--" in argv:
        return argv
    options, positionals = [], []
    for a in argv[1:]:
        if a.startswith("-") and not _NEGATIVE_COEFFICIENT.fullmatch(a):
            options.append(a)
        else:
            positionals.append(a)
    return [argv[0], *options, "--", *positionals]


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's int <-> str digit limit for one call: an order can pass
    4300 digits.  Interpreters before 3.10.7 have no limit to lift."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with _unlimited_int_digits():
        args = build_parser().parse_args(_coefficients_as_positionals(argv))
        try:
            code, doc, text = args.func(args)
            print(json.dumps(doc) if args.json else "\n".join(text()))
            return code
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (AssertionError, ArithmeticError) as exc:
            # a failed self-check, such as branch_knot's Conway-form test or
            # the Burau route's exact division
            print(f"error: internal check failed: {exc}", file=sys.stderr)
            return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
