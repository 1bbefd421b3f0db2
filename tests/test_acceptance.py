"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with pytest -s).  All quantities are exact integers, so
every comparison is equality, no tolerances anywhere.
"""

import json
import math
import random

from takahashi.exactalg import (
    BigIntMatrix,
    IntPoly,
    Rational,
    determinant,
    multiplication_matrix,
    resultant,
    smith_normal_form,
)
from takahashi.knotkit import (
    BraidWord3,
    TwoBridge,
    alexander_from_braid3,
    alexander_two_bridge,
    branched_cover_homology,
)
from takahashi.claims import PASS, UNVERIFIED, grid_rationals
from takahashi.manifolds import (
    h1_cyclic_route,
    h1_takahashi,
    normalize_spec,
)

from oracles import cofactor_det


def report(cid, ok, detail=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid} failed: {detail}"


def test_criterion_1_order_1296():
    g = h1_takahashi(normalize_spec(3, Rational(3, 1), Rational(-3, 1)))
    report("1-M3(3,-3)-order-1296", g.order() == 1296, f"|H1| = {g.order()}")


def test_criterion_2_order_15_both_routes():
    spec = normalize_spec(4, Rational(3, 2), Rational(1, 1))
    g_snf = h1_takahashi(spec)
    g_cyc = h1_cyclic_route(spec)
    ok = g_snf.order() == 15 and g_snf == g_cyc
    report("2-M4(3/2,1)-order-15-both-routes", ok,
           f"surgery {g_snf}, cyclic {g_cyc}")


def test_criterion_3_braid_cover_256():
    braid = BraidWord3((1, 1, 1, -2, -2, -2) * 2)
    delta = alexander_from_braid3(braid)
    order = abs(resultant(delta.poly, IntPoly((1, 1, 1))))
    report("3-braid-3fold-cover-256", order == 256, f"|Res(Delta, 1+t+t^2)| = {order}")


def claim(verify_paper_json, claim_id):
    return {c["claimId"]: c for c in json.loads(verify_paper_json[1])["claims"]}[claim_id]


def report_passed_claim(cid, c, computed):
    report(cid, c["status"] == PASS and c["computed"] == computed,
           f"{c['status']}: {c['computed']}")


def test_criterion_4_rational_braid_unverified(verify_paper_json):
    status = claim(verify_paper_json, "R1-rational-135")["status"]
    report("4-rational-braid-135-unverified", status == UNVERIFIED, f"status = {status}")


def test_criterion_5_lemma1_grid(verify_paper_json):
    # the L1 grid is every pair of the 16 reduced coefficients bounded by 3
    assert len(grid_rationals(3)) ** 2 == 256
    trivial = all(
        h1_takahashi(normalize_spec(1, Rational(1, q), Rational(1, s))).is_trivial
        for q in range(-3, 4)
        for s in range(-3, 4)
    )
    assert trivial, "M_1(1/q, 1/s) must be trivial"
    report_passed_claim("5-lemma1-grid", claim(verify_paper_json, "L1-grid"),
                        "256 of 256 pairs agree")


def test_criterion_6_prop4_grid(verify_paper_json):
    report_passed_claim("6-prop4-grid", claim(verify_paper_json, "P4-grid"),
                        "245 of 245 points agree")


def test_criterion_7_schubert_congruence(verify_paper_json):
    report_passed_claim("7-schubert-2s-2q", claim(verify_paper_json, "SCHUBERT-2s2q"),
                        "100 of 100 pairs equivalent")


def test_criterion_8_symmetry_grid(verify_paper_json):
    assert 5 * len(grid_rationals(3)) ** 2 == 1280
    report_passed_claim("8-symmetry-grid", claim(verify_paper_json, "SYM-grid"),
                        "1280 of 1280 specs invariant")


def test_criterion_9_word_identity_suite(verify_paper_json):
    report_passed_claim("9-word-identities", claim(verify_paper_json, "EQ1-identity"),
                        "1470 of 1470 identities hold")


def test_criterion_10_oracle_property_suites():
    rng = random.Random(101)
    # Smith normal form: divisibility chain and determinant preservation
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        facs = smith_normal_form(BigIntMatrix.from_rows(rows)).invariant_factors
        nonzero = [d for d in facs if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        if nr == nc:
            det = cofactor_det(rows)
            if det == 0:
                assert len(nonzero) < nr
            else:
                assert math.prod(nonzero) == abs(det)
    # resultant-circulant identity
    done = 0
    while done < 100:
        f = IntPoly(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5))))
        if f.is_zero:
            continue
        n = rng.randint(1, 6)
        tn = IntPoly((-1,) + (0,) * (n - 1) + (1,))
        assert abs(determinant(multiplication_matrix(f, tn))) == abs(resultant(f, tn))
        done += 1
    # Burau and Fox agree on the listed pairs
    pairs = [
        ((1, 1, 1, 2), TwoBridge(3, 1)),
        ((1, -2, 1, -2), TwoBridge(5, 3)),
        ((1, 1, 1, 1, 1, 2), TwoBridge(5, 1)),
    ]
    for letters, knot in pairs:
        assert alexander_from_braid3(BraidWord3(letters)).poly == alexander_two_bridge(knot).poly
    # double-cover law: |H1| of the double branched cover equals alpha
    for alpha in range(1, 26, 2):
        betas = range(1, alpha) if alpha > 1 else [0]
        for beta in betas:
            if alpha > 1 and math.gcd(alpha, beta) != 1:
                continue
            k = TwoBridge(alpha, beta)
            g = branched_cover_homology(alexander_two_bridge(k), 2)
            assert g.order() == alpha, (k, g)
    report("10-oracle-property-suites", True,
           "SNF x200, circulant x100, pipeline x3, double covers")
