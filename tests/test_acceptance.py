"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with pytest -s).  All quantities are exact integers, so
every comparison is equality, no tolerances anywhere.
"""

import json
import math
import random

from takahashi.exactalg import (
    AbelianGroup,
    BigIntMatrix,
    IntPoly,
    Rational,
    circulant_of_poly,
    determinant,
    resultant,
    smith_normal_form,
)
from takahashi.grouppres import relator_identity_check
from takahashi.knotkit import (
    BraidWord3,
    TwoBridge,
    alexander_from_braid3,
    alexander_two_bridge,
    branched_cover_homology,
    branched_cover_order,
    normalize_two_bridge,
    two_bridge_equivalent,
)
from takahashi.claims import UNVERIFIED
from takahashi.manifolds import (
    base_space_h1,
    cross_check_prop4,
    h1_cyclic_route,
    h1_takahashi,
    normalize_spec,
    symmetry_check,
)

from oracles import cofactor_det


def report(cid, ok, detail=""):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid} failed: {detail}"


def grid_rationals(bound):
    vals = {}
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or math.gcd(p, q) != 1:
                continue
            r = Rational(p, q)
            if r.num == 0:
                r = Rational(0, 1)
            vals[(r.num, r.den)] = r
    return sorted(vals.values(), key=lambda v: (v.num, v.den))


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


def test_criterion_4_rational_braid_unverified(verify_paper_json):
    claims = {c["claimId"]: c for c in json.loads(verify_paper_json[1])["claims"]}
    status = claims["R1-rational-135"]["status"]
    report("4-rational-braid-135-unverified", status == UNVERIFIED, f"status = {status}")


def test_criterion_5_lemma1_grid():
    grid = grid_rationals(3)
    bad = 0
    for a in grid:
        for b in grid:
            spec = normalize_spec(1, a, b)
            if h1_takahashi(spec) != base_space_h1(spec.pq, spec.rs):
                bad += 1
    trivial = all(
        h1_takahashi(normalize_spec(1, Rational(1, q), Rational(1, s))).is_trivial
        for q in range(-3, 4)
        for s in range(-3, 4)
    )
    report("5-lemma1-grid", bad == 0 and trivial,
           f"{len(grid) ** 2} pairs, {bad} mismatches")


def test_criterion_6_prop4_grid():
    bad = []
    for q in range(-3, 4):
        for s in range(-3, 4):
            for n in range(2, 7):
                if not cross_check_prop4(q, s, n):
                    bad.append((q, s, n))
    report("6-prop4-grid", not bad, f"245 points, mismatches: {bad}")


def test_criterion_7_schubert_congruence():
    bad = []
    for q in range(-5, 6):
        for s in range(-5, 6):
            alpha = abs(4 * s * q - 1)
            if alpha < 2:
                continue
            k1 = normalize_two_bridge(alpha, 2 * s)
            k2 = normalize_two_bridge(alpha, 2 * q)
            if not two_bridge_equivalent(k1, k2, allow_mirror=False):
                bad.append((q, s))
    report("7-schubert-2s-2q", not bad, f"mismatches: {bad}")


def test_criterion_8_symmetry_grid():
    grid = grid_rationals(3)
    bad = 0
    for n in range(1, 6):
        for a in grid:
            for b in grid:
                if not symmetry_check(normalize_spec(n, a, b)):
                    bad += 1
    report("8-symmetry-grid", bad == 0, f"{5 * len(grid) ** 2} specs, {bad} failures")


def test_criterion_9_word_identity_suite():
    bad = []
    for n in range(1, 6):
        for p in range(-3, 4):
            for q in range(-3, 4):
                for s in (-3, -2, -1, 1, 2, 3):
                    if not relator_identity_check(n, p, q, s):
                        bad.append((n, p, q, s))
    report("9-word-identities", not bad, f"1470 cases, failures: {bad}")


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
        assert abs(determinant(circulant_of_poly(f, n))) == abs(resultant(f, tn))
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
