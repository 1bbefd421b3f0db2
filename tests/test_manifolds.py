import math
import random
from collections import Counter

import pytest

from takahashi import claims, grouppres
from takahashi.claims import grid_specs
from takahashi.exactalg import (
    AbelianGroup,
    IntPoly,
    Rational,
    cokernel,
    cyclotomic_quotient,
    determinant,
    multiplication_matrix,
    resultant,
)
from takahashi.grouppres import (
    abelianize,
    cyclic_presentation,
    representer_polynomial,
    takahashi_matrix,
    takahashi_presentation,
)
from takahashi.knotkit import (
    TwoBridge,
    alexander_two_bridge,
    branched_cover_homology,
    branched_cover_order,
)
from takahashi.manifolds import (
    TakahashiSpec,
    base_space_h1,
    branch_knot,
    h1_cyclic_route,
    h1_takahashi,
    h1_transfer,
    normalize_spec,
    representer_order,
    symmetry_variants,
    takahashi_determinant,
)

from oracles import crt_det, gcd_pivot_snf, rank_mod_p, takahashi_blocks


def t_n_minus_1(n):
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


# -------------------------------------------------------------- normalization

def test_normalize_moves_sign_to_denominator():
    spec = normalize_spec(3, Rational(-3, 1), Rational(3, 1))
    assert (spec.pq.num, spec.pq.den) == (3, -1)
    assert (spec.rs.num, spec.rs.den) == (3, 1)


def test_normalize_reduces_fractions():
    spec = normalize_spec(2, Rational(4, 6), Rational(1, 2))
    assert (spec.pq.num, spec.pq.den) == (2, 3)


def test_normalize_canonicalizes_infinity_and_zero():
    spec = normalize_spec(5, Rational(-1, 0), Rational(0, -1))
    assert (spec.pq.num, spec.pq.den) == (1, 0)
    assert (spec.rs.num, spec.rs.den) == (0, 1)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_spec(0, Rational(1, 1), Rational(1, 1))
    with pytest.raises(ValueError):
        Rational(0, 0)
    with pytest.raises(ValueError):
        TakahashiSpec(2, Rational(-1, 2), Rational(1, 1))


def test_spec_str():
    assert str(normalize_spec(3, Rational(3, 1), Rational(-3, 1))) == "M_3(3, 3/-1)"


# ------------------------------------------------------------------ homology

def test_h1_order_1296():
    g = h1_takahashi(normalize_spec(3, Rational(3, 1), Rational(-3, 1)))
    assert g.order() == 1296
    # independent structure check: the relation matrix has rank 4 over F_2
    # and over F_3, so exactly two invariant factors are divisible by 6
    m = abelianize(takahashi_presentation(3, Rational(3, 1), Rational(3, -1)))
    assert rank_mod_p(m.to_lists(), 2) == 4
    assert rank_mod_p(m.to_lists(), 3) == 4
    assert g == AbelianGroup((36, 36))


def test_h1_order_15_both_routes():
    spec = normalize_spec(4, Rational(3, 2), Rational(1, 1))
    g1 = h1_takahashi(spec)
    g2 = h1_cyclic_route(spec)
    assert g1.order() == 15
    assert g1 == g2 == AbelianGroup((15,))


def test_h1_n1_is_lens_space_sum():
    spec = normalize_spec(1, Rational(3, 1), Rational(6, 1))
    assert h1_takahashi(spec) == AbelianGroup((3, 6))


def test_cyclic_route_requires_r_one():
    with pytest.raises(ValueError):
        h1_cyclic_route(normalize_spec(2, Rational(1, 1), Rational(2, 1)))


def test_cyclic_route_examples():
    assert h1_cyclic_route(normalize_spec(3, Rational(1, 1), Rational(1, -1))).order() == 16
    assert h1_cyclic_route(normalize_spec(1, Rational(5, 2), Rational(1, 3))) == AbelianGroup((5,))


def test_cyclic_route_matches_surgery_route():
    # the free rank must be an int, not the bool of det == 0, which
    # AbelianGroup equality alone would not tell apart
    for n in range(1, 9):
        for p in range(-4, 5):
            for q in range(-4, 5):
                if math.gcd(p, q) != 1:
                    continue
                for s in range(-4, 5):
                    spec = normalize_spec(n, Rational(p, q), Rational(1, s))
                    group = h1_cyclic_route(spec)
                    assert h1_takahashi(spec) == group and type(group.free_rank) is int
    # M_n(0, 1) = Z/n + Z: the closed 2 x 2 form meets det = 0 with d1 = n
    for n in range(5, 8):
        assert h1_cyclic_route(normalize_spec(n, Rational(0, 1), Rational(1, 1))) == AbelianGroup((n,), 1)


def test_cyclic_route_matches_abelianized_cyclic_presentation():
    # the route reads the representer polynomial, not the relators; s = 0
    # (r/s infinite) included
    for n in range(1, 7):
        for p in range(0, 4):
            for q in range(-3, 4):
                if math.gcd(p, q) != 1:
                    continue
                for s in range(-3, 4):
                    spec = normalize_spec(n, Rational(p, q), Rational(1, s))
                    pres = cyclic_presentation(n, spec.pq.num, spec.pq.den, spec.rs.den)
                    assert h1_cyclic_route(spec) == cokernel(abelianize(pres))


def test_unit_family_smith_forms_match_gcd_pivot_oracle(monkeypatch):
    # the matrices each route of M_n(+-1, +-1) hands to the Smith form or
    # to the closed form of M^n - u^n I, and the n-square circulant and
    # (n - 1)-square cover matrices built explicitly, since the routes
    # reduce the degree-2 side; all against the plain reduction
    from takahashi import exactalg

    real, real_power = exactalg.smith_normal_form, exactalg.smith_power_2x2
    checked, checked_power = [], []

    def checking(m):
        snf = real(m)
        assert snf.invariant_factors == gcd_pivot_snf(m.to_lists(), m.ncols), m
        checked.append(m)
        return snf

    def checking_power(m, u, n):
        # u = +-1 on the unit family, so no prime is removed
        factors = real_power(m, u, n)
        a, b, c, d = exactalg._power_2x2(m, n)
        assert u in (1, -1), (m, u, n)
        assert factors == gcd_pivot_snf([[a - u**n, b], [c, d - u**n]], 2), (m, u, n)
        checked_power.append((m, u, n))
        return factors

    monkeypatch.setattr(exactalg, "smith_normal_form", checking)
    monkeypatch.setattr(exactalg, "smith_power_2x2", checking_power)
    for n in range(1, 41):
        for a in (1, -1):
            for b in (1, -1):
                spec = normalize_spec(n, Rational(a, 1), Rational(b, 1))
                h1_takahashi(spec)
                h1_cyclic_route(spec)
                delta = alexander_two_bridge(branch_knot(spec.pq.den, spec.rs.den))
                branched_cover_homology(delta, n)
                rep = representer_polynomial(n, spec.pq.num, spec.pq.den, spec.rs.den)
                cokernel(multiplication_matrix(rep, t_n_minus_1(n)))
                cokernel(multiplication_matrix(delta.poly, cyclotomic_quotient(n)))
    # three routes and two explicit matrices per spec.  The Alexander
    # polynomial is a palindromic quadratic, so the cover route takes
    # M^n - u^n I for n >= 2 (39 n) and at n = 1 reads Z/|Delta(1)| with no
    # reduction at all; the cyclic route takes it once the representer is
    # a palindromic quadratic, n >= 3 (38 n).  At n = 2 the representer is
    # linear with leading coefficient +-2, so the route takes the 2 x 2
    # circulant, and at n = 1 it is the unit 1, whose 0 x 0 matrix is
    # reduced.  So the Smith forms are the surgery matrix and the two
    # explicit matrices at every n, and the cyclic route at n = 1 and 2
    assert len(checked_power) == 4 * (39 + 38)
    assert len(checked) == 4 * (3 * 40 + 2)


def test_homology_routes_build_no_words(monkeypatch):
    spec = normalize_spec(5, Rational(3, 2), Rational(1, -2))

    def routes():
        return (h1_takahashi(spec), takahashi_determinant(spec), h1_cyclic_route(spec),
                representer_order(spec), grouppres.relator_identity_check(5, 3, 2, -2),
                h1_transfer(spec))

    expected = routes()
    delta = alexander_two_bridge(branch_knot(1, -1))  # Fox calculus needs Words

    def no_words(self):
        raise AssertionError("a Word was built")

    monkeypatch.setattr(grouppres.Word, "__post_init__", no_words)
    with pytest.raises(AssertionError):
        takahashi_presentation(1, Rational(1, 1), Rational(1, 1))
    assert routes() == expected
    assert expected[4]
    assert branched_cover_homology(delta, 5) == AbelianGroup((11, 11))


def test_determinant_identity_r_one_family():
    for n in range(1, 7):
        for p in range(-3, 4):
            for q in range(-3, 4):
                if math.gcd(p, q) != 1:
                    continue
                for s in range(-3, 4):
                    spec = normalize_spec(n, Rational(p, q), Rational(1, s))
                    g = h1_takahashi(spec)
                    det = abs(takahashi_determinant(spec))
                    res = representer_order(spec)
                    assert res == g.order()
                    if g.is_finite:
                        assert g.order() == det
                    else:
                        assert det == 0


def bareiss(spec):
    return determinant(takahashi_matrix(spec.n, spec.pq, spec.rs))


def test_takahashi_determinant_is_the_signed_bareiss_determinant():
    for spec in grid_specs(3, range(1, 13)):
        assert takahashi_determinant(spec) == bareiss(spec), spec


def test_takahashi_determinant_signed_random():
    rng = random.Random(20261018)
    checked = 0
    while checked < 2000:
        p, q, r, s = (rng.randint(-30, 30) for _ in range(4))
        if math.gcd(p, q) != 1 or math.gcd(r, s) != 1:
            continue
        spec = normalize_spec(rng.randint(1, 25), Rational(p, q), Rational(r, s))
        matrix = takahashi_matrix(spec.n, spec.pq, spec.rs).to_lists()
        assert takahashi_determinant(spec) == crt_det(matrix), spec
        checked += 1


def test_takahashi_determinant_sign_with_an_infinite_coefficient():
    # qs = 0 leaves det A(t) = pr t of degree 1, and det = (-1)^(n+1) (pr)^n;
    # resultant(det A, t^n - 1) would flip the sign at odd n
    for n, pq, rs, det in ((3, Rational(1, 0), Rational(2, 1), 8),
                           (5, Rational(3, 1), Rational(1, 0), 243),
                           (4, Rational(1, 0), Rational(2, 1), -16)):
        spec = normalize_spec(n, pq, rs)
        assert takahashi_determinant(spec) == bareiss(spec) == det


def test_determinant_polynomial_is_that_of_the_blocks():
    # det(A0 + A1 t) of the blocks that h1_takahashi's matrix repeats is
    # qs t^2 + (pr - 2qs) t + qs, the polynomial takahashi_determinant reads
    # off the spec, and the Lucas sequence gives its resultant with t^n - 1
    for spec in grid_specs(4, range(1, 13)):
        (a0, b0), (c0, d0), (a1, b1), (c1, d1) = (
            row for block in takahashi_blocks(spec.pq, spec.rs) for row in block)
        f = IntPoly((a0 * d0 - b0 * c0, a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0, a1 * d1 - b1 * c1))
        qs, pr = spec.pq.den * spec.rs.den, spec.pq.num * spec.rs.num
        assert f == IntPoly((qs, pr - 2 * qs, qs)), spec
        assert takahashi_determinant(spec) == resultant(t_n_minus_1(spec.n), f), spec


def lucas(k):
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_takahashi_determinant_fibonacci_family_large_n():
    # |det| = L_2n - 2 at n = 10^4, a 20000 x 20000 matrix Bareiss cannot reach
    n = 10_000
    spec = normalize_spec(n, Rational(1, 1), Rational(-1, 1))
    assert abs(takahashi_determinant(spec)) == lucas(2 * n) - 2 == representer_order(spec)


def lucas_by_doubling(k):
    # L_2j = L_j^2 - 2 (-1)^j and L_(2j+1) = L_j L_(j+1) - (-1)^j, over the
    # bits of k from the top, with (a, b) = (L_j, L_(j+1))
    a, b, j = 2, 1, 0
    for bit in bin(k)[2:]:
        sign = -1 if j & 1 else 1
        a, b, j = a * a - 2 * sign, a * b - sign, 2 * j
        if bit == "1":
            a, b, j = b, a + b, j + 1
    return a


def test_takahashi_determinant_fibonacci_family_by_doubling():
    # det = (-1)^(n+1) (L_2n - 2) on M_n(1, -1): Bareiss pins the sign at
    # small n, and lucas_by_doubling gives L_2n at n = 10^5
    for n in list(range(1, 13)) + [100_000]:
        spec = normalize_spec(n, Rational(1, 1), Rational(-1, 1))
        det = takahashi_determinant(spec)
        assert det == (-1) ** (n + 1) * (lucas_by_doubling(2 * n) - 2), n
        if n < 13:
            assert det == bareiss(spec)


def test_small_side_routes_fibonacci_family_large_n():
    # H_1(M_n(1, -1)) is the homology of the n-fold cover branched over the
    # figure-eight, Delta = t^2 - 3t + 1; both routes take the closed form
    # of a 2 x 2 power by doubling where the n x n matrix takes seconds, so
    # n = 10^5 takes well under a second
    assert [lucas_by_doubling(k) for k in range(100)] == [lucas(k) for k in range(100)]
    delta = alexander_two_bridge(TwoBridge(5, 3))
    assert delta.poly == IntPoly((1, -3, 1))
    for n in (10_000, 100_000):
        spec = normalize_spec(n, Rational(1, 1), Rational(-1, 1))
        group = branched_cover_homology(delta, n)
        assert group == h1_cyclic_route(spec)
        assert group.order() == lucas_by_doubling(2 * n) - 2


# H_1(M_n(1, 1)) by n mod 6, as (torsion, free rank): the n-fold cyclic
# branched covers of the trefoil
TREFOIL_H1 = {1: ((), 0), 2: ((3,), 0), 3: ((2, 2), 0), 4: ((3,), 0), 5: ((), 0), 0: ((), 2)}


@pytest.mark.parametrize("n", [1000, 2000, 10_000])
def test_surgery_route_on_the_unit_family_at_large_n(n):
    # the Smith form visits only nonzeros, so the 2n x 2n surgery matrix
    # reduces in well under a second at n = 10^4
    for a in (1, -1):
        for b in (1, -1):
            spec = normalize_spec(n, Rational(a, 1), Rational(b, 1))
            group = h1_takahashi(spec)
            assert group == h1_cyclic_route(spec), spec
            if a * b < 0:  # qs = -1
                assert group.order() == lucas(2 * n) - 2, spec
            else:
                assert (group.torsion, group.free_rank) == TREFOIL_H1[n % 6], spec


def test_surgery_route_infinite_coefficient_at_large_n():
    # M_n(inf, 3) = (Z/3)^n: n equal factors, which pairwise gcd/lcm
    # passes would order in n^2 / 2 steps; M_n(inf, 0) = Z^n: half the
    # rows are zero, and the pivots pass over the zero columns in place
    n = 10**4
    group = h1_takahashi(normalize_spec(n, Rational(1, 0), Rational(3, 1)))
    assert group == AbelianGroup((3,) * n)
    assert h1_takahashi(normalize_spec(n, Rational(1, 0), Rational(0, 1))) == AbelianGroup((), n)


# --------------------------------------------------------------- branch knots

def test_branch_knot_figure_eight():
    assert branch_knot(1, -1) == TwoBridge(5, 3)


def test_branch_knot_trefoil():
    assert branch_knot(1, 1) == TwoBridge(3, 2)


def test_branch_knot_unknot_when_s_zero():
    assert branch_knot(2, 0) == TwoBridge(1, 0)
    assert branch_knot(0, 5) == TwoBridge(1, 0)


def test_base_space_h1():
    assert base_space_h1(Rational(1, 2), Rational(1, 5)).is_trivial
    assert base_space_h1(Rational(3, 1), Rational(3, -1)) == AbelianGroup((3, 3))
    assert base_space_h1(Rational(0, 1), Rational(2, 1)) == AbelianGroup((2,), 1)


# ---------------------------------------------------------------- cross-checks

def prop4_holds(q, s, n):
    """H_1(M_n(1/q, 1/s)) equals H_1 of the n-fold cyclic cover of S^3
    branched over b(|4sq - 1|, 2s), structurally."""
    delta = alexander_two_bridge(branch_knot(q, s))
    spec = normalize_spec(n, Rational(1, q), Rational(1, s))
    return h1_takahashi(spec) == branched_cover_homology(delta, n)


def symmetric(spec):
    """H_1 agrees on spec and on each of its symmetry variants, each
    computed on its own."""
    g = h1_takahashi(spec)
    return all(h1_takahashi(v) == g for v in symmetry_variants(spec))


def test_prop4_examples():
    assert prop4_holds(1, 1, 5)
    assert prop4_holds(1, -1, 2)
    assert prop4_holds(0, 3, 4)
    assert prop4_holds(2, 0, 6)


def test_prop4_double_cover_value():
    g = branched_cover_homology(alexander_two_bridge(branch_knot(1, -1)), 2)
    assert g.order() == 5


def test_prop4_grid():
    # n = 1 included: both sides must then be trivial
    for q in range(-3, 4):
        for s in range(-3, 4):
            for n in range(1, 7):
                assert prop4_holds(q, s, n)


def test_p4_claim_computes_each_knot_polynomial_once(monkeypatch):
    calls = []

    def counting(knot):
        calls.append(knot)
        return alexander_two_bridge(knot)

    monkeypatch.setattr(claims, "alexander_two_bridge", counting)
    report = claims._claim_p4_grid()
    assert report.status == claims.PASS
    assert report.computed == "245 of 245 points agree"
    assert len(calls) == 49


def test_routes_agree_on_random_r_one_specs():
    # past every fixed grid: |p|, |q|, |s| <= 8, n <= 20, at least a third with
    # p = 1 so that Prop. 4's branched cover joins in
    rng = random.Random(31337)
    checked = covers = 0
    while checked < 300:
        p = 1 if checked % 3 == 0 else rng.randint(-8, 8)
        q, s, n = rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(1, 20)
        if math.gcd(p, q) != 1:
            continue
        spec = normalize_spec(n, Rational(p, q), Rational(1, s))
        g = h1_takahashi(spec)
        assert h1_cyclic_route(spec) == g, spec
        order = g.order()
        assert abs(takahashi_determinant(spec)) == (order or 0), spec
        assert representer_order(spec) == order, spec
        if p == 1:
            delta = alexander_two_bridge(branch_knot(q, s))
            assert branched_cover_homology(delta, n) == g, spec
            assert branched_cover_order(delta, n) == order, spec
            covers += 1
        checked += 1
    assert covers >= 100


@pytest.mark.parametrize("n, pq, rs", [(130, (3, 2), (1, 5)), (150, (3, 2), (1, 5)),
                                       (33, (7, 1), (1, -6))],
                         ids=["M_130(3/2, 1/5)", "M_150(3/2, 1/5)", "M_33(7, 1/-6)"])
def test_surgery_route_matches_the_cyclic_route_at_large_n(n, pq, rs):
    # specs on which a smallest-entry pivot rule took seconds to minutes in
    # the Smith form; the cyclic route reduces a different, n x n matrix,
    # and the transfer route takes powers of 2 x 2 matrices
    spec = normalize_spec(n, Rational(*pq), Rational(*rs))
    assert h1_takahashi(spec) == h1_cyclic_route(spec) == h1_transfer(spec)


def test_transfer_route_on_a_grid_that_holds_every_claims_grid():
    grid = set(grid_specs(5, range(1, 9)))
    # every spec whose H_1 the claims suite computes by the surgery route
    claimed = {normalize_spec(3, Rational(3, 1), Rational(-3, 1)),
               normalize_spec(4, Rational(3, 2), Rational(1, 1)),
               *grid_specs(3, [1]), *grid_specs(3, range(1, 6)),
               *(normalize_spec(n, Rational(1, q), Rational(1, s))
                 for q in range(-3, 4) for s in range(-3, 4) for n in range(2, 7))}
    assert claimed <= grid
    for spec in grid:
        assert h1_transfer(spec) == h1_takahashi(spec), spec


def test_transfer_route_on_random_specs_of_every_case():
    # numerators and denominators up to 12, each multiplied by 2, 3 or 6 with
    # probability 1/2 so that qs and pr share primes; q or s is set to 0
    # and p = r = 0, which h1_transfer's general rule covers, often enough
    # that each case is met
    rng = random.Random(4242)
    cases = Counter()
    while min(cases[c] for c in ("gcd(qs, pr) > 1", "qs = 0", "p = r = 0", "n = 1", "n = 2")) < 60:
        p, q, r, s = (rng.randint(-12, 12) * rng.choice((1, 1, 1, 2, 3, 6)) for _ in range(4))
        if rng.random() < 0.1:
            p = r = 0
        if rng.random() < 0.1:
            q, s = rng.choice(((0, s), (q, 0)))
        if (p, q) == (0, 0) or (r, s) == (0, 0):
            continue
        spec = normalize_spec(rng.choice((1, 2, rng.randint(3, 20))), Rational(p, q), Rational(r, s))
        assert h1_transfer(spec) == h1_takahashi(spec), spec
        p, q, r, s = spec.pq.num, spec.pq.den, spec.rs.num, spec.rs.den
        cases["p = r = 0" if p == r == 0 else "qs = 0" if q * s == 0 else
              "gcd(qs, pr) > 1" if math.gcd(q * s, p * r) > 1 else "other"] += 1
        cases[f"n = {spec.n}"] += 1
    # M_n(0, 0) = Z^2 at every n: T = I, so both factors off qs are 0
    for n in (1, 2, 10**5):
        spec = normalize_spec(n, Rational(0, 1), Rational(0, 1))
        assert h1_transfer(spec) == AbelianGroup((), 2), spec


def test_transfer_route_at_large_n():
    # the unit family and a spec whose H_1 has n factors, far past the
    # surgery route's reach; the order check against the determinant runs
    # inside h1_transfer
    n = 100_000
    group = h1_transfer(normalize_spec(n, Rational(1, 1), Rational(-1, 1)))
    assert group.order() == lucas_by_doubling(2 * n) - 2
    group = h1_transfer(normalize_spec(n, Rational(2, 3), Rational(3, 2)))
    assert group.torsion[: n - 2] == (6,) * (n - 2) and group.free_rank == 0


@pytest.mark.parametrize("n, pq, s", [(2000, (3, 2), 5), (2001, (7, 3), -4)],
                         ids=["M_2000(3/2, 1/5)", "M_2001(7/3, 1/-4)"])
def test_cyclic_route_at_qs_beyond_one_meets_the_transfer_and_resultant_routes(n, pq, s):
    # the representer's leading coefficient is qs = 10 and -12, not a unit;
    # the resultant by the remainder sequence shares no code with the
    # cyclic and transfer routes
    spec = normalize_spec(n, Rational(*pq), Rational(1, s))
    group = h1_cyclic_route(spec)
    assert group == h1_transfer(spec)
    assert group.order() == representer_order(spec)


@pytest.mark.parametrize("n, pq, rs", [(31, (3, 2), (-3, 1)), (40, (-2, 1), (2, 3))],
                         ids=["M_31(3/2, -3)", "M_40(-2, 2/3)"])
def test_surgery_order_is_the_determinant_at_large_n(n, pq, rs):
    spec = normalize_spec(n, Rational(*pq), Rational(*rs))
    group = h1_takahashi(spec)
    assert group.is_finite
    assert group.order() == abs(takahashi_determinant(spec))


def test_symmetry_examples():
    assert symmetric(normalize_spec(3, Rational(3, 1), Rational(-3, 1)))
    assert symmetric(normalize_spec(2, Rational(3, 2), Rational(5, 3)))
    assert symmetric(normalize_spec(4, Rational(2, 3), Rational(2, 3)))


def test_symmetry_grid():
    for spec in grid_specs(3, range(1, 7)):
        assert symmetric(spec)


def test_sym_claim_raises_on_a_variant_outside_the_grid(monkeypatch):
    # the claim looks every variant up among the grid's groups; a variant
    # it cannot find is an error, never a skipped comparison
    def outside(spec):
        return (normalize_spec(spec.n, Rational(7, 1), spec.rs),)

    monkeypatch.setattr(claims, "symmetry_variants", outside)
    with pytest.raises(AssertionError, match="not closed under the symmetries"):
        claims._claim_sym_grid()


def test_representer_order_fibonacci_family_large_n():
    # |H_1(M_n(1, -1))| = L_2n - 2; a Sylvester determinant of size 2002
    # would take minutes, the remainder sequence takes milliseconds
    n = 2000
    assert representer_order(normalize_spec(n, Rational(1, 1), Rational(-1, 1))) == lucas(2 * n) - 2
