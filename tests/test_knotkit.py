import math
import random

import pytest

from takahashi.claims import grid_specs
from takahashi.exactalg import (
    AbelianGroup,
    IntPoly,
    cokernel,
    cyclotomic_quotient,
    laurent_mul,
    laurent_sub,
    multiplication_matrix,
)
from takahashi.grouppres import Word, free_reduce, representer_polynomial, word
from takahashi.knotkit import (
    AlexanderPoly,
    BraidWord3,
    ConwayForm,
    TwoBridge,
    alexander_from_braid3,
    alexander_two_bridge,
    branched_cover_homology,
    branched_cover_order,
    conway_to_fraction,
    epsilon_sequence,
    fox_derivative_abelianized,
    normalize_two_bridge,
    reduced_burau3,
    two_bridge_equivalent,
    two_bridge_presentation,
)
from takahashi.manifolds import branch_knot, h1_cyclic_route

from oracles import cover_matrix_by_division, nontrivial_unity_root_abs_product


def all_two_bridge_knots(max_alpha):
    for a in range(3, max_alpha + 1, 2):
        for b in range(1, a):
            if math.gcd(a, b) == 1:
                yield TwoBridge(a, b)


# ------------------------------------------------------------- conway forms

def test_conway_single_term():
    f = conway_to_fraction(ConwayForm((3,)))
    assert (f.num, f.den) == (3, 1)


def test_conway_two_terms():
    f = conway_to_fraction(ConwayForm((2, 2)))
    assert (f.num, f.den) == (5, 2)


def test_conway_figure_eight_class():
    f = conway_to_fraction(ConwayForm((-2, -2)))
    assert normalize_two_bridge(f.num, f.den) == TwoBridge(5, 3)


def test_conway_zero_terms_collapse():
    f = conway_to_fraction(ConwayForm((0, 0, 5)))
    assert (f.num, f.den) == (5, 1)
    inf = conway_to_fraction(ConwayForm((0, 5)))
    assert inf.is_infinite


def test_conway_empty_rejected():
    with pytest.raises(ValueError):
        conway_to_fraction(ConwayForm(()))


# -------------------------------------------------------- schubert normal form

def test_normalize_examples():
    assert normalize_two_bridge(-5, -2) == TwoBridge(5, 3)
    assert normalize_two_bridge(3, 5) == TwoBridge(3, 2)
    assert normalize_two_bridge(1, 7) == TwoBridge(1, 0)
    assert normalize_two_bridge(0, -1) == TwoBridge(0, 1)


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_two_bridge(4, 2)
    with pytest.raises(ValueError):
        normalize_two_bridge(0, 0)


def test_two_bridge_validation():
    with pytest.raises(ValueError):
        TwoBridge(5, 5)
    with pytest.raises(ValueError):
        TwoBridge(6, 3)
    assert TwoBridge(5, 3).is_knot
    assert not TwoBridge(4, 1).is_knot


def test_equivalence_inverse_residue():
    assert two_bridge_equivalent(TwoBridge(5, 3), TwoBridge(5, 2), allow_mirror=False)


def test_equivalence_mirror_flag():
    # 3 = -(2^-1) mod 7, so these classes differ only by mirror
    assert not two_bridge_equivalent(TwoBridge(7, 2), TwoBridge(7, 3), allow_mirror=False)
    assert two_bridge_equivalent(TwoBridge(7, 2), TwoBridge(7, 3), allow_mirror=True)


def test_equivalence_degenerate_classes():
    assert two_bridge_equivalent(TwoBridge(1, 0), TwoBridge(1, 0))
    assert not two_bridge_equivalent(TwoBridge(1, 0), TwoBridge(0, 1))


# ------------------------------------------------------ group presentations

def test_epsilon_trefoil():
    assert epsilon_sequence(3, 1) == (1, 1)


def test_epsilon_figure_eight():
    assert epsilon_sequence(5, 3) == (1, -1, -1, 1)


def test_epsilon_symmetric():
    for k in all_two_bridge_knots(15):
        eps = epsilon_sequence(k.alpha, k.beta)
        assert eps == tuple(reversed(eps))


def test_presentation_unknot():
    p = two_bridge_presentation(TwoBridge(1, 0))
    assert p.generator_count == 1
    assert p.relators == ()


def test_presentation_trefoil_relator():
    p = two_bridge_presentation(TwoBridge(3, 1))
    assert p.generator_count == 2
    # w = a b, relator w a w^-1 b^-1
    assert free_reduce(p.relators[0]).letters == (
        (0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1),
    )


def test_presentation_abelianization_identifies_generators():
    from takahashi.grouppres import abelianize

    m = abelianize(two_bridge_presentation(TwoBridge(3, 1)))
    assert m.to_lists() == [[1, -1]]


def test_presentation_rejects_links():
    with pytest.raises(ValueError):
        two_bridge_presentation(TwoBridge(4, 1))


# ------------------------------------------------------------- fox calculus

def test_fox_base_rules():
    assert fox_derivative_abelianized(word([(0, 1)]), 0) == {0: 1}
    assert fox_derivative_abelianized(word([(0, -1)]), 0) == {-1: -1}
    assert fox_derivative_abelianized(word([(0, 1), (1, 1)]), 1) == {1: 1}


def test_fox_power_rule():
    assert fox_derivative_abelianized(word([(0, 3)]), 0) == {0: 1, 1: 1, 2: 1}
    assert fox_derivative_abelianized(word([(0, -2)]), 0) == {-1: -1, -2: -1}


def test_fox_product_rule():
    rng = random.Random(17)
    for _ in range(60):
        mk = lambda: Word(tuple((rng.randint(0, 2), rng.choice((-2, -1, 1, 2)))
                                for _ in range(rng.randint(0, 6))))
        u, v = mk(), mk()
        phi_u = sum(e for _, e in u.letters)
        for gen in (0, 1, 2):
            du = fox_derivative_abelianized(u, gen)
            dv = fox_derivative_abelianized(v, gen)
            shifted = {e + phi_u: c for e, c in dv.items()}
            combined = dict(du)
            for e, c in shifted.items():
                combined[e] = combined.get(e, 0) + c
            combined = {e: c for e, c in combined.items() if c}
            assert fox_derivative_abelianized(Word(u.letters + v.letters), gen) == combined


# ----------------------------------------------------- alexander polynomials

def test_alexander_unknot():
    assert alexander_two_bridge(TwoBridge(1, 0)).poly.coeffs == (1,)


def test_alexander_trefoil():
    assert alexander_two_bridge(TwoBridge(3, 1)).poly.coeffs == (1, -1, 1)


def test_alexander_figure_eight():
    assert alexander_two_bridge(TwoBridge(5, 3)).poly.coeffs == (1, -3, 1)


def test_alexander_rejects_links():
    with pytest.raises(ValueError):
        alexander_two_bridge(TwoBridge(6, 1))


def test_alexander_constraints_all_small_knots():
    for k in all_two_bridge_knots(25):
        delta = alexander_two_bridge(k).poly
        assert delta(1) in (1, -1)
        assert delta.coeffs == tuple(reversed(delta.coeffs))
        # knot determinant equals alpha
        assert abs(delta(-1)) == k.alpha


def test_alexander_poly_type_validation():
    with pytest.raises(ValueError):
        AlexanderPoly(IntPoly((2,)))  # value 2 at t = 1
    with pytest.raises(ValueError):
        AlexanderPoly(IntPoly((1, 1, -1)))  # not palindromic


# ------------------------------------------------------------ burau matrices

def lau_eq(m1, m2):
    return all(m1[i][j] == m2[i][j] for i in (0, 1) for j in (0, 1))


IDENTITY = (({0: 1}, {}), ({}, {0: 1}))


def test_burau_empty_braid():
    assert lau_eq(reduced_burau3(BraidWord3(())), IDENTITY)


def test_burau_inverse_letters_cancel():
    for x in (1, 2):
        assert lau_eq(reduced_burau3(BraidWord3((x, -x))), IDENTITY)
        assert lau_eq(reduced_burau3(BraidWord3((-x, x))), IDENTITY)


def test_burau_determinant_of_word():
    # det of each generator image is -t, so det(sigma1^3 sigma2) = t^4
    m = reduced_burau3(BraidWord3((1, 1, 1, 2)))
    det = laurent_sub(laurent_mul(m[0][0], m[1][1]), laurent_mul(m[0][1], m[1][0]))
    assert det == {4: 1}


def test_burau_homomorphism_random():
    from takahashi.exactalg import laurent_add

    rng = random.Random(31)
    letters = (1, -1, 2, -2)
    for _ in range(40):
        u = BraidWord3(tuple(rng.choice(letters) for _ in range(rng.randint(0, 8))))
        v = BraidWord3(tuple(rng.choice(letters) for _ in range(rng.randint(0, 8))))
        lhs = reduced_burau3(BraidWord3(u.letters + v.letters))
        mu, mv = reduced_burau3(u), reduced_burau3(v)
        rhs = tuple(
            tuple(
                laurent_add(
                    laurent_mul(mu[i][0], mv[0][j]),
                    laurent_mul(mu[i][1], mv[1][j]),
                )
                for j in (0, 1)
            )
            for i in (0, 1)
        )
        assert lau_eq(lhs, rhs)


# -------------------------------------------------------------- braid closure

def test_braid_permutations():
    assert BraidWord3((1, 2)).cycle_type() == (3,)
    assert BraidWord3(()).cycle_type() == (1, 1, 1)
    assert BraidWord3((1,)).cycle_type() == (2, 1)
    assert BraidWord3((1, 1, 1, -2, -2, -2, 1, 1, 1, -2, -2, -2)).cycle_type() == (3,)


def test_braid_alexander_trefoil():
    assert alexander_from_braid3(BraidWord3((1, 1, 1, 2))).poly.coeffs == (1, -1, 1)


def test_braid_alexander_figure_eight():
    assert alexander_from_braid3(BraidWord3((1, -2, 1, -2))).poly.coeffs == (1, -3, 1)


def test_braid_alexander_unknot():
    assert alexander_from_braid3(BraidWord3((1, 2))).poly.coeffs == (1,)


def test_braid_alexander_rejects_non_knots():
    with pytest.raises(ValueError, match="cycle type"):
        alexander_from_braid3(BraidWord3((1, 1)))


def test_braid_letter_validation():
    with pytest.raises(ValueError):
        BraidWord3((3,))


def test_pipeline_agreement_on_listed_pairs():
    pairs = [
        ((1, 1, 1, 2), TwoBridge(3, 1)),
        ((1, -2, 1, -2), TwoBridge(5, 3)),
        ((1, 1, 1, 1, 1, 2), TwoBridge(5, 1)),
    ]
    for letters, knot in pairs:
        via_braid = alexander_from_braid3(BraidWord3(letters)).poly
        via_fox = alexander_two_bridge(knot).poly
        assert via_braid == via_fox


# ----------------------------------------------------------- branched covers

def test_cover_n1_trivial():
    delta = alexander_two_bridge(TwoBridge(5, 3))
    assert branched_cover_homology(delta, 1).is_trivial


def test_cover_trefoil_double():
    delta = alexander_two_bridge(TwoBridge(3, 1))
    assert branched_cover_homology(delta, 2) == AbelianGroup((3,))


def test_cover_figure_eight_triple():
    delta = alexander_two_bridge(TwoBridge(5, 3))
    g = branched_cover_homology(delta, 3)
    assert g == AbelianGroup((4, 4))
    assert branched_cover_order(delta, 3) == 16


def test_cover_trefoil_sixfold_infinite():
    delta = alexander_two_bridge(TwoBridge(3, 1))
    g = branched_cover_homology(delta, 6)
    assert g.free_rank >= 1
    assert g == AbelianGroup((), 2)
    assert branched_cover_order(delta, 6) is None


def test_cover_double_is_alpha_for_all_small_knots():
    for k in all_two_bridge_knots(25):
        delta = alexander_two_bridge(k)
        assert branched_cover_homology(delta, 2).order() == k.alpha


def test_genus_one_family_matches_representer():
    # Alexander polynomial of b(|4sq-1|, 2s) equals the representer
    # polynomial of the cyclic presentation with p = 1, up to units
    from takahashi.grouppres import representer_polynomial
    from takahashi.manifolds import branch_knot

    for q in range(-4, 5):
        for s in range(-4, 5):
            if s == 0:
                continue
            delta = alexander_two_bridge(branch_knot(q, s)).poly
            rep = representer_polynomial(5, 1, q, s)
            assert delta == rep, (q, s, delta, rep)


def test_cover_order_routes_agree():
    for k in all_two_bridge_knots(13):
        delta = alexander_two_bridge(k)
        for n in range(1, 7):
            snf_order = branched_cover_homology(delta, n).order()
            res_order = branched_cover_order(delta, n)
            assert snf_order == res_order or (snf_order is None and res_order is None)
            if res_order is not None:
                approx = nontrivial_unity_root_abs_product(list(delta.poly.coeffs), n)
                assert abs(approx - res_order) <= 1e-6 * max(1.0, res_order)


def test_cover_matrix_matches_row_by_division():
    # multiplication_matrix builds each row as t times the last; the
    # oracle divides delta * t^k afresh for every row
    for k in (TwoBridge(3, 1), TwoBridge(5, 2), TwoBridge(7, 3)):
        delta = alexander_two_bridge(k)
        for n in range(2, 61):
            m = multiplication_matrix(delta.poly, cyclotomic_quotient(n))
            assert m.to_lists() == cover_matrix_by_division(list(delta.poly.coeffs), n)


def test_cover_order_trefoil_large_n():
    # n-fold covers of the trefoil by n mod 6: orders 1, 3, 4, 3, 1 and
    # infinite at 6 | n
    delta = alexander_two_bridge(TwoBridge(3, 1))
    by_residue = {1: 1, 2: 3, 3: 4, 4: 3, 5: 1, 0: None}
    groups = {1: AbelianGroup(), 2: AbelianGroup((3,)), 3: AbelianGroup((2, 2)),
              4: AbelianGroup((3,)), 5: AbelianGroup(), 0: AbelianGroup((), 2)}
    for n in range(2000, 2006):
        assert branched_cover_order(delta, n) == by_residue[n % 6]
        assert branched_cover_homology(delta, n) == groups[n % 6]
    # 1 + ... + t^(n-1) mod Delta by doubling: well under a second
    for n in (100_000, 100_002):
        assert branched_cover_homology(delta, n) == groups[n % 6]


@pytest.mark.parametrize("q, s", [(1, 2), (2, 3), (-3, 2)])
def test_non_monic_genus_one_covers_at_large_n(q, s):
    # Delta = sq t^2 - (2sq - 1) t + sq with |sq| = 2 or 6, not monic; the
    # resultant route shares no code with the cover route
    delta = alexander_two_bridge(branch_knot(q, s))
    assert delta.poly.coeffs[-1] not in (1, -1)
    for n in range(2000, 2004):
        order = branched_cover_homology(delta, n).order()
        assert order is not None and order == branched_cover_order(delta, n), (q, s, n)


@pytest.mark.parametrize("alpha, beta", [(5, 1), (7, 1), (11, 3), (13, 5)])
def test_monic_covers_of_degree_four_and_up_at_large_n(alpha, beta):
    # Delta monic of degree 4 or 6: t^n mod Delta by doubling, then its
    # multiplication matrix; the resultant route shares no code with it
    delta = alexander_two_bridge(TwoBridge(alpha, beta))
    assert delta.poly.coeffs[-1] in (1, -1) and delta.poly.degree >= 4
    for n in range(2000, 2004):
        order = branched_cover_homology(delta, n).order()
        assert order == branched_cover_order(delta, n), (alpha, beta, n)


def test_small_side_routes_match_n_by_n_matrices():
    # the routes reduce the degree-2 side when it is a palindromic quadratic
    # or monic up to sign; the n x n matrices of the degree-n side give the
    # same groups
    for spec in grid_specs(3, range(1, 13)):
        if spec.rs.num != 1:
            continue
        n = spec.n
        rep = representer_polynomial(n, spec.pq.num, spec.pq.den, spec.rs.den)
        tn = IntPoly((-1,) + (0,) * (n - 1) + (1,))
        assert h1_cyclic_route(spec) == cokernel(multiplication_matrix(rep, tn)), spec
    trefoil, figure_eight = TwoBridge(3, 1), TwoBridge(5, 3)
    for k in all_two_bridge_knots(13):
        ns = range(1, 41)
        if k in (trefoil, figure_eight):
            ns = [*range(1, 61), *range(63, 401, 7)]
        delta = alexander_two_bridge(k)
        for n in ns:
            m = multiplication_matrix(delta.poly, cyclotomic_quotient(n))
            assert branched_cover_homology(delta, n) == cokernel(m), (k, n)


def test_cover_route_is_the_cyclotomic_quotient():
    # Z[t]/(Delta, t^n - 1), which the route reduces, against
    # Z[t]/(Delta, 1 + ... + t^(n-1)) as the (n - 1)-square matrix of Delta,
    # at n = 1..40: every branching knot b(|4sq - 1|, 2s) with |q|, |s| <= 6,
    # whose Delta is sq t^2 - (2sq - 1) t + sq up to units, monic only at
    # sq = +-1, and the 3-braid closures above
    deltas = [alexander_from_braid3(BraidWord3(letters)) for letters in (
        (1, 1, 1, 2), (1, -2, 1, -2), (1, 1, 1, 1, 1, 2), (1, 2), (1, 1, 1, -2, -2, -2) * 2)]
    deltas += [alexander_two_bridge(branch_knot(q, s))
               for q in range(-6, 7) for s in range(-6, 7) if q and s]
    assert len(deltas) == 5 + 144
    assert sum(d.poly.coeffs[-1] not in (1, -1) for d in deltas) > 100
    for delta in deltas:
        for n in range(1, 41):
            m = multiplication_matrix(delta.poly, cyclotomic_quotient(n))
            assert branched_cover_homology(delta, n) == cokernel(m), (delta, n)
