import math
import random
from collections import Counter

import pytest

from takahashi.claims import grid_rationals
from takahashi import grouppres
from takahashi.exactalg import IntPoly, Rational, cokernel, resultant
from takahashi.grouppres import (
    Presentation,
    Word,
    abelianize,
    cyclic_presentation,
    cyclic_presentation_rewritten,
    free_reduce,
    relator_identity_check,
    representer_polynomial,
    takahashi_matrix,
    takahashi_presentation,
    word,
)
from takahashi.exactalg import AbelianGroup, smith_normal_form

from oracles import naive_free_reduce, takahashi_blocks


# -------------------------------------------------------------------- words

def test_zero_exponent_rejected_at_build():
    with pytest.raises(ValueError):
        Word(((0, 0),))


def test_word_helper_drops_zero_exponents():
    assert word([(0, 2), (1, 0), (0, 3)]).letters == ((0, 2), (0, 3))


def test_free_reduce_cancels_inverse_pair():
    assert free_reduce(Word(((0, 1), (0, -1)))).is_empty


def test_free_reduce_merges_adjacent():
    assert free_reduce(Word(((0, 2), (0, 3)))).letters == ((0, 5),)


def test_free_reduce_fibonacci_relator():
    # z0 (z0^-1 z1) (z0^-1 z2) reduces to z1 z0^-1 z2
    w = Word(((0, 1), (0, -1), (1, 1), (0, -1), (2, 1)))
    assert free_reduce(w).letters == ((1, 1), (0, -1), (2, 1))


def test_free_reduce_compatible_with_inversion():
    def inverse(w):
        return Word(tuple((g, -e) for g, e in reversed(w.letters)))

    rng = random.Random(11)
    for _ in range(100):
        w = Word(tuple((rng.randint(0, 2), rng.choice((-2, -1, 1, 2)))
                       for _ in range(rng.randint(0, 8))))
        assert free_reduce(inverse(w)) == inverse(free_reduce(w))


def test_free_reduction_matches_the_naive_reducer_on_seeded_words():
    # 2,000 seeded letter sequences, lengths 0-30, generators 0-3 and
    # exponents -3..3 with zero; a quarter are u followed by u's inverse,
    # so that whole words cancel
    rng = random.Random(27)
    seen = Counter()
    for _ in range(2000):
        if rng.random() < 0.25:
            u = [(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 15))]
            letters = u + [(g, -e) for g, e in reversed(u)]
        else:
            letters = [(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 30))]
        expected = naive_free_reduce(letters)
        assert grouppres._reduce(letters) == expected, letters
        zero_free = all(e for _, e in letters)
        if zero_free:
            assert free_reduce(Word(tuple(letters))).letters == expected, letters
        seen["zero-free" if zero_free else "zeros"] += 1
        seen["empty"] += not letters
        seen["cancels"] += bool(letters) and not expected
    assert min(seen[k] for k in ("zero-free", "empty", "cancels", "zeros")) >= 20, seen


# ------------------------------------------------------------ abelianization

def test_abelianize_empty_presentation():
    p = Presentation(4, ())
    m = abelianize(p)
    assert (m.nrows, m.ncols) == (0, 4)
    assert cokernel(abelianize(p)) == AbelianGroup((), 4)


def test_abelianize_single_power_relator():
    p = Presentation(1, (Word(((0, 3),)),))
    assert abelianize(p).to_lists() == [[3]]
    assert cokernel(abelianize(p)) == AbelianGroup((3,))


def test_abelianize_ignores_free_reduction():
    rng = random.Random(23)
    for _ in range(50):
        w = Word(tuple((rng.randint(0, 3), rng.choice((-2, -1, 1, 2)))
                       for _ in range(rng.randint(0, 10))))
        p1 = Presentation(4, (w,))
        p2 = Presentation(4, (free_reduce(w),))
        assert abelianize(p1).to_lists() == abelianize(p2).to_lists()


# ------------------------------------------------------ surgery presentation

def test_takahashi_n1_rows():
    # relators on two generators abelianize to (0, -r) and (p, 0)
    m = abelianize(takahashi_presentation(1, Rational(5, 2), Rational(7, 3)))
    assert m.to_lists() == [[0, -7], [5, 0]]


def test_takahashi_n1_trivial_homology():
    for q in (-2, 1, 3):
        for s in (-1, 2):
            p = takahashi_presentation(1, Rational(1, q), Rational(1, s))
            assert cokernel(abelianize(p)).is_trivial


def test_takahashi_generator_and_relator_count():
    p = takahashi_presentation(3, Rational(3, 1), Rational(3, -1))
    assert p.generator_count == 6
    assert len(p.relators) == 6
    assert cokernel(abelianize(p)).order() == 1296


def test_takahashi_zero_coefficients_give_free_part():
    p = takahashi_presentation(2, Rational(0, 1), Rational(0, 1))
    m = abelianize(p)
    assert smith_normal_form(m).invariant_factors == (1, 1, 0, 0)
    assert cokernel(abelianize(p)) == AbelianGroup((), 2)


def test_takahashi_matrix_equals_abelianized_presentation():
    # n = 1 wraps x3 back to x1; the grid holds 0/1 and 1/0
    grid = grid_rationals(3)
    for n in range(1, 5):
        for a in grid:
            for b in grid:
                assert takahashi_matrix(n, a, b) == abelianize(takahashi_presentation(n, a, b))


def test_surgery_builders_reject_n_zero():
    for build in (takahashi_presentation, takahashi_matrix):
        with pytest.raises(ValueError):
            build(0, Rational(1, 1), Rational(1, 1))
    for build in (cyclic_presentation, cyclic_presentation_rewritten, representer_polynomial):
        with pytest.raises(ValueError):
            build(0, 1, 1, 1)


def test_takahashi_blocks_are_the_period_of_the_relators():
    # the formula A0 = [[q, -r], [0, s]], A1 = [[-q, 0], [p, -s]], pinned
    # against the blocks summed from the relator letters
    for a in grid_rationals(3):
        for b in grid_rationals(3):
            (p, q), (r, s) = (a.num, a.den), (b.num, b.den)
            a0, a1 = takahashi_blocks(a, b)
            assert a0 == [[q, -r], [0, s]]
            assert a1 == [[-q, 0], [p, -s]]


def test_takahashi_blocks_rebuild_the_matrix():
    # I (x) A0 + P (x) A1, P the n-cycle shift; at n = 1 and 2 the offsets
    # 0 and 1 collide mod n and the blocks add
    grid = grid_rationals(3)
    for n in range(1, 9):
        for a in grid:
            for b in grid:
                blocks = takahashi_blocks(a, b)
                rows = [[0] * (2 * n) for _ in range(2 * n)]
                for i in range(n):
                    for offset, block in enumerate(blocks):
                        j = (i + offset) % n
                        for u in range(2):
                            for v in range(2):
                                rows[2 * i + u][2 * j + v] += block[u][v]
                assert rows == takahashi_matrix(n, a, b).to_lists()


def test_takahashi_matrix_stores_only_the_band():
    # three nonzeros per relator, so at most three stored entries per row;
    # a dense 20000 x 20000 matrix would hold 4 * 10^8 cells
    n = 10**4
    m = takahashi_matrix(n, Rational(1, 1), Rational(-1, 1))
    assert (m.nrows, m.ncols) == (2 * n, 2 * n)
    assert max(len(row) for row in m.entries) == 3
    assert sum(len(row) for row in m.entries) == 6 * n


def test_takahashi_matrix_restates_the_band():
    # rows 2i and 2i+1 as written out, at n = 1 (columns collide and are
    # summed), n = 2 and n = 3, and with zero and infinite coefficients,
    # whose zeros are dropped
    a, b = Rational(3, 2), Rational(-5, 7)
    assert takahashi_matrix(1, a, b).to_lists() == [[0, 5], [3, 0]]
    assert takahashi_matrix(1, a, b).entries == ({1: 5}, {0: 3})
    assert takahashi_matrix(2, a, b).to_lists() == [
        [2, 5, -2, 0], [0, 7, 3, -7], [-2, 0, 2, 5], [3, -7, 0, 7]]
    assert takahashi_matrix(3, Rational(0, 1), Rational(1, 0)).entries == (
        {0: 1, 1: -1, 2: -1}, {}, {2: 1, 3: -1, 4: -1}, {}, {4: 1, 5: -1, 0: -1}, {})
    assert takahashi_matrix(2, Rational(1, 0), Rational(0, 1)).entries == (
        {}, {1: 1, 2: 1, 3: -1}, {}, {3: 1, 0: 1, 1: -1})
    assert takahashi_matrix(1, Rational(0, 1), Rational(1, 0)).entries == ({1: -1}, {})
    for n in (0, -1, -4):
        with pytest.raises(ValueError):
            takahashi_matrix(n, a, b)


def test_takahashi_drops_zero_exponent_letters():
    p = takahashi_presentation(2, Rational(1, 0), Rational(1, 1))
    for r in p.relators:
        assert all(e != 0 for _, e in r.letters)


# ------------------------------------------------------- cyclic presentation

def test_cyclic_n1_exponent_sum_is_p():
    p = cyclic_presentation(1, 5, 3, -2)
    assert abelianize(p).to_lists() == [[5]]


def test_cyclic_relators_are_cyclic_shifts():
    p = cyclic_presentation(4, 3, 2, 1)
    first = p.relators[0]
    for i, r in enumerate(p.relators):
        shifted = Word(tuple(((g + i) % 4, e) for g, e in first.letters))
        assert r == shifted


def test_cyclic_relation_matrix_is_circulant():
    m = abelianize(cyclic_presentation(5, 3, 2, -2))
    rows = m.to_lists()
    for i in range(1, 5):
        assert rows[i] == [rows[0][(j - i) % 5] for j in range(5)]


def test_cyclic_snf_invariant_under_relabeling():
    p = cyclic_presentation(5, 3, 2, -2)
    base = smith_normal_form(abelianize(p)).invariant_factors
    for shift in range(1, 5):
        relabeled = Presentation(
            5,
            tuple(Word(tuple(((g + shift) % 5, e) for g, e in r.letters))
                  for r in p.relators),
        )
        assert smith_normal_form(abelianize(relabeled)).invariant_factors == base


def test_cyclic_order_15():
    assert cokernel(abelianize(cyclic_presentation(4, 3, 2, 1))).order() == 15


# ---------------------------------------------------------- rewritten forms

def test_rewritten_rejects_s_zero():
    with pytest.raises(ValueError):
        cyclic_presentation_rewritten(3, 1, 1, 0)
    with pytest.raises(ValueError):
        relator_identity_check(3, 1, 1, 0)


def test_rewritten_s1_ends_with_plain_tail():
    # for s = 1 the (z(i-1)^q z(i)^-q)^0 block vanishes
    r = cyclic_presentation_rewritten(3, 2, 3, 1).relators[0]
    assert r.letters[-1] == (2, 3)


def test_rewritten_s_negative_leading_block():
    # s = -1, q = 1, p = 1: leading exponent is p + q = 2
    r = cyclic_presentation_rewritten(3, 1, 1, -1).relators[0]
    assert r.letters[0] == (0, 2)


def test_relator_identity_examples():
    assert relator_identity_check(3, 1, 1, 1)
    assert relator_identity_check(5, 2, 3, 2)
    assert relator_identity_check(4, 1, 1, -2)
    assert relator_identity_check(3, 1, 1, -1)


def test_relator_identity_literal_for_positive_s():
    for n in (1, 2, 4):
        for p in (-2, 0, 3):
            for q in (-2, 1, 3):
                for s in (1, 2, 3):
                    orig = cyclic_presentation(n, p, q, s)
                    new = cyclic_presentation_rewritten(n, p, q, s)
                    for a, b in zip(orig.relators, new.relators):
                        assert free_reduce(a) == free_reduce(b)


def test_relator_identity_is_conjugation_for_negative_s():
    # the rewritten relator is z(i)^q R z(i)^-q, not literally equal to R
    # as a reduced word
    orig = free_reduce(cyclic_presentation(4, 1, 1, -2).relators[0])
    new = free_reduce(cyclic_presentation_rewritten(4, 1, 1, -2).relators[0])
    assert orig != new
    conj = free_reduce(Word(((0, 1),) + orig.letters + ((0, -1),)))
    assert conj == new


def test_relator_identity_detects_a_bumped_exponent(monkeypatch):
    rewritten = grouppres._rewritten_relators

    def bumped(n, p, q, s):
        for (g, e), *rest in rewritten(n, p, q, s):
            yield ((g, e + 1), *rest)

    monkeypatch.setattr(grouppres, "_rewritten_relators", bumped)
    for n, p, q, s in ((3, 1, 1, 1), (5, 2, 3, 2), (4, 1, 1, -2), (1, 0, 2, -1)):
        assert not relator_identity_check(n, p, q, s)

    # a rotation by one letter is a conjugate of the relator, but not the
    # conjugate by z(i)^c; at these specs it is also a different reduced word
    def rotated(n, p, q, s):
        for r in rewritten(n, p, q, s):
            yield r[1:] + r[:1]

    monkeypatch.setattr(grouppres, "_rewritten_relators", rotated)
    for n, p, q, s in ((5, 2, 3, 2), (4, 1, 1, -2), (3, 1, 1, -1)):
        assert not relator_identity_check(n, p, q, s)


# -------------------------------------------------------- representer poly

def test_representer_fibonacci():
    assert representer_polynomial(3, 1, 1, -1).coeffs == (1, -3, 1)


def test_representer_sieradski():
    assert representer_polynomial(5, 1, 1, 1).coeffs == (1, -1, 1)


def test_representer_degenerate_cases():
    assert representer_polynomial(4, 3, 2, 0).coeffs == (3,)
    assert representer_polynomial(1, 5, 2, 3).coeffs == (5,)
    assert representer_polynomial(2, 3, 1, 1).coeffs == (1, 2)
    assert representer_polynomial(3, 0, 0, 5).is_zero


def test_representer_value_at_one_is_p_up_to_sign():
    for n in (1, 2, 3, 5):
        for p in range(-3, 4):
            for q in range(-3, 4):
                for s in range(-3, 4):
                    rep = representer_polynomial(n, p, q, s)
                    val = rep(1) if not rep.is_zero else 0
                    assert abs(val) == abs(p)


def test_representer_resultant_gives_homology_order():
    for n in range(1, 7):
        for p in range(-3, 4):
            for q in range(-3, 4):
                if math.gcd(p, q) != 1:
                    continue
                for s in range(-3, 4):
                    g = cokernel(abelianize(cyclic_presentation(n, p, q, s)))
                    rep = representer_polynomial(n, p, q, s)
                    tn_minus_1 = IntPoly((-1,) + (0,) * (n - 1) + (1,))
                    r = abs(resultant(rep, tn_minus_1)) if not rep.is_zero else 0
                    if g.is_finite:
                        assert g.order() == r
                    else:
                        assert r == 0
