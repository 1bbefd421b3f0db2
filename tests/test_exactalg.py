import itertools
import math
import random

import pytest

from takahashi.exactalg import (
    AbelianGroup,
    BigIntMatrix,
    IntPoly,
    Rational,
    SnfResult,
    cokernel,
    cyclotomic_quotient,
    determinant,
    laurent_mul,
    lucas_resultant,
    multiplication_matrix,
    normalize_up_to_units,
    palindromic_quotient,
    poly_divmod,
    prime_part,
    resultant,
    ring_quotient,
    smith_normal_form,
    smith_power_2x2,
)
from takahashi.exactalg import _circulant, _power_2x2, _power_mod

from oracles import (
    cofactor_det,
    crt_det,
    fraction_det,
    gcd_pivot_snf,
    pairwise_chain,
    rank_mod_p,
    sylvester_resultant,
    unity_root_abs_product,
    word_primes,
)


# ---------------------------------------------------------------- rationals

def test_rational_reduces_but_keeps_signs():
    assert (Rational(4, 6).num, Rational(4, 6).den) == (2, 3)
    assert (Rational(-4, 6).num, Rational(-4, 6).den) == (-2, 3)
    assert (Rational(3, -1).num, Rational(3, -1).den) == (3, -1)
    assert (Rational(2, 0).num, Rational(2, 0).den) == (1, 0)
    assert Rational(1, 0).is_infinite


def test_rational_rejects_zero_over_zero():
    with pytest.raises(ValueError):
        Rational(0, 0)


def test_rational_str():
    assert str(Rational(3, 1)) == "3"
    assert str(Rational(3, -2)) == "3/-2"
    assert str(Rational(1, 0)) == "inf"


# ----------------------------------------------------------------- matrices

def test_matrix_shape_validation():
    for bad in (
        lambda: BigIntMatrix.from_rows([[1, 2], [3]], ncols=2),  # a short row
        lambda: BigIntMatrix(2, 2, ({0: 1, 1: 2},)),  # fewer rows than nrows
        lambda: BigIntMatrix(-1, 0, ()),
        lambda: BigIntMatrix.from_rows([[1, 2], [3]]),
        lambda: BigIntMatrix.from_rows([[1, 2]], ncols=3),
        lambda: BigIntMatrix(1, 2, ({2: 1},)),  # a column >= ncols
        lambda: BigIntMatrix(1, 2, ({-1: 1},)),  # a negative column
        lambda: BigIntMatrix(1, 2, ({0: 0},)),  # a stored zero
    ):
        with pytest.raises(ValueError):
            bad()
    m = BigIntMatrix.from_rows([[], []])
    assert (m.nrows, m.ncols, m.to_lists()) == (2, 0, [[], []])
    assert cokernel(m).is_trivial
    m = BigIntMatrix.from_rows([[0, 5, 0], [-1, 0, 2]])
    assert m.entries == ({1: 5}, {0: -1, 2: 2})
    assert m.to_lists() == [[0, 5, 0], [-1, 0, 2]]
    smith_normal_form(m)
    assert m.entries == ({1: 5}, {0: -1, 2: 2})  # the reduction works on copies


def test_empty_matrix_allowed():
    m = BigIntMatrix.from_rows([], ncols=5)
    assert smith_normal_form(m).invariant_factors == ()
    assert cokernel(m) == AbelianGroup((), 5)


# ---------------------------------------------------------------------- SNF

def test_snf_identity():
    snf = smith_normal_form(BigIntMatrix.identity(3))
    assert snf.invariant_factors == (1, 1, 1)


def test_snf_diagonal_2_3():
    snf = smith_normal_form(BigIntMatrix.diagonal([2, 3]))
    assert snf.invariant_factors == (1, 6)


def test_snf_zero_matrix():
    snf = smith_normal_form(BigIntMatrix(2, 3, ({}, {})))
    assert smith_normal_form(BigIntMatrix.from_rows([[0] * 3] * 2)) == snf
    assert snf.invariant_factors == (0, 0)
    assert snf.rank == 0


def test_snf_random_divisibility_and_determinant():
    # acceptance suite: 200 random matrices, dims <= 6, entries in [-9, 9]
    rng = random.Random(20260810)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        snf = smith_normal_form(BigIntMatrix.from_rows(rows))
        facs = snf.invariant_factors
        assert len(facs) == min(nr, nc)
        nonzero = [d for d in facs if d]
        assert facs == tuple(nonzero) + (0,) * (len(facs) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        if nr == nc:
            det = cofactor_det(rows)
            if det == 0:
                assert len(nonzero) < nr
            else:
                assert len(nonzero) == nr
                assert math.prod(nonzero) == abs(det)
        # structural cross-check: factors divisible by p (or zero) count
        # min(nr, nc) - rank over F_p
        for p in (2, 3, 5, 7):
            divisible = sum(1 for d in facs if d % p == 0)
            assert divisible == min(nr, nc) - rank_mod_p(rows, p)


def test_snf_result_checks_its_chain():
    # 1s first, zeros last, each factor dividing the next; the runs of 1s
    # and zeros are checked apart from the factors between them
    for facs in [(), (0,), (1,), (1, 1, 2, 4, 0), (3, 0, 0), (1, 1, 6, 12, 12)]:
        assert SnfResult(facs).invariant_factors == facs
        assert SnfResult(facs).rank == len(facs) - facs.count(0)
    for facs in [(-2,), (1, -1), (1, 4, -8), (0, 1), (2, 0, 2), (2, 1), (1, 2, 1), (2, 3), (1, 4, 6, 0)]:
        with pytest.raises(ValueError):
            SnfResult(facs)


def test_snf_chain_fixup_with_ones_and_zeros():
    # the gcd/lcm passes skip the ones, which must still lead the chain,
    # and move the zeros to the end
    for diag, facs in (
        ([1, 0, 6, 1, 4], (1, 1, 2, 12, 0)),
        ([6, 1, 1, 4], (1, 1, 2, 12)),
        ([0, 1], (1, 0)),
        ([1, 1, 1], (1, 1, 1)),
        ([4, 0, 0, 1, 2, 1], (1, 1, 2, 4, 0, 0)),
        ([12, 18, 8, 27], (1, 6, 36, 216)),
        ([6, 4, 9], (1, 6, 36)),
        ([3] * 5, (3,) * 5),
    ):
        assert smith_normal_form(BigIntMatrix.diagonal(diag)).invariant_factors == facs


def test_snf_chain_matches_pairwise_oracle():
    # factor refinement over a coprime base against pairwise gcd/lcm passes;
    # the composite bases 6, 12 and 18 share primes in different
    # proportions, so the refinement must split them
    rng = random.Random("snf-chain")
    bases = (2, 3, 4, 5, 6, 9, 12, 18, 35, 7**5)
    for _ in range(400):
        diag = []
        for _ in range(rng.randint(0, 30)):
            kind = rng.random()
            if kind < 0.1:
                d = 0
            elif kind < 0.2:
                d = 1
            elif kind < 0.8:
                d = math.prod(rng.choice(bases) ** rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            else:
                d = rng.randint(2, 10**6)
            diag.append(rng.choice((1, -1)) * d)
        facs = smith_normal_form(BigIntMatrix.diagonal(diag)).invariant_factors
        assert facs == pairwise_chain([abs(d) for d in diag]), diag


def _random_snf_input(rng, kind):
    """(rows, ncols) of one of the shapes the homology routes hand to the
    Smith form; sizes 0..12."""
    nr = rng.randint(0, 12)
    nc = nr if kind in ("dense", "banded", "unit") else rng.randint(0, 12)
    if kind == "dense":
        return [[rng.randint(-99, 99) for _ in range(nc)] for _ in range(nr)], nc
    if kind == "banded":
        # sparse pivot rows, like the surgery matrix: a band plus a corner
        rows = [[rng.randint(-9, 9) if abs(i - j) <= 1 else 0 for j in range(nc)]
                for i in range(nr)]
        if nr > 2:
            rows[0][-1] = rng.randint(-3, 3)
        return rows, nc
    if kind == "unit":
        return [[rng.choice((-1, 0, 0, 1)) for _ in range(nc)] for _ in range(nr)], nc
    if kind == "deficient":
        r = rng.randint(0, max(0, min(nr, nc) - 1))
        u = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(nr)]
        v = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(r)]
        return [[sum(u[i][t] * v[t][j] for t in range(r)) for j in range(nc)]
                for i in range(nr)], nc
    # non-square, entries sparse and dense alike
    density = rng.random()
    return [[rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(nc)]
            for _ in range(nr)], nc


@pytest.mark.parametrize("kind", ["dense", "banded", "unit", "deficient", "nonsquare"])
def test_snf_matches_gcd_pivot_oracle_random(kind):
    rng = random.Random(f"snf-{kind}")
    for _ in range(300):
        rows, nc = _random_snf_input(rng, kind)
        snf = smith_normal_form(BigIntMatrix.from_rows(rows, ncols=nc))
        assert snf.invariant_factors == gcd_pivot_snf(rows, nc), rows


@pytest.mark.parametrize("kind", ["banded", "sparse"])
def test_snf_matches_gcd_pivot_oracle_large(kind):
    # sizes past the random kinds above, where the column index sees fill
    # spread over many rows and columns.  banded: offsets -1..2 with zeros
    # in the band and wrap-around corners like the surgery matrix's;
    # sparse: whole rows and columns zero, so zero pivots swap rows and
    # zero columns are passed over often
    rng = random.Random(f"snf-large-{kind}")
    for _ in range(150):
        nr = rng.randint(13, 40)
        if kind == "banded":
            nc = nr
            # entries up to 9 let the plain reduction of the oracle run for
            # seconds on some of these sizes
            rows = [[rng.randint(-5, 5) if -1 <= j - i <= 2 and rng.random() < 0.8 else 0
                     for j in range(nc)] for i in range(nr)]
            for i, j in ((nr - 1, 0), (nr - 2, 0), (nr - 1, 1), (0, nc - 1)):
                rows[i][j] = rng.randint(-3, 3)
        else:
            nc = rng.randint(13, 40)
            zero_rows = set(rng.sample(range(nr), nr // 3))
            zero_cols = set(rng.sample(range(nc), nc // 3))
            rows = [[rng.randint(-5, 5) if i not in zero_rows and j not in zero_cols
                     and rng.random() < 0.15 else 0 for j in range(nc)] for i in range(nr)]
        snf = smith_normal_form(BigIntMatrix.from_rows(rows, ncols=nc))
        assert snf.invariant_factors == gcd_pivot_snf(rows, nc), rows


def _transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def _random_row_operation(rng, rows):
    """Add a multiple of one row to another, swap two rows or negate one."""
    if len(rows) < 2:
        rows[:] = [[-x for x in row] for row in rows]
        return
    i, j = rng.sample(range(len(rows)), 2)
    op = rng.choice(("add", "swap", "negate"))
    if op == "add":
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    elif op == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        rows[i] = [-x for x in rows[i]]


@pytest.mark.parametrize("kind", ["dense", "banded", "unit", "deficient", "nonsquare"])
def test_snf_invariant_under_transpose_and_unimodular_operations(kind):
    # the reduction pivots column by column and treats rows and columns
    # differently; the invariant factors depend on neither
    rng = random.Random(f"snf-invariance-{kind}")
    for _ in range(200):
        rows, nc = _random_snf_input(rng, kind)
        nr = len(rows)
        facs = smith_normal_form(BigIntMatrix.from_rows(rows, ncols=nc)).invariant_factors
        transposed = BigIntMatrix.from_rows(_transpose(rows, nc), ncols=nr)
        assert smith_normal_form(transposed).invariant_factors == facs, rows
        mixed = [list(r) for r in rows]
        for _ in range(20):
            if rng.random() < 0.5:
                _random_row_operation(rng, mixed)
            else:
                columns = _transpose(mixed, nc)
                _random_row_operation(rng, columns)
                mixed = _transpose(columns, nr)
        assert smith_normal_form(BigIntMatrix.from_rows(mixed, ncols=nc)).invariant_factors == facs, rows


def test_snf_matches_sympy_random():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    rng = random.Random(20261018)
    for _ in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-12, 12) if rng.random() < 0.7 else 0 for _ in range(nc)]
                for _ in range(nr)]
        theirs = normalforms.invariant_factors(Matrix(rows), domain=ZZ)
        ours = smith_normal_form(BigIntMatrix.from_rows(rows)).invariant_factors
        assert ours == tuple(abs(int(d)) for d in theirs), rows


def test_cokernel_free_rank():
    m = BigIntMatrix.from_rows([[2, 0, 0], [0, 0, 0]])
    assert cokernel(m) == AbelianGroup((2,), 2)


# -------------------------------------------------------------- determinant

def test_determinant_identity_and_diag():
    assert determinant(BigIntMatrix.identity(4)) == 1
    assert determinant(BigIntMatrix.diagonal([2, 3])) == 6
    assert determinant(BigIntMatrix.from_rows([], ncols=0)) == 1


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(BigIntMatrix.from_rows([[1, 2]]))


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(BigIntMatrix.from_rows(rows)) == cofactor_det(rows)


def test_determinant_matches_fraction_elimination_random():
    # sparse rows make zero pivots, zero pivot-column entries and repeated
    # pivots; a row made a multiple of another makes the matrix singular
    rng = random.Random(20261018)
    for _ in range(600):
        n = rng.randint(0, 9)
        density = rng.choice((0.2, 0.5, 1.0))
        big = rng.choice((3, 10**9))
        rows = [[rng.randint(-big, big) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.25:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            rows[i] = [c * y for y in rows[j]]
        assert determinant(BigIntMatrix.from_rows(rows, ncols=n)) == fraction_det(rows)


def test_crt_oracle_matches_fraction_elimination():
    # the oracle that replaces Bareiss on the surgery determinants; an entry
    # equal to one of its primes makes a pivot that is no unit modulo the
    # product, and the oracle falls back to one elimination per prime
    rng = random.Random(6262)
    for _ in range(300):
        n = rng.randint(0, 8)
        big = rng.choice((9, 10**30))
        rows = [[rng.randint(-big, big) if rng.random() < 0.5 else 0 for _ in range(n)]
                for _ in range(n)]
        assert crt_det(rows) == fraction_det(rows), rows
    p, p2 = itertools.islice(word_primes(), 2)
    for rows in ([[p, 1], [1, 1]], [[p, 1, 0], [3, 1, 2], [0, 5, p2]], [[p]]):
        assert crt_det(rows) == fraction_det(rows), rows


# ------------------------------------------------------------- polynomials

def test_intpoly_strips_leading_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).is_zero


def test_intpoly_degree_of_zero_rejected():
    with pytest.raises(ValueError):
        IntPoly(()).degree


def test_intpoly_arithmetic():
    f = IntPoly((1, 1))
    assert f(3) == 4
    assert IntPoly((1, -3, 1))(1) == -1


def test_poly_divmod_exact():
    f = IntPoly((-1, 0, 0, 0, 0, 0, 1))  # t^6 - 1
    g = IntPoly((-1, 0, 0, 1))  # t^3 - 1
    q, r = poly_divmod(f, g)
    assert r.is_zero
    assert q.coeffs == (1, 0, 0, 1)


def test_poly_divmod_remainder():
    q, r = poly_divmod(IntPoly((0, 0, 1)), IntPoly((1, 1, 1)))
    assert q.coeffs == (1,)
    assert r.coeffs == (-1, -1)


# --------------------------------------------------------------- resultant

def test_resultant_linear_vs_cyclotomic():
    assert resultant(IntPoly((-2, 1)), IntPoly((-1, 0, 0, 1))) == 7


def test_resultant_against_constant():
    f = IntPoly((1, 4, 0, 2))
    assert resultant(f, IntPoly((5,))) == 5 ** f.degree
    assert resultant(IntPoly((3,)), IntPoly((4,))) == 1


def test_resultant_quadratics_sylvester_oracle():
    # Res(t^2-3t+1, t^2+t+1) via an explicit 4x4 Sylvester determinant
    syl = [
        [1, -3, 1, 0],
        [0, 1, -3, 1],
        [1, 1, 1, 0],
        [0, 1, 1, 1],
    ]
    assert cofactor_det(syl) == 16
    assert resultant(IntPoly((1, -3, 1)), IntPoly((1, 1, 1))) == 16


def test_resultant_zero_cases():
    with pytest.raises(ValueError):
        resultant(IntPoly(()), IntPoly(()))
    assert resultant(IntPoly(()), IntPoly((1, 1))) == 0


def test_resultant_swap_sign():
    f = IntPoly((1, -3, 1))
    g = IntPoly((2, 0, 1, 1))
    assert resultant(g, f) == (-1) ** (f.degree * g.degree) * resultant(f, g)


def _random_poly(rng, degree, bound):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or rng.choice((-1, 1)) * bound
    return IntPoly(tuple(coeffs))


def _times(f, g):
    """f * g for nonzero f and g, through the library's Laurent product."""
    d = laurent_mul(dict(enumerate(f.coeffs)), dict(enumerate(g.coeffs)))
    return IntPoly(tuple(d.get(e, 0) for e in range(max(d) + 1)))


def test_resultant_matches_sylvester_oracle_random():
    # exact equality, sign included: degrees 0-8 (constants among them),
    # coefficients up to 10^12, and a forced common factor in a fifth of
    # the pairs, where the resultant must vanish
    rng = random.Random(3307)
    for _ in range(400):
        bound = rng.choice((1, 5, 10**4, 10**12))
        f = _random_poly(rng, rng.randint(0, 8), bound)
        g = _random_poly(rng, rng.randint(0, 8), bound)
        shared = rng.random() < 0.2
        if shared:
            h = _random_poly(rng, rng.randint(1, 3), 5)
            f, g = _times(f, h), _times(g, h)
        expected = sylvester_resultant(list(f.coeffs), list(g.coeffs))
        assert resultant(f, g) == expected
        if shared:
            assert expected == 0


def test_resultant_multiplicative_up_to_sign():
    rng = random.Random(99)
    for _ in range(40):
        def rand_poly():
            while True:
                p = IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
                if not p.is_zero:
                    return p

        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert abs(resultant(_times(f, g), h)) == abs(resultant(f, h) * resultant(g, h))


# ------------------------------------- cyclotomic / multiplication matrix

def t_n_minus_1(n):
    return IntPoly((-1,) + (0,) * (n - 1) + (1,)) if n else IntPoly(())


def test_cyclotomic_quotient():
    assert cyclotomic_quotient(1).coeffs == (1,)
    assert cyclotomic_quotient(2).coeffs == (1, 1)
    assert cyclotomic_quotient(3).coeffs == (1, 1, 1)
    with pytest.raises(ValueError):
        cyclotomic_quotient(0)


def test_multiplication_matrix_rows_are_remainders():
    # row k is f * t^k mod g, for f of any degree (zero included) and g
    # monic up to sign (constant g included, which gives the 0 x 0 matrix)
    rng = random.Random(8080)
    moduli = [t_n_minus_1(n) for n in range(1, 7)] + [cyclotomic_quotient(n) for n in range(1, 7)]
    moduli += [IntPoly((-1, 2, 0, -1)), IntPoly((1,)), IntPoly((-1,))]
    for _ in range(30):
        d = rng.randint(0, 6)
        moduli.append(IntPoly(tuple(rng.randint(-4, 4) for _ in range(d)) + (rng.choice((1, -1)),)))
    for g in moduli:
        d = g.degree
        polys = [IntPoly(())] + [
            IntPoly(tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, d + 5)))) for _ in range(8)
        ]
        for f in polys:
            m = multiplication_matrix(f, g)
            assert (m.nrows, m.ncols) == (d, d)
            rows = m.to_lists()
            for k in range(d):
                rem = poly_divmod(IntPoly((0,) * k + f.coeffs), g)[1].coeffs
                assert rows[k] == list(rem) + [0] * (d - len(rem)), (f, g, k)


def test_multiplication_matrix_rejects_a_non_unit_leading_coefficient():
    for g in (IntPoly(()), IntPoly((1, 2)), IntPoly((3,)), IntPoly((1, 0, -2))):
        with pytest.raises(ValueError):
            multiplication_matrix(IntPoly((1, 1)), g)


def test_ring_quotient_either_side():
    # Z[t]/(f, t^n - 1) from f on Z[t]/(t^n - 1) and, when f is monic up
    # to sign, from t^n - 1 on Z[t]/(f); zero, unit, equal-degree and
    # higher-degree f included
    rng = random.Random(1717)
    for n in range(1, 41):
        g = t_n_minus_1(n)
        for _ in range(15):
            lead = rng.choice((1, -1, 1, -1, 2, -3, 0))
            f = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 6))) + (lead,))
            group = ring_quotient(f, n)
            assert type(group.free_rank) is int
            assert group == cokernel(multiplication_matrix(f, g)), (f, n)
            if not f.is_zero and f.coeffs[-1] in (1, -1):
                assert group == cokernel(multiplication_matrix(g, f)), (f, n)
    # (t - 1)^2 divides both sides at once: Z/n + Z, det = 0 with d1 = n
    for n in range(3, 9):
        group = ring_quotient(IntPoly((1, -2, 1)), n)
        assert group == AbelianGroup((n,), 1) and type(group.free_rank) is int
    assert ring_quotient(IntPoly((-1,)), 5) == AbelianGroup()
    assert ring_quotient(IntPoly(()), 3) == AbelianGroup((), 3)
    assert ring_quotient(IntPoly((6,)), 4) == AbelianGroup((6,) * 4)
    for n in (0, -1):
        with pytest.raises(ValueError):
            ring_quotient(IntPoly((1, -1, 1)), n)


def test_palindromic_quotient_at_n_one_and_at_a_double_root():
    # at n = 1 the group is Z/|2x + y|: x = y = 2 gives Z/6, where the
    # form for n >= 2 would give Z/2 + Z/6
    assert palindromic_quotient(2, 2, 1) == (2, (1, 6))
    assert ring_quotient(IntPoly((2, 2, 2)), 1) == AbelianGroup((6,))
    # 2x + y = 0: f = x (t - 1)^2, so Z/|x| n - 2 times, Z/(|x| n) and Z
    for x in (1, -1, 3, -4):
        for n in range(2, 9):
            assert palindromic_quotient(x, -2 * x, n) == (abs(x), (abs(x) * n, 0)), (x, n)
            expected = AbelianGroup((abs(x),) * (n - 2) + (abs(x) * n,) if abs(x) > 1 else (n,), 1)
            assert ring_quotient(IntPoly((x, -2 * x, x)), n) == expected, (x, n)


def _seeded_polys(rng):
    """Quadratics monic up to sign (palindromic or not), palindromic
    quadratics x t^2 + y t + x with |x| > 1 (negative x, content > 1 and
    2x + y = 0, a Z summand, among them), monic polynomials of degree 0,
    1, 3 and 4, non-monic ones of degree 1 to 4, and the zero
    polynomial."""
    kind = rng.random()
    if kind < 0.4:
        c0, c1 = rng.randint(-9, 9), rng.randint(-9, 9)
        if kind < 0.08:
            c0 = rng.choice((1, -1))  # palindromic up to sign
        return IntPoly((c0, c1, rng.choice((1, -1))))
    if kind < 0.55:
        x = rng.choice((1, -1)) * rng.randint(2, 12)
        y = -2 * x if rng.random() < 0.1 else rng.randint(-20, 20)
        k = rng.choice((1, 1, 2, 3))
        return IntPoly((k * x, k * y, k * x))
    if kind < 0.75:
        d = rng.choice((0, 1, 3, 4))
        return IntPoly(tuple(rng.randint(-5, 5) for _ in range(d)) + (rng.choice((1, -1)),))
    if kind < 0.98:
        d = rng.randint(1, 4)
        lead = rng.choice((2, -2, 3, -5, 12))
        return IntPoly(tuple(rng.randint(-5, 5) for _ in range(d)) + (lead,))
    return rng.choice((IntPoly(()), IntPoly((rng.randint(2, 9),))))


def test_ring_quotient_matches_the_circulant_on_seeded_polynomials():
    # 20,000 (f, n) with n = 1..60: every route of ring_quotient against the
    # Smith form of the n x n circulant multiplication_matrix(f, t^n - 1),
    # which the non-monic route builds sparse, entry for entry
    rng = random.Random(2323)
    moduli = {n: t_n_minus_1(n) for n in range(1, 61)}
    seen, palindromic = set(), set()
    for _ in range(20_000):
        f, n = _seeded_polys(rng), rng.randint(1, 60)
        circulant = multiplication_matrix(f, moduli[n])
        assert ring_quotient(f, n) == cokernel(circulant), (f, n)
        monic = not f.is_zero and f.coeffs[-1] in (1, -1)
        if not monic:
            assert _circulant(f, n) == circulant, (f, n)
        seen.add((len(f.coeffs), monic, f.coeffs == f.coeffs[::-1]))
        if len(f.coeffs) == 3 and f.coeffs[0] == f.coeffs[2] and not monic:
            x, y, _ = f.coeffs
            palindromic.update({"x < 0"} if x < 0 else set())
            palindromic.update({"content > 1"} if math.gcd(x, y) > 1 else set())
            palindromic.update({"2x + y = 0"} if 2 * x + y == 0 else set())
            palindromic.add(f"n = {min(n, 3)}")
    # (number of coefficients, monic up to sign): every degree 0-4 monic,
    # and the zero polynomial, non-unit constants and degrees 1-4 not
    assert {(k, m) for k, m, _ in seen} == {(k, True) for k in range(1, 6)} | {
        (k, False) for k in range(6)}
    assert (3, True, True) in seen and (3, True, False) in seen
    # palindromic quadratics with |x| > 1, at n = 1, 2 and beyond
    assert palindromic == {"x < 0", "content > 1", "2x + y = 0", "n = 1", "n = 2", "n = 3"}


def test_doubling_remainders_match_long_division():
    # t^m mod f by doubling against long division, for f monic up to sign
    # of degree 0-4 and m = 0..300, so m <= deg f is included; for the
    # quadratics also the companion power C^m, whose rows are t^m mod f
    # and t^(m+1) mod f
    rng = random.Random(1919)
    quadratics = 0
    for _ in range(80):
        d = rng.choice((0, 1, 2, 2, 3, 4))
        f = IntPoly(tuple(rng.randint(-6, 6) for _ in range(d)) + (rng.choice((1, -1)),))
        c = f.coeffs
        for m in [0, 1, 2, 3, 4, 5] + rng.sample(range(6, 301), 12):
            rems = []
            for k in (m, m + 1):
                rem = list(poly_divmod(IntPoly((0,) * k + (1,)), f)[1].coeffs)
                rems += rem + [0] * (d - len(rem))
            assert _power_mod(m, f) == rems[:d], (f, m)
            if d == 2:
                assert _power_2x2((0, 1, -c[2] * c[0], -c[2] * c[1]), m) == tuple(rems), (f, m)
        quadratics += d == 2
    assert quadratics >= 20


def test_power_2x2_matches_repeated_products():
    rng = random.Random(4141)
    for _ in range(100):
        w, x, y, z = m = tuple(rng.randint(-5, 5) for _ in range(4))
        a, b, c, d = 1, 0, 0, 1
        for n in range(40):
            assert _power_2x2(m, n) == (a, b, c, d), (m, n)
            a, b, c, d = a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def test_prime_part_matches_the_factored_form():
    # x and m are built from their factorizations, with exponents up to 60
    # in x, so that h <- gcd(x, h^2) runs several rounds
    rng = random.Random(5151)
    for _ in range(2000):
        exponents = {ell: rng.choice((0, 0, 1, 2, rng.randint(3, 60))) for ell in SMALL_PRIMES}
        x = rng.choice((1, -1)) * math.prod(ell**e for ell, e in exponents.items())
        primes_of_m = [ell for ell in SMALL_PRIMES if rng.random() < 0.4]
        m = rng.choice((1, -1)) * math.prod(ell ** rng.randint(1, 3) for ell in primes_of_m)
        expected = math.prod(ell ** exponents[ell] for ell in primes_of_m)
        assert prime_part(x, m) == expected, (x, m)
        assert prime_part(x, 0) == abs(x)
        assert prime_part(0, m) == 0


def test_smith_power_2x2_matches_gcd_pivot_oracle():
    # the two matrices of the transfer route, T = [[qs, -rs], [pq, qs - pr]]
    # with u = qs (manifolds.h1_transfer) and K = [[0, -a], [a, -b]] with
    # u = a (palindromic_quotient), both of determinant u^2; the oracle's
    # factors of M^n - u^n I lose the primes of u by trial division
    rng = random.Random(5252)
    for _ in range(400):
        p, q, r, s = (rng.choice((1, -1)) * rng.choice(SMALL_PRIMES + (1, 4, 6, 9))
                      for _ in range(4))
        a, b = q * s, rng.randint(-30, 30)
        for m, u in (((q * s, -r * s, p * q, q * s - p * r), q * s), ((0, -a, a, -b), a)):
            n = rng.randint(1, 12)
            w, x, y, z = _power_2x2(m, n)
            expected = []
            for d in gcd_pivot_snf([[w - u**n, x], [y, z - u**n]], 2):
                for ell in SMALL_PRIMES:
                    while d and u % ell == 0 and d % ell == 0:
                        d //= ell
                expected.append(d)
            assert smith_power_2x2(m, u, n) == tuple(expected), (m, u, n)
    # a zero factor stays 0: K^6 = I for f1 = t^2 - t + 1, and a shear
    assert smith_power_2x2((0, -1, 1, 1), 1, 6) == (0, 0)
    assert smith_power_2x2((1, 1, 0, 1), 1, 12) == (12, 0)
    assert smith_power_2x2((2, 2, 0, 2), 2, 3) == (3, 0)


def test_lucas_resultant_matches_the_subresultant_sequence():
    # 6000 quadratics with |coefficients| <= 50 and n <= 60; a quarter have
    # a zero coefficient, so a linear or constant f and the zero f occur
    rng = random.Random(7373)
    zeros = [0, 0, 0]
    for _ in range(6000):
        f = [rng.randint(-50, 50) for _ in range(3)]
        if rng.random() < 0.25:
            for i in rng.sample(range(3), rng.choice((1, 1, 2, 3))):
                f[i] = 0
        for i in range(3):
            zeros[i] += not f[i]
        c, b, a = f
        n = rng.randint(1, 60)
        assert lucas_resultant(a, b, c, n) == resultant(t_n_minus_1(n), IntPoly(tuple(f))), (f, n)
    assert min(zeros) > 300


def test_circulant_trivial_cases():
    assert multiplication_matrix(IntPoly((1,)), t_n_minus_1(4)).to_lists() == BigIntMatrix.identity(4).to_lists()
    perm = multiplication_matrix(IntPoly((0, 1)), t_n_minus_1(3))
    assert abs(determinant(perm)) == 1
    assert perm.to_lists()[0][:2] == [0, 1]
    with pytest.raises(ValueError):
        multiplication_matrix(IntPoly((1,)), t_n_minus_1(0))


def test_circulant_of_representer_is_15():
    f = IntPoly((2, -1, 2))
    m = multiplication_matrix(f, t_n_minus_1(4))
    assert cofactor_det(m.to_lists()) == 15
    assert abs(determinant(m)) == 15
    assert abs(resultant(f, IntPoly((-1, 0, 0, 0, 1)))) == 15


def test_circulant_resultant_identity_random():
    # acceptance suite: 100 random (f, n) pairs, deg <= 4, coeffs in [-5, 5]
    rng = random.Random(424242)
    checked = 0
    while checked < 100:
        coeffs = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
        f = IntPoly(coeffs)
        if f.is_zero:
            continue
        n = rng.randint(1, 6)
        tn_minus_1 = t_n_minus_1(n)
        lhs = abs(determinant(multiplication_matrix(f, tn_minus_1)))
        rhs = abs(resultant(f, tn_minus_1))
        assert lhs == rhs
        approx = unity_root_abs_product(list(f.coeffs), n)
        assert abs(approx - lhs) <= 1e-6 * max(1.0, lhs)
        checked += 1


# ------------------------------------------------------------ unit normals

def test_normalize_flips_sign():
    assert normalize_up_to_units(IntPoly((-1, 3, -1))).coeffs == (1, -3, 1)


def test_normalize_shifts_out_t_powers():
    assert normalize_up_to_units(IntPoly((0, 0, 0, 1, -1))).coeffs == (1, -1)
    assert normalize_up_to_units({-3: 2, -2: -2}).coeffs == (2, -2)


def test_normalize_idempotent_and_zero():
    assert normalize_up_to_units(IntPoly(())).is_zero
    rng = random.Random(5)
    for _ in range(50):
        p = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5))))
        once = normalize_up_to_units(p)
        assert normalize_up_to_units(once) == once
        if not p.is_zero:
            for n in range(1, 7):
                nu = cyclotomic_quotient(n)
                assert abs(resultant(once, nu)) == abs(resultant(p, nu))


# ------------------------------------------------------------ group values

def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((4, 6))
    with pytest.raises(ValueError):
        AbelianGroup((), -1)


def test_abelian_group_order_is_the_product_of_the_chain():
    # the order takes one power per run of equal factors; seeded chains
    # with long runs and with none, against the plain product
    rng = random.Random(6161)
    for _ in range(200):
        chain, d = [], rng.randint(2, 6)
        for _ in range(rng.randint(0, 12)):
            chain += [d] * rng.choice((1, 1, 2, rng.randint(3, 60)))
            d *= rng.choice((2, 3, 5, 7, 10**20 + 39))
        group = AbelianGroup(tuple(chain))
        assert group.order() == math.prod(chain)
        assert AbelianGroup(tuple(chain), rng.randint(1, 3)).order() is None
    assert AbelianGroup((6,) * 99_999 + (18,)).order() == 6**99_999 * 18
    assert AbelianGroup(()).order() == 1


def test_abelian_group_order_and_str():
    assert AbelianGroup().order() == 1
    assert AbelianGroup((), 3).order() is None
    assert AbelianGroup((3, 12)).order() == 36
    assert AbelianGroup((2,), 1).order() is None
    assert str(AbelianGroup()) == "trivial"
    assert str(AbelianGroup((3, 12), 2)) == "Z/3 + Z/12 + Z^2"
    assert str(AbelianGroup((), 1)) == "Z"
