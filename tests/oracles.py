"""Independent oracles used by the test suite.

These deliberately avoid the library's own elimination code: determinants
by brute-force cofactor expansion, by Gaussian elimination over the
rationals, or modulo word-size primes joined by the CRT, resultants as
Sylvester determinants, ranks by Gaussian elimination over F_p, and
root-of-unity products in floating point.
gcd_pivot_snf is a Smith reduction too, but with a different pivot rule
from the library's: the smallest entry of the whole trailing block,
restarting on every remainder; it orders the diagonal by the pairwise
gcd/lcm passes of pairwise_chain.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def cofactor_det(rows: list[list[int]]) -> int:
    """Determinant by recursive cofactor expansion (fine for n <= 6)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, c in enumerate(rows[0]):
        if c == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * c * cofactor_det(minor)
    return total


def fraction_det(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over Q with exact fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def _is_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is exact
    below 3.18 * 10^23 (Sorenson-Webster 2015), far past 2^62."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2 or any(m % b == 0 for b in bases):
        return m in bases
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


_WORD_PRIMES: list[int] = []


def word_primes():
    """The primes below 2^62, from the top; each is searched for once, when
    the CRT first needs it."""
    yield from _WORD_PRIMES
    m = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else (1 << 62) - 1
    while True:
        if _is_prime(m):
            _WORD_PRIMES.append(m)
            yield m
        m -= 2


def det_mod(rows: list[list[int]], m: int) -> int:
    """Determinant modulo m by Gaussian elimination over Z/m on rows stored
    as {column: residue} dicts; a row with a zero in the pivot column is
    left alone.  Raises ValueError when a pivot is not a unit mod m, which
    for a prime m never happens."""
    a = [{j: x % m for j, x in enumerate(r) if x % m} for r in rows]
    n, det = len(a), 1
    for k in range(n):
        piv = next((i for i in range(k, n) if k in a[i]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pk = a[k]
        x = pk.pop(k)
        det = det * x % m
        inv = pow(x, -1, m)
        for row in a[k + 1 :]:
            c = row.pop(k, 0)
            if c:
                f = c * inv % m
                for j, y in pk.items():
                    if v := (row.get(j, 0) - f * y) % m:
                        row[j] = v
                    else:
                        row.pop(j, None)
    return det % m


def crt_det(rows: list[list[int]]) -> int:
    """Exact determinant from its residues modulo primes below 2^62 whose
    product M passes twice the Hadamard bound (the product of the row
    norms), lifted to the symmetric range.

    Z/M is Z/p1 x ... x Z/pk by the CRT, so one elimination over Z/M is an
    elimination modulo every prime at once; a pivot that is a unit modulo
    some of the primes but not all makes it one elimination per prime,
    joined by the CRT."""
    bound = math.prod(math.isqrt(sum(x * x for x in r)) + 1 for r in rows)
    primes, modulus = [], 1
    for p in word_primes():
        if modulus > 2 * bound:
            break
        primes.append(p)
        modulus *= p
    try:
        value = det_mod(rows, modulus)
    except ValueError:
        value, joined = 0, 1
        for p in primes:
            value += joined * ((det_mod(rows, p) - value) * pow(joined, -1, p) % p)
            joined *= p
    return value - modulus if 2 * value > modulus else value


def sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) of two nonzero coefficient lists (lowest degree first, no
    trailing zeros) as the determinant of the Sylvester matrix, deg g rows
    of f coefficients on top of deg f rows of g coefficients."""
    m, n = len(f) - 1, len(g) - 1
    fc, gc = f[::-1], g[::-1]
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return fraction_det(rows)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over the field F_p by straightforward Gaussian elimination."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
    return rank


def unity_root_abs_product(coeffs: list[int], n: int) -> float:
    """|product of f(zeta)| over all n-th roots of unity zeta, in floats."""
    prod = 1.0 + 0.0j
    for j in range(n):
        z = cmath.exp(2j * cmath.pi * j / n)
        prod *= sum(c * z**k for k, c in enumerate(coeffs))
    return abs(prod)


def nontrivial_unity_root_abs_product(coeffs: list[int], n: int) -> float:
    """|product of f(zeta)| over the nontrivial n-th roots of unity."""
    prod = 1.0 + 0.0j
    for j in range(1, n):
        z = cmath.exp(2j * cmath.pi * j / n)
        prod *= sum(c * z**k for k, c in enumerate(coeffs))
    return abs(prod)


def cover_matrix_by_division(delta: list[int], n: int) -> list[list[int]]:
    """Multiplication by delta on Z[t]/(1 + t + ... + t^(n-1)), n >= 2, as
    n - 1 rows: row k is delta * t^k reduced by its own long division."""
    rows = []
    for k in range(n - 1):
        rem = [0] * k + list(delta)
        for i in range(len(rem) - 1, n - 2, -1):
            c = rem[i]
            for j in range(i - n + 1, i + 1):  # subtract c * t^(i-n+1) * (1 + ... + t^(n-1))
                rem[j] -= c
        rows.append(rem[: n - 1] + [0] * (n - 1 - len(rem)))
    return rows


def _smallest_nonzero(a: list[list[int]], k: int, nrows: int, ncols: int) -> tuple[int, int] | None:
    best = None
    where = None
    for i in range(k, nrows):
        for j in range(k, ncols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                where = (i, j)
                if best == 1:
                    return where
    return where


def gcd_pivot_snf(rows: list[list[int]], ncols: int) -> tuple[int, ...]:
    """Invariant factors by a plain smallest-pivot Smith reduction: each
    step pivots on the smallest nonzero |entry| of the trailing block and
    restarts on every remainder; every row operation rewrites the whole
    row, every column operation runs over every row, and the gcd/lcm
    passes run over the whole diagonal.

    exactalg.smith_normal_form pivots column by column with extended-gcd
    operations instead; invariant factors are unique, so the two must
    agree on every input.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    steps = min(nrows, ncols)
    k = 0
    while k < steps:
        piv = _smallest_nonzero(a, k, nrows, ncols)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != k:
            a[k], a[i0] = a[i0], a[k]
        if j0 != k:
            for row in a:
                row[k], row[j0] = row[j0], row[k]
        while True:
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
            p = a[k][k]
            restart = False
            for i in range(k + 1, nrows):
                v = a[i][k]
                if v:
                    q, r = divmod(v, p)
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if r:
                        # remainder becomes the new, strictly smaller pivot
                        a[k], a[i] = a[i], a[k]
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, ncols):
                v = a[k][j]
                if v:
                    q, r = divmod(v, p)
                    for row in a:
                        row[j] -= q * row[k]
                    if r:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        restart = True
                        break
            if restart:
                continue
            break
        k += 1

    return pairwise_chain([abs(a[i][i]) for i in range(steps)])


def pairwise_chain(diag: list[int]) -> tuple[int, ...]:
    """Invariant factors of diag(diag), for nonnegative entries, by pairwise
    gcd/lcm passes over every pair of entries: diag(x, y) is unimodularly
    equivalent to diag(gcd, lcm).  The library orders the diagonal by
    factor refinement over a coprime base instead."""
    diag = list(diag)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            g = math.gcd(x, y)
            if g == 0:
                continue
            diag[i], diag[j] = g, (x // g) * y
    return tuple(diag)

