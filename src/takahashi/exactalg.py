"""Exact arithmetic substrate: big-integer matrices, Smith normal form,
fraction-free determinants, integer and Laurent polynomials, resultants,
and invariant-factor decompositions of finitely generated abelian groups.

Relation matrices have 2n rows for M_n, a few hundred in practice, and
their entries can grow during elimination.  The Smith reduction pivots
column by column with extended-gcd row and column operations and writes
only the entries an elimination step can change; on the banded surgery
matrix the fill stays in the band and the wrap-around rows and columns.
Resultants build no matrix: they run the subresultant remainder sequence,
which is also how the surgery determinant is computed
(manifolds.takahashi_determinant).  `determinant`, Bareiss' exact-division
elimination of a whole matrix, has no caller in the library.
Everything is an immutable value and every operation is a pure function;
Python ints give arbitrary precision for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Rational",
    "BigIntMatrix",
    "SnfResult",
    "IntPoly",
    "AbelianGroup",
    "smith_normal_form",
    "determinant",
    "cokernel",
    "resultant",
    "cyclotomic_quotient",
    "multiplication_matrix",
    "ring_quotient",
    "normalize_up_to_units",
    "poly_divmod",
    "laurent_add",
    "laurent_sub",
    "laurent_mul",
]


@dataclass(frozen=True)
class Rational:
    """Reduced fraction num/den; den == 0 encodes the infinite coefficient.

    Only the gcd is removed here.  Component signs are preserved as given
    (3/-1 and -3/1 stay distinct), because two-bridge normalization is
    sensitive to the sign of the denominator; the surgery-spec convention
    "numerator nonnegative" is applied by manifolds.normalize_spec.
    """

    num: int
    den: int

    def __post_init__(self):
        if self.num == 0 and self.den == 0:
            raise ValueError("0/0 is not a valid coefficient")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def __neg__(self) -> "Rational":
        return Rational(-self.num, self.den)

    def __str__(self) -> str:
        if self.den == 0:
            return "inf" if self.num > 0 else "-inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class BigIntMatrix:
    """Integer matrix stored as a tuple of its rows, the layout the relation
    builders produce and the reductions consume; rows or columns may number
    zero, and ncols is kept so that a matrix with no rows has a width."""

    nrows: int
    ncols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rows = tuple(tuple(r) for r in self.rows)
        if len(rows) != self.nrows or any(len(r) != self.ncols for r in rows):
            raise ValueError("rows do not match dimensions")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "BigIntMatrix":
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "BigIntMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, diag: Iterable[int]) -> "BigIntMatrix":
        d = list(diag)
        n = len(d)
        return cls(n, n, tuple(tuple(d[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class SnfResult:
    """Diagonal of the Smith normal form: nonnegative, divisibility-chained,
    with zero factors (if any) at the end."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        for d in facs:
            if d < 0:
                raise ValueError("invariant factors must be nonnegative")
        for a, b in zip(facs, facs[1:]):
            if a == 0 and b != 0:
                raise ValueError("zero factors must come last")
            if a != 0 and b != 0 and b % a != 0:
                raise ValueError("broken divisibility chain")

    @property
    def rank(self) -> int:
        return sum(1 for d in self.invariant_factors if d != 0)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    torsion holds the factors > 1, each dividing the next; free_rank counts
    the Z summands.  Equality is structural, which is exactly isomorphism.
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        tor = tuple(self.torsion)
        object.__setattr__(self, "torsion", tor)
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in tor:
            if d <= 1:
                raise ValueError("torsion factors must exceed 1")
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError("broken divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "trivial"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b == g == gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def smith_normal_form(m: BigIntMatrix) -> SnfResult:
    """Invariant factors of an integer matrix by column-order gcd pivots
    (Kannan-Bachem 1979; Cohen, A Course in Computational Algebraic
    Number Theory, Sec. 2.4).

    Row and column operations are unimodular throughout, so the product of
    the nonzero factors equals the absolute value of the product of the
    elementary divisors of the input.

    Step k pivots in column k.  A row below k with entry v there is folded
    into row k: a multiple of row k is subtracted when the pivot p divides
    v, and otherwise both rows are replaced by [[s, t], [-v/g, p/g]] times
    them, where s*p + t*v = g = gcd(p, v).  Row k is then cleared by the
    same operations on columns.  A column operation that refills column k
    repeats the step; each one that does replaces the pivot by a proper
    divisor, so the step ends.  Rows are swapped only for a zero pivot,
    and columns only when column k is zero from row k down.  Before step
    k, rows and columns 0..k-1 are zero off the diagonal, so the loop
    skips what cannot change:

    - a subtraction visits only the pivot row's nonzero columns from k
      on, since both rows are zero left of k and a zero in the pivot row
      leaves the target entry as it is;
    - once column k is clear, subtracting q times it from column j
      changes row k alone, so the column phase writes 0 into a[k][j];
    - the gcd/lcm passes that order the diagonal into a divisibility
      chain skip entries equal to 1, which divide everything.

    Entries still grow in the wrap-around rows of the surgery matrix:
    reducing M_300(3/2, 1/5), whose order has 999 bits, the largest
    intermediate entry reaches about 3 * 10^5 bits.
    """
    a = m.to_lists()
    nrows, ncols = m.nrows, m.ncols
    steps = min(nrows, ncols)
    for k in range(steps):
        if not a[k][k]:
            nonzero = next(((i, j) for j in range(k, ncols) for i in range(k, nrows) if a[i][j]), None)
            if nonzero is None:
                break
            i, j = nonzero
            for row in a[k:]:
                row[k], row[j] = row[j], row[k]
            a[k], a[i] = a[i], a[k]
        pk = a[k]
        while True:
            support = [j for j in range(k, ncols) if pk[j]]
            for row in a[k + 1 :]:
                v = row[k]
                if not v:
                    continue
                q, r = divmod(v, pk[k])
                if r:
                    g, s, t = _xgcd(pk[k], v)
                    u, w = -v // g, pk[k] // g
                    pk[k:], row[k:] = ([s * x + t * y for x, y in zip(pk[k:], row[k:])],
                                       [u * x + w * y for x, y in zip(pk[k:], row[k:])])
                    support = [j for j in range(k, ncols) if pk[j]]
                else:
                    for j in support:
                        row[j] -= q * pk[j]
            # column k is now zero below row k, so subtracting q times it
            # from column j changes row k alone
            for j in support[1:]:
                if pk[j] % pk[k] == 0:
                    pk[j] = 0
                    continue
                g, s, t = _xgcd(pk[k], pk[j])
                w = pk[k] // g
                pk[k], pk[j] = g, 0
                below = [row for row in a[k + 1 :] if row[j]]
                for row in below:
                    row[k], row[j] = t * row[j], w * row[j]
                if below:
                    break
            else:
                break

    # pairwise gcd/lcm passes enforce the divisibility chain; diag(x, y) is
    # unimodularly equivalent to diag(gcd, lcm), and diag(1, y) is already a
    # chain, so the passes run over the entries other than 1
    rest = [d for d in (abs(a[i][i]) for i in range(steps)) if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            x, y = rest[i], rest[j]
            g = math.gcd(x, y)
            if g == 0:
                continue
            rest[i], rest[j] = g, (x // g) * y
    return SnfResult((1,) * (steps - len(rest)) + tuple(rest))


def cokernel(m: BigIntMatrix) -> AbelianGroup:
    """Z^ncols modulo the subgroup generated by the rows of m."""
    snf = smith_normal_form(m)
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    return AbelianGroup(torsion, m.ncols - snf.rank)


def determinant(m: BigIntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Each step rewrites the rows below the pivot one whole row at a time.
    The division by the previous pivot is exact by the Desnanot-Jacobi
    identity, so a row with a zero in the pivot column only needs
    rescaling, and none at all when the pivot repeats.  Columns left of
    the pivot are never read again and keep stale entries.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant requires a square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p = a[k][k]
        tail = a[k][k + 1 :]
        for row in a[k + 1 :]:
            c = row[k]
            if c:
                row[k + 1 :] = [(x * p - c * y) // prev for x, y in zip(row[k + 1 :], tail)]
            elif p != prev:
                row[k + 1 :] = [x * p // prev for x in row[k + 1 :]]
        prev = p
    return sign * a[-1][-1]


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients lowest degree first.

    The zero polynomial is the empty tuple; its degree is undefined and
    operations that need a degree reject it explicitly.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs) if self.coeffs else "0"


def poly_divmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division of f by g over Z.

    Every leading-coefficient division must be exact, which always holds
    for the monic (or sign-monic) divisors used in this package.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    dg = g.degree
    gl = g.coeffs[-1]
    rem = list(f.coeffs)
    if len(rem) < len(g.coeffs):
        return IntPoly(()), f
    quo = [0] * (len(rem) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        if c % gl:
            raise ValueError("non-exact division step; divisor not monic up to sign")
        k = c // gl
        quo[i - dg] = k
        for j in range(dg + 1):
            rem[i - dg + j] -= k * g.coeffs[j]
    return IntPoly(tuple(quo)), IntPoly(tuple(rem))


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, with
    coefficient lists lowest degree first, deg a >= deg b >= 1, and
    trailing zeros stripped from the result.

    Only the deg b + 1 coefficients under the divisor are kept scaled;
    a lower coefficient takes its power of lc(b) when the divisor reaches
    it, so each step costs O(deg b) products.
    """
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    scale = 1
    for i in range(len(a) - 1, db - 1, -1):
        lo = i - db
        r[lo] *= scale
        c = r[i]
        for j in range(db):
            r[lo + j] = lb * r[lo + j] - c * b[j]
        scale *= lb
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant by the subresultant polynomial remainder sequence
    (Collins 1967; Brown-Traub 1971; Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7).

    Contents are stripped first; each pseudo-remainder is then divided
    exactly by l * h^delta, where l is the leading coefficient of the
    previous divisor, delta the drop in degree and h the running scale of
    the sequence, which keeps the coefficients as small as the
    subresultants.  Against a divisor of degree d, a degree-n polynomial
    costs O(n d) coefficient operations.

    Sign convention: that of the Sylvester determinant with the deg(g)
    rows of f coefficients on top, so
    resultant(g, f) == (-1)**(deg f * deg g) * resultant(f, g).  Callers
    that compare group orders take absolute values.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero or g.is_zero:
        return 0
    a, b = list(f.coeffs), list(g.coeffs)
    da, db = len(a) - 1, len(b) - 1
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            sign = -1
    if db == 0:
        return sign * b[0] ** da
    ca, cb = math.gcd(*a), math.gcd(*b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    content = ca**db * cb**da
    lead = h = 1
    while True:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return 0
        divisor = lead * h**delta
        a, b = b, [x // divisor for x in r]
        da, db = db, len(r) - 1
        lead = a[-1]
        if delta:
            h = lead**delta // h ** (delta - 1)
        if db == 0:
            return sign * content * (b[0] ** da // h ** (da - 1))


def cyclotomic_quotient(n: int) -> IntPoly:
    """(t^n - 1)/(t - 1) = 1 + t + ... + t^(n-1), for n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return IntPoly((1,) * n)


def _monic_up_to_sign(f: IntPoly) -> bool:
    return not f.is_zero and f.coeffs[-1] in (1, -1)


def multiplication_matrix(f: IntPoly, g: IntPoly) -> BigIntMatrix:
    """Matrix of multiplication by f on Z[t]/(g), for g monic up to sign.

    Row k is f * t^k mod g, k < deg g, so the cokernel is Z[t]/(f, g) and
    |det| = |resultant(f, g)|; a constant g gives the 0 x 0 matrix.  Row 0
    is the remainder of f and each next row t times the last: a shift whose
    top coefficient c, when nonzero, adds -lc(g) * c * g_i at each nonzero
    lower term g_i of g, since t^(deg g) = -lc(g) * (g - lc(g) t^(deg g)).
    The cyclic and branched-cover routes build it through ring_quotient,
    which reduces whichever of their two polynomials gives the smaller
    matrix.
    """
    if not _monic_up_to_sign(g):
        raise ValueError("the modulus must be monic up to sign")
    d = g.degree
    wrap = [(i, -g.coeffs[-1] * c) for i, c in enumerate(g.coeffs[:-1]) if c]
    row = list(poly_divmod(f, g)[1].coeffs)
    row += [0] * (d - len(row))
    rows = []
    for _ in range(d):
        rows.append(row)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            for i, w in wrap:
                row[i] += top * w
    return BigIntMatrix.from_rows(rows, ncols=d)


def ring_quotient(f: IntPoly, g: IntPoly) -> AbelianGroup:
    """Additive group of Z[t]/(f, g), for g monic up to sign.

    Z[t]/(f, g) is the cokernel of multiplication by f on Z[t]/(g), and
    also of multiplication by g on Z[t]/(f) whenever f is monic up to sign
    too, so the smaller ring is reduced: a deg f x deg f matrix when f is
    nonzero, monic up to sign and of lower degree than g, and otherwise
    the deg g x deg g matrix of f on Z[t]/(g).  A constant modulus gives
    the 0 x 0 matrix, so a unit f or g gives the trivial group.
    """
    if not _monic_up_to_sign(g):
        raise ValueError("the modulus must be monic up to sign")
    if _monic_up_to_sign(f) and f.degree < g.degree:
        f, g = g, f
    return cokernel(multiplication_matrix(f, g))


def normalize_up_to_units(f: "IntPoly | Mapping[int, int]") -> IntPoly:
    """Multiply by +-t^k so the constant term is positive and nonzero.

    Accepts an IntPoly or a Laurent coefficient mapping {exponent: coeff};
    the zero polynomial maps to zero.  Idempotent.
    """
    if isinstance(f, IntPoly):
        items = {i: c for i, c in enumerate(f.coeffs) if c}
    else:
        items = {e: c for e, c in f.items() if c}
    if not items:
        return IntPoly(())
    lo, hi = min(items), max(items)
    coeffs = [items.get(e, 0) for e in range(lo, hi + 1)]
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return IntPoly(tuple(coeffs))


# Laurent polynomials are plain {exponent: coefficient} dicts with zero
# coefficients stripped; enough machinery for Fox calculus and 2x2 Burau
# matrices, which never need division.

def _strip(d: dict[int, int]) -> dict[int, int]:
    return {e: c for e, c in d.items() if c}


def laurent_add(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _strip(out)


def laurent_sub(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    return laurent_add(a, {e: -c for e, c in b.items()})


def laurent_mul(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return _strip(out)
