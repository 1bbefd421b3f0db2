"""Exact arithmetic substrate: big-integer matrices, Smith normal form,
fraction-free determinants, integer and Laurent polynomials, resultants,
and invariant-factor decompositions of finitely generated abelian groups.

Relation matrices have 2n rows for M_n, tens of thousands on the unit
family, and their entries can grow during elimination.  A matrix stores
only its nonzero entries, one {column: value} dict per row: the surgery
matrix has at most three per row.  The Smith reduction pivots column by
column with extended-gcd row and column operations, and a column index
lets each step visit only the rows and entries it can change; on the
banded surgery matrix the fill stays in the band and the wrap-around rows
and columns.  Resultants build no matrix: they run the subresultant
remainder sequence.  One 2 x 2 kernel serves every n: M^n by doubling
(_power_2x2) and the Smith factors of M^n - u^n I off the primes of u,
for det M = u^2 (smith_power_2x2, prime_part).  It gives the surgery
homology and Z[t]/(f, t^n - 1), taken by its n (ring_quotient), of a
palindromic quadratic f (palindromic_quotient).  For other monic f it is
the cokernel of multiplication_matrix(t^n mod f - 1, f), t^n mod f by
doubling, and Res(t^n - 1, f) of a quadratic f comes by a Lucas sequence
(lucas_resultant), each in O(log n) products.  `determinant`,
Bareiss' exact-division elimination, has no caller in the library.
Every operation is a pure function, and the values are frozen dataclasses.
A matrix's rows are read-only by contract and the reductions copy them
before they write; since the rows are dicts, a BigIntMatrix is not
hashable.  Python ints give arbitrary precision for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
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
    "prime_part",
    "smith_power_2x2",
    "palindromic_quotient",
    "lucas_resultant",
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
    """Integer matrix stored as its nonzero entries: entries[i] is the
    {column: value} dict of row i.  The relation matrices the homology
    routes reduce are sparse (the 2n x 2n surgery matrix has at most three
    nonzeros per row), so the builders hand over their rows in this form.
    The rows are read-only by contract: the Smith form copies them before
    it writes.  Rows or columns may number zero; ncols is kept so that a
    matrix with no rows has a width.  The shape is checked once, here: there are
    nrows rows, every column lies in 0..ncols-1 and no stored value is
    zero.  from_rows takes dense rows of equal length and to_lists gives
    them back.
    """

    nrows: int
    ncols: int
    entries: tuple[dict[int, int], ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries, ncols = tuple(self.entries), self.ncols
        if len(entries) != self.nrows:
            raise ValueError("rows do not match dimensions")
        for r in entries:
            for j, v in r.items():
                if not v or not 0 <= j < ncols:
                    raise ValueError("entries must be nonzero and lie in columns 0..ncols-1")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "BigIntMatrix":
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows do not match dimensions")
        nonzero = itemgetter(1)  # of a (column, value) pair
        return cls(len(rows), ncols, tuple(dict(filter(nonzero, enumerate(r))) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "BigIntMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, diag: Iterable[int]) -> "BigIntMatrix":
        d = list(diag)
        return cls(len(d), len(d), tuple({i: v} if v else {} for i, v in enumerate(d)))

    def to_lists(self) -> list[list[int]]:
        return [[r.get(j, 0) for j in range(self.ncols)] for r in self.entries]


@dataclass(frozen=True)
class SnfResult:
    """Diagonal of the Smith normal form: nonnegative, divisibility-chained,
    with zero factors (if any) at the end."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", facs)
        # the 1s of a chain come first and its zeros last; both runs are
        # checked at C speed, and only the factors between them in Python
        ones, zeros = facs.count(1), facs.count(0)
        rest = facs[ones : len(facs) - zeros]
        if rest and min(rest) < 0:
            raise ValueError("invariant factors must be nonnegative")
        if any(facs[len(facs) - zeros :]):
            raise ValueError("zero factors must come last")
        if facs[:ones].count(1) != ones or any(b % a for a, b in zip(rest, rest[1:])):
            raise ValueError("broken divisibility chain")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors) - self.invariant_factors.count(0)


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
        """Group order, or None when infinite.  In a divisibility chain
        equal factors are adjacent, so the order is the product of d^k
        over the runs of k equal factors d, one power per run."""
        if self.free_rank:
            return None
        return math.prod(d ** len(list(run)) for d, run in groupby(self.torsion))

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

    Step k pivots in row k, at the next column c with a nonzero from row
    k down; a zero at (k, c) swaps in the first row below with a nonzero
    there, and no column is ever swapped.  The columns passed over stay
    zero: a fold copies entries only where the pivot row is nonzero, and
    a column operation combines column c only with later columns.  A row
    below k with entry v in column c is folded into row k, in ascending
    order: a multiple of row k is subtracted when the pivot p divides v,
    and otherwise both rows are replaced by [[s, t], [-v/g, p/g]] times
    them, where s*p + t*v = g = gcd(p, v).  Row k is then cleared by the
    same operations on columns, in ascending order.  A column operation
    that refills column c repeats the step; each one that does replaces
    the pivot by a proper divisor, so the step ends.  A pivot of +-1 once
    the folds are done ends the step at once: it divides every entry of
    row k, which the column phase would only drop.

    The rows are copied as {column: value} dicts, and a column index,
    below[j], holds the rows past the pivot row with a nonzero in column
    j; every write that makes an entry nonzero or zero updates it.  Before
    step k, rows 0..k-1 and the columns before c are zero but for the
    earlier pivots, so a step visits only the rows listed under column c
    and the pivot row's nonzeros, never a zero:

    - a subtraction visits the pivot row's nonzeros alone, since a zero
      there leaves the target entry as it is, and a 2x2 operation the
      nonzeros of its two rows;
    - once column c is clear, subtracting q times it from column j
      changes row k alone, so the column phase drops the entry of row k,
      and an extended-gcd column operation touches only the rows listed
      under column j.

    On the surgery matrix, whose rows hold three nonzeros, the fill stays
    in the band and the wrap-around rows and columns, so a step costs
    O(1) entry operations.  Entries still grow there: reducing
    M_300(3/2, 1/5), whose order has 999 bits, the largest intermediate
    entry reaches about 3 * 10^5 bits.  _chain then orders the pivots
    into a divisibility chain.
    """
    nrows, ncols = m.nrows, m.ncols
    a = [r.copy() for r in m.entries]
    below: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            below[j].add(i)
    pivots = []
    for c in range(ncols):
        k = len(pivots)  # the pivot row
        if k == nrows:
            break
        if c not in a[k]:
            # column c is zero from row k down, and no later step fills it
            if not below[c]:
                continue
            i = min(below[c])
            for t in (i, k):
                for j in a[t]:
                    below[j].discard(t)
            a[k], a[i] = a[i], a[k]
            for j in a[i]:
                below[j].add(i)
        pk = a[k]
        for j in pk:
            below[j].discard(k)
        # p is the pivot and pk holds the rest of row k
        p = pk.pop(c)
        while True:
            # a fold writes column c of no other row, so below[c] holds
            # still while it is read
            rows = below[c]
            for i in sorted(rows) if len(rows) > 1 else rows:
                row = a[i]
                v = row.pop(c)
                if v % p:
                    g, s, t = _xgcd(p, v)
                    u, w = -v // g, p // g
                    # where row k is zero, row i is only scaled by w != 0
                    new_pk = {j: t * y for j, y in row.items() if j not in pk}
                    for j in new_pk:
                        row[j] *= w
                    for j, x in pk.items():
                        y = row.get(j, 0)
                        if z := s * x + t * y:
                            new_pk[j] = z
                        if z := u * x + w * y:
                            if not y:
                                below[j].add(i)
                            row[j] = z
                        elif y:
                            del row[j]
                            below[j].discard(i)
                    pk, p = new_pk, g
                else:
                    q = v // p
                    for j, x in pk.items():
                        y = row.get(j)
                        if y is None:
                            row[j] = -q * x
                            below[j].add(i)
                        elif y := y - q * x:
                            row[j] = y
                        else:
                            del row[j]
                            below[j].discard(i)
            below[c].clear()
            # a unit pivot divides every entry of row k, which the column
            # phase would only drop
            if p == 1 or p == -1:
                break
            # column c is now zero below row k, so subtracting q times it
            # from column j changes row k alone
            for j in sorted(pk) if len(pk) > 1 else tuple(pk):
                x = pk.pop(j)
                if x % p == 0:
                    continue
                g, s, t = _xgcd(p, x)
                w = p // g
                p = g
                if below[j]:
                    for i in below[j]:
                        row = a[i]
                        y = row[j]
                        row[c], row[j] = t * y, w * y
                    below[c].update(below[j])
                    break
            else:
                break
        pivots.append(abs(p))
    return SnfResult(_chain(pivots) + (0,) * (min(nrows, ncols) - len(pivots)))


def _chain(pivots: list[int]) -> tuple[int, ...]:
    """Invariant factors of diag(pivots), for positive pivots.

    diag(x, y) is unimodularly equivalent to diag(gcd, lcm), and 1 divides
    everything, so the entries other than 1 are what need ordering.  Two
    of them take one gcd.  More are factored over a coprime base
    (Bach-Driscoll-Shallit 1993, factor refinement): pairwise coprime
    b > 1 of which every entry is a product of powers.  The i-th factor is
    then the product over b of b to the i-th smallest of its exponents in
    the entries, which costs O(entries x base) where pairwise gcd/lcm
    passes cost O(entries^2): M_2000(inf, 3) = (Z/3)^2000 has one base
    element.
    """
    rest = [d for d in pivots if d != 1]
    if len(rest) == 2:
        x, y = rest
        g = math.gcd(x, y)
        rest = [g, x // g * y]
    elif len(rest) > 2:
        factors = [1] * len(rest)
        for b in _coprime_base(rest):
            exponents = []
            for d in rest:
                e = 0
                while d % b == 0:
                    d //= b
                    e += 1
                exponents.append(e)
            exponents.sort()
            for i, e in enumerate(exponents):
                if e:
                    factors[i] *= b**e
        rest = factors
    return (1,) * (len(pivots) - len(rest)) + tuple(rest)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 such that each of the given values
    > 1 is a product of their powers.  A value that shares g = gcd > 1
    with a base element b replaces b by b/g, g and value/g, each of which
    is processed again; the product of what is left falls at every
    replacement, so the refinement ends."""
    base: list[int] = []
    for x in set(values):
        pending = [x]
        while pending:
            y = pending.pop()
            if y == 1:
                continue
            for i, b in enumerate(base):
                g = math.gcd(y, b)
                if g > 1:
                    base[i] = base[-1]
                    base.pop()
                    pending += (b // g, g, y // g)
                    break
            else:
                base.append(y)
    return base


def cokernel(m: BigIntMatrix) -> AbelianGroup:
    """Z^ncols modulo the subgroup generated by the rows of m."""
    return _group(smith_normal_form(m).invariant_factors, m.ncols)


def _group(factors: tuple[int, ...], ncols: int) -> AbelianGroup:
    """Z^ncols modulo the diagonal matrix of a divisibility chain, whose
    1s come first and zeros last, so the torsion is a slice taken at C
    speed."""
    ones, zeros = factors.count(1), factors.count(0)
    return AbelianGroup(factors[ones : len(factors) - zeros], ncols - len(factors) + zeros)


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

    Row k is f * t^k mod g, k < d = deg g, so the cokernel is Z[t]/(f, g)
    and |det| = |resultant(f, g)|; a constant g gives the 0 x 0 matrix.
    Each row is t times the last: a shift whose top coefficient c, when
    nonzero, adds -lc(g) * c * g_i at each nonzero lower term g_i of g,
    since t^d = -lc(g) * (g - lc(g) t^d).  ring_quotient's monic branch
    and the tests' plain route to its groups both build their rows here.
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


def _power_mod(m: int, f: IntPoly) -> list[int]:
    """t^m mod f as a coefficient list of length deg f, for f monic up to
    sign; empty when f is constant.

    Binary powering (Knuth, TAOCP Vol. 2, Sec. 4.6.3), reading the bits of
    m from the top: P_2m = P_m^2, then on a set bit P_(m+1) = t P_m, and
    poly_divmod reduces each step.  That is O(log m) products of
    polynomials of degree below deg f, where long division of t^m makes a
    pass of length m.
    """
    p: tuple[int, ...] = (1,)
    for bit in bin(m)[2:]:
        out = [0] * (2 * len(p) - 1)
        for i, x in enumerate(p):
            if x:
                for j, y in enumerate(p):
                    out[i + j] += x * y
        if bit == "1":
            out.insert(0, 0)
        p = poly_divmod(IntPoly(tuple(out)), f)[1].coeffs
    return list(p) + [0] * (f.degree - len(p))


def _power_2x2(m: tuple[int, int, int, int], n: int) -> tuple[int, int, int, int]:
    """M^n for n >= 0, with M = [[a, b], [c, d]] given as (a, b, c, d), by
    binary powering from the top bit: a squaring takes five products and
    a step by M, whose entries are small, eight."""
    a, b, c, d = 1, 0, 0, 1
    w, x, y, z = m
    for bit in bin(n)[2:]:
        bc, ad = b * c, a + d
        a, b, c, d = a * a + bc, b * ad, c * ad, d * d + bc
        if bit == "1":
            a, b, c, d = a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z
    return a, b, c, d


def prime_part(x: int, m: int) -> int:
    """The largest divisor of |x| whose primes all divide m, with no
    factoring: h = gcd(x, m), then h <- gcd(x, h^2) until h holds still,
    each round doubling the exponent of every prime not yet complete.  A
    zero x gives 0, since h would grow without end."""
    if not x:
        return 0
    h = math.gcd(x, m)
    while (g := math.gcd(x, h * h)) != h:
        h = g
    return h


def smith_power_2x2(m: tuple[int, int, int, int], u: int, n: int) -> tuple[int, int]:
    """Invariant factors (d1, d2) of M^n - u^n I with the primes of u
    removed, for M = [[a, b], [c, d]] given as (a, b, c, d) with
    det M = u^2 != 0; a zero factor stays 0.

    A 2 x 2 matrix has d1 = gcd of the entries and d2 = |det| / d1, and
    det(M^n - u^n I) = u^n (2 u^n - tr M^n) since det M^n = u^(2n); so off
    the primes of u, d2 = |2 u^n - tr M^n| / d1, and prime_part never meets
    |u|^n.  No Euclid loop runs on the entries; M^n takes O(log n) products.
    """
    a, b, c, d = _power_2x2(m, n)
    un = u**n
    d1 = math.gcd(a - un, b, c, d - un)
    if not d1:
        return 0, 0
    d1 //= prime_part(d1, u)
    gap = 2 * un - a - d
    return d1, gap and abs(gap) // prime_part(gap, u) // d1


def palindromic_quotient(x: int, y: int, n: int) -> tuple[int, tuple[int, int]]:
    """Z[t]/(x t^2 + y t + x, t^n - 1), x != 0 and n >= 1, as (c, (d1, d2)):
    the chain (Z/c)^max(n - 2, 0) + Z/d1 + Z/d2, a zero factor a Z summand.

    With c = gcd(x, y), multiplication by f = x t^2 + y t + x is c times
    that by f1 = f / c = a t^2 + b t + a.  At a prime of a, f1 = bt is a
    unit.  Elsewhere Z[t]/(f1) is free of rank 2, with t acting as K/a,
    K = [[0, -a], [a, -b]], det K = a^2; so f1 has the factors 1, n - 2
    times, and those of K^n - a^n I off the primes of a.  At n = 1 the
    group is Z/|2x + y|, where the form above would keep a factor c.
    """
    c = math.gcd(x, y)
    if n == 1:
        return c, (1, abs(2 * x + y))
    a = x // c
    e1, e2 = smith_power_2x2((0, -a, a, -y // c), a, n)
    return c, (c * e1, c * e2)


def lucas_resultant(a: int, b: int, c: int, n: int) -> int:
    """Res(t^n - 1, a t^2 + b t + c), signed, for n >= 1, in O(log n)
    products.

    Over the roots x, y of f the product of f(w) over the n-th roots of
    unity w is a^n (x^n - 1)(y^n - 1) = a^n + c^n - V_n, where
    V_n = (ax)^n + (ay)^n is the Lucas sequence V_n(P, Q) with P = -b and
    Q = ac.  It comes by doubling (Joye-Quisquater, "Efficient computation
    of full Lucas sequences", 1996): V_2k = V_k^2 - 2 Q^k and
    V_(2k+1) = V_k V_(k+1) - P Q^k.  At a = 0 the formula gives c^n - (-b)^n,
    the product for a linear f, so the sign is that of
    resultant(t^n - 1, f) at every degree of f.
    """
    p, q = -b, a * c
    v, w, qk = 2, p, 1  # V_k, V_(k+1) and Q^k, from k = 0
    for bit in bin(n)[2:]:
        if bit == "1":
            v, w, qk = v * w - p * qk, w * w - 2 * q * qk, q * qk * qk
        else:
            v, w, qk = v * v - 2 * qk, v * w - p * qk, qk * qk
    return a**n + c**n - v


def _circulant(f: IntPoly, n: int) -> BigIntMatrix:
    """multiplication_matrix(f, t^n - 1), built sparse: row k is f mod
    t^n - 1, its coefficients summed by exponent mod n, shifted by k, so a
    row holds at most deg f + 1 entries and no dense n x n rows are held."""
    folded: dict[int, int] = {}
    for i, c in enumerate(f.coeffs):
        folded[i % n] = folded.get(i % n, 0) + c
    terms = [(i, c) for i, c in folded.items() if c]
    return BigIntMatrix(n, n, tuple({(i + k) % n: c for i, c in terms} for k in range(n)))


def ring_quotient(f: IntPoly, n: int) -> AbelianGroup:
    """Additive group of Z[t]/(f, t^n - 1), for n >= 1.

    It is the cokernel of multiplication by f on Z[t]/(t^n - 1), and, when
    f is monic up to sign, also that of multiplication by t^n - 1 on
    Z[t]/(f): C^n - I, for C the d x d matrix of t on the basis
    1, t, ..., t^(d-1), d = deg f.  So:

    - f = x t^2 + y t + x, at any x: palindromic_quotient, from a 2 x 2
      power, whose n - 2 equal factors are built only when they exceed 1;
    - any other f monic up to sign: t^n mod f by doubling (_power_mod),
      then C^n - I is multiplication_matrix(t^n mod f - 1, f), which goes
      to smith_normal_form; a unit f gives the 0 x 0 matrix;
    - the zero f, a non-unit constant or any other non-monic f: the sparse
      n x n circulant (_circulant) goes to smith_normal_form.

    So the first two cases take O(log n) products and build no polynomial
    of degree n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if len(f.coeffs) == 3 and f.coeffs[0] == f.coeffs[2]:
        c, pair = palindromic_quotient(*f.coeffs[:2], n)
        factors = ((c,) * (n - 2) if c > 1 else ()) + pair
        return _group(factors, len(factors))
    if not _monic_up_to_sign(f):
        return cokernel(_circulant(f, n))
    r = _power_mod(n, f)
    if r:
        r[0] -= 1
    return cokernel(multiplication_matrix(IntPoly(tuple(r)), f))


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
