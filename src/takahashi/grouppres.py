"""Words over indexed generators, finite presentations, free reduction,
abelianization, and the two presentation families of a periodic Takahashi
manifold M_n(p/q, r/s): the 2n-generator surgery presentation and, when
r = 1, the n-generator cyclic presentation together with its rewritten
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .exactalg import BigIntMatrix, IntPoly, Rational, normalize_up_to_units

__all__ = [
    "Word",
    "Presentation",
    "free_reduce",
    "abelianize",
    "takahashi_presentation",
    "takahashi_matrix",
    "takahashi_blocks",
    "cyclic_presentation",
    "cyclic_presentation_rewritten",
    "relator_identity_check",
    "representer_polynomial",
]


@dataclass(frozen=True)
class Word:
    """Product of generator powers; letters are (generator index, exponent).

    Exponents are nonzero by construction.  Adjacent letters on the same
    generator are allowed (the word is then unreduced); free_reduce merges
    and cancels them.
    """

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        letters = tuple((int(g), int(e)) for g, e in self.letters)
        for g, e in letters:
            if g < 0:
                raise ValueError("generator indices are 0-based and nonnegative")
            if e == 0:
                raise ValueError("zero exponents are not representable")
        object.__setattr__(self, "letters", letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters


def word(pairs: Iterable[tuple[int, int]]) -> Word:
    """Build a Word, silently dropping zero-exponent letters."""
    return Word(tuple((g, e) for g, e in pairs if e))


_Letters = tuple[tuple[int, int], ...]


def _reduce(letters: Iterable[tuple[int, int]]) -> _Letters:
    """Freely reduced letters; zero-exponent letters are skipped, since the
    relator generators below may emit them."""
    stack: list[list[int]] = []
    for g, e in letters:
        if not e:
            continue
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([g, e])
    return tuple((g, e) for g, e in stack)


def free_reduce(w: Word) -> Word:
    """Unique freely reduced form: merged exponents, cancellations removed."""
    return Word(_reduce(w.letters))


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: generator count plus relator words."""

    generator_count: int
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        relators = tuple(self.relators)
        object.__setattr__(self, "relators", relators)
        if self.generator_count < 0:
            raise ValueError("generator count must be nonnegative")
        for r in relators:
            for g, _ in r.letters:
                if g >= self.generator_count:
                    raise ValueError("relator uses an undeclared generator")


def _exponent_sums(relators: Iterable[_Letters], ncols: int) -> BigIntMatrix:
    """Sparse relation matrix: each row maps a generator to its nonzero
    exponent sum, so no dense row is built."""
    rows = []
    for letters in relators:
        row = dict(letters)
        if len(row) < len(letters):  # a generator repeats: sum its exponents
            row = {}
            for g, e in letters:
                row[g] = row.get(g, 0) + e
        if 0 in row.values():
            row = {g: e for g, e in row.items() if e}
        rows.append(row)
    return BigIntMatrix(len(rows), ncols, tuple(rows))


def abelianize(p: Presentation) -> BigIntMatrix:
    """Relation matrix: one row per relator, one column per generator,
    entries the exponent sums.  Invariant under free reduction."""
    return _exponent_sums((r.letters for r in p.relators), p.generator_count)


def _takahashi_relators(n: int, pq: Rational, rs: Rational) -> Iterator[_Letters]:
    """(generator, exponent) letters of the 2n surgery relators, read by
    both the presentation and the matrix; exponents may be zero."""
    if n < 1:
        raise ValueError("n must be at least 1")
    p, q = pq.num, pq.den
    r, s = rs.num, rs.den
    m = 2 * n
    # paper subscripts 2i-1, 2i, 2i+1, 2i+2 (1-based, i = 1..n) are the
    # 0-based indices a, a+1, a+2, a+3 mod 2n, with a = 2i - 2
    for a in range(0, m, 2):
        b, c, d = a + 1, (a + 2) % m, (a + 3) % m
        yield (a, q), (b, -r), (c, -q)
        yield (b, s), (c, p), (d, -s)


def takahashi_presentation(n: int, pq: Rational, rs: Rational) -> Presentation:
    """Surgery presentation of pi_1(M_n(p/q, r/s)) on 2n generators.

    For i = 1..n the relators are

        x(2i-1)^q x(2i)^-r x(2i+1)^-q     and     x(2i)^s x(2i+1)^p x(2i+2)^-s

    with 1-based subscripts taken mod 2n (so at n = 1 the generator x3
    wraps back to x1).  Internally generators are 0-based; zero-exponent
    letters are dropped at construction.
    """
    return Presentation(2 * n, tuple(word(r) for r in _takahashi_relators(n, pq, rs)))


def takahashi_matrix(n: int, pq: Rational, rs: Rational) -> BigIntMatrix:
    """The 2n x 2n banded relation matrix of the surgery presentation.

    It restates the band of the relators: with 0-based indices mod 2n,
    row 2i is {2i: q, 2i+1: -r, 2i+2: -q} and row 2i+1 is
    {2i+1: s, 2i+2: p, 2i+3: -s}, built as dicts with no letters summed.
    Zeros are dropped only when p, q, r or s is 0.  At n = 1 the columns
    collide, so the letters are summed there.  Equal entry for entry to
    abelianize(takahashi_presentation(n, pq, rs)), which a test checks.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return _exponent_sums(_takahashi_relators(1, pq, rs), 2)
    p, q = pq.num, pq.den
    r, s = rs.num, rs.den
    m = 2 * n
    rows = []
    for a in range(0, m, 2):
        b, c, d = a + 1, (a + 2) % m, (a + 3) % m
        rows += ({a: q, b: -r, c: -q}, {b: s, c: p, d: -s})
    if not (p and q and r and s):
        rows = [{g: e for g, e in row.items() if e} for row in rows]
    return BigIntMatrix(m, m, tuple(rows))


def takahashi_blocks(pq: Rational, rs: Rational) -> tuple[BigIntMatrix, BigIntMatrix]:
    """The 2x2 blocks (A0, A1) of one period of the surgery relation matrix.

    Relators 2i-1 and 2i touch only the generator pairs of periods i and
    i + 1, so the 2n x 2n matrix is block-circulant: I (x) A0 + P (x) A1,
    with P the n-cycle shift.  The blocks are summed from the first two
    relators at n = 2, where no subscript wraps, with block index g // 2;
    they do not depend on n, and at n = 1 the matrix is A0 + A1.
    """
    blocks = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for row, letters in zip((0, 1), _takahashi_relators(2, pq, rs)):
        for g, e in letters:
            blocks[g // 2][row][g % 2] += e
    return BigIntMatrix.from_rows(blocks[0]), BigIntMatrix.from_rows(blocks[1])


def _power(letters: _Letters, k: int) -> _Letters:
    """Letters of the k-th power; k < 0 repeats the inverse."""
    if k < 0:
        letters = tuple((g, -e) for g, e in reversed(letters))
    return letters * abs(k)


def _cyclic_relators(n: int, p: int, q: int, s: int) -> Iterator[_Letters]:
    """Letters of the n cyclic relators, read by the presentation, the
    representer polynomial and the identity check; exponents may be zero."""
    if n < 1:
        raise ValueError("n must be at least 1")
    for i in range(n):
        up = ((i, -q), ((i + 1) % n, q))
        down = ((i, -q), ((i - 1) % n, q))
        yield ((i, p),) + _power(up, s) + _power(down, s)


def cyclic_presentation(n: int, p: int, q: int, s: int) -> Presentation:
    """Cyclic presentation of pi_1(M_n(p/q, 1/s)) on n generators.

    Relator i (subscripts mod n):

        z(i)^p (z(i)^-q z(i+1)^q)^s (z(i)^-q z(i-1)^q)^s

    Every relator is the cyclic shift of the first, so the relation matrix
    is circulant.
    """
    return Presentation(n, tuple(word(r) for r in _cyclic_relators(n, p, q, s)))


def _rewritten_relators(n: int, p: int, q: int, s: int) -> Iterator[_Letters]:
    """Letters of the n rewritten relators; exponents may be zero.  With
    c = q sign(s) and k = |s|, relator i is

        z(i)^(p-c) (z(i+1)^c z(i)^-c)^k (z(i-1)^c z(i)^-c)^(k-1) z(i-1)^c
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if s == 0:
        raise ValueError("the rewritten presentation needs s != 0")
    c, k = (q, s) if s > 0 else (-q, -s)
    for i in range(n):
        up, down = (i + 1) % n, (i - 1) % n
        yield (((i, p - c),) + ((up, c), (i, -c)) * k
               + ((down, c), (i, -c)) * (k - 1) + ((down, c),))


def cyclic_presentation_rewritten(n: int, p: int, q: int, s: int) -> Presentation:
    """Rewritten form of the cyclic presentation, split by the sign of s.

    s > 0:  z(i)^(p-q) (z(i+1)^q z(i)^-q)^s (z(i-1)^q z(i)^-q)^(s-1) z(i-1)^q
    s < 0:  z(i)^(p+q) (z(i+1)^-q z(i)^q)^-s (z(i-1)^-q z(i)^q)^(-s-1) z(i-1)^-q

    s = 0 is rejected: that degenerate manifold (a connected sum of n lens
    spaces) is already covered by cyclic_presentation itself.
    """
    return Presentation(n, tuple(word(r) for r in _rewritten_relators(n, p, q, s)))


def relator_identity_check(n: int, p: int, q: int, s: int) -> bool:
    """Check that each rewritten relator equals the original one.

    For s > 0 the two relators are freely equal; for s < 0 the rewritten
    relator i is the original conjugated by z(i)^q.  So each pair is
    compared as freely reduced words, the original first conjugated by
    z(i)^c with c = q for s < 0 and c = 0 for s > 0.
    """
    c = q if s < 0 else 0
    return all(
        _reduce(new) == _reduce(((i, c),) + old + ((i, -c),))
        for i, (old, new) in enumerate(
            zip(_cyclic_relators(n, p, q, s), _rewritten_relators(n, p, q, s)))
    )


def representer_polynomial(n: int, p: int, q: int, s: int) -> IntPoly:
    """Exponent sums of the first cyclic relator, by offset from its base
    index 0 (generator g sits at offset g - n when 2g > n, else at g).

    Offset 0 carries p - 2qs and offsets +-1 carry qs each, so for n >= 3
    the canonical representative is qs t^2 + (p - 2qs) t + qs up to units.
    For n <= 2 the offsets collide mod n and the polynomial collapses
    (n = 1 gives the constant p).  Multiplication by the result f on
    Z[t]/(t^n - 1) (exactalg.multiplication_matrix) is then the relation
    matrix of cyclic_presentation up to the unit +-t^k, and
    |resultant(f, t^n - 1)| is the order of the abelianized group
    whenever that is finite.
    """
    lau: dict[int, int] = {}
    for g, e in next(_cyclic_relators(n, p, q, s)):
        k = g - n if 2 * g > n else g
        lau[k] = lau.get(k, 0) + e
    return normalize_up_to_units(lau)
