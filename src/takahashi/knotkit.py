"""Two-bridge knots in Schubert and Conway form, Fox-calculus Alexander
polynomials, reduced Burau Alexander polynomials for 3-braid closures,
and first homology of n-fold cyclic branched coverings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .exactalg import (
    AbelianGroup,
    IntPoly,
    Rational,
    cyclotomic_quotient,
    laurent_add,
    laurent_mul,
    laurent_sub,
    normalize_up_to_units,
    poly_divmod,
    resultant,
    ring_quotient,
)
from .grouppres import Presentation, Word, word

__all__ = [
    "TwoBridge",
    "ConwayForm",
    "BraidWord3",
    "AlexanderPoly",
    "conway_to_fraction",
    "normalize_two_bridge",
    "two_bridge_equivalent",
    "epsilon_sequence",
    "two_bridge_presentation",
    "fox_derivative_abelianized",
    "alexander_two_bridge",
    "reduced_burau3",
    "alexander_from_braid3",
    "branched_cover_homology",
    "branched_cover_order",
]


@dataclass(frozen=True)
class TwoBridge:
    """Schubert normal form b(alpha, beta).

    Normalized so that 0 < beta < alpha when alpha >= 2; b(1, 0) is the
    unknot and b(0, 1) the two-component unlink.  Odd alpha means a knot,
    even alpha a two-component link.
    """

    alpha: int
    beta: int

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if a < 0:
            raise ValueError("alpha must be nonnegative")
        if a == 0:
            if b != 1:
                raise ValueError("the unlink class is written b(0, 1)")
        elif a == 1:
            if b != 0:
                raise ValueError("the unknot class is written b(1, 0)")
        else:
            if not 0 < b < a:
                raise ValueError("beta must satisfy 0 < beta < alpha")
            if math.gcd(a, b) != 1:
                raise ValueError("alpha and beta must be coprime")

    @property
    def is_knot(self) -> bool:
        return self.alpha % 2 == 1

    def __str__(self) -> str:
        return f"b({self.alpha},{self.beta})"


@dataclass(frozen=True)
class ConwayForm:
    """Integer continued-fraction form of a rational tangle; zero terms are
    allowed and simply collapse under evaluation."""

    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))


def conway_to_fraction(c: ConwayForm) -> Rational:
    """Evaluate [a1, ..., am] as am + 1/(a(m-1) + 1/(... + 1/a1)).

    The last term is outermost; this orientation is pinned by the
    branch-knot self-test, which fails loudly if it is ever reversed.
    The returned fraction keeps its component signs (they matter for
    Schubert normalization).
    """
    if not c.terms:
        raise ValueError("empty continued fraction")
    num, den = c.terms[0], 1
    for a in c.terms[1:]:
        num, den = a * num + den, num
    if num == 0 and den == 0:
        raise ValueError("continued fraction collapsed to 0/0")
    return Rational(num, den)


def normalize_two_bridge(num: int, den: int) -> TwoBridge:
    """Schubert normal form of the fraction num/den.

    alpha = |num|; beta is den reduced mod alpha into (0, alpha); the
    degenerate classes map to b(1, 0) and b(0, 1).
    """
    if num == 0 and den == 0:
        raise ValueError("0/0 does not name a two-bridge class")
    if math.gcd(num, den) != 1:
        raise ValueError("num and den must be coprime")
    a = abs(num)
    if a == 0:
        return TwoBridge(0, 1)
    if a == 1:
        return TwoBridge(1, 0)
    return TwoBridge(a, den % a)


def two_bridge_equivalent(k1: TwoBridge, k2: TwoBridge, allow_mirror: bool = True) -> bool:
    """Schubert equivalence: equal alpha and beta2 = beta1^(+-1) mod alpha;
    with allow_mirror also beta2 = -beta1^(+-1) mod alpha."""
    if k1.alpha != k2.alpha:
        return False
    a = k1.alpha
    if a <= 1:
        return True
    classes = {k1.beta, pow(k1.beta, -1, a)}
    if allow_mirror:
        classes |= {(-b) % a for b in list(classes)}
    return k2.beta in classes


def epsilon_sequence(alpha: int, beta: int) -> tuple[int, ...]:
    """Signs eps_i = (-1)^floor(i*beta'/alpha) for i = 1..alpha-1, where
    beta' is the odd representative of beta (beta itself, or beta - alpha).

    Only an odd representative makes the sequence symmetric
    (eps_i == eps_(alpha-i)), which the knot group presentation needs.
    """
    b = beta if beta % 2 else beta - alpha
    return tuple(-1 if (i * b // alpha) % 2 else 1 for i in range(1, alpha))


def two_bridge_presentation(k: TwoBridge) -> Presentation:
    """Two-generator knot group presentation < a, b | w a w^-1 b^-1 >
    with w = a^eps1 b^eps2 a^eps3 ... b^eps(alpha-1).

    Only knots (odd alpha) are accepted; b(1, 0) gives < a | >.
    """
    if not k.is_knot:
        raise ValueError("two_bridge_presentation needs odd alpha (a knot)")
    if k.alpha == 1:
        return Presentation(1, ())
    eps = epsilon_sequence(k.alpha, k.beta)
    a, b = 0, 1
    w = tuple((a if i % 2 == 0 else b, e) for i, e in enumerate(eps))
    w_inv = tuple((g, -e) for g, e in reversed(w))
    return Presentation(2, (word(w + ((a, 1),) + w_inv + ((b, -1),)),))


def fox_derivative_abelianized(w: Word, gen: int) -> dict[int, int]:
    """Fox derivative of w with respect to gen, abelianized by sending
    every generator to t; returned as a Laurent coefficient dict.

    Uses d(uv) = du + phi(u) dv with d(x^k) = (t^k - 1)/(t - 1) expanded
    as an honest Laurent polynomial for either sign of k.
    """
    out: dict[int, int] = {}
    e = 0
    for g, k in w.letters:
        if g == gen:
            if k > 0:
                for j in range(k):
                    out[e + j] = out.get(e + j, 0) + 1
            else:
                for j in range(1, -k + 1):
                    out[e - j] = out.get(e - j, 0) - 1
        e += k
    return {exp: c for exp, c in out.items() if c}


@dataclass(frozen=True)
class AlexanderPoly:
    """Alexander polynomial of a knot, normalized up to units.

    Construction checks the two knot-theoretic constraints: value +-1 at
    t = 1, and a coefficient sequence palindromic up to sign.
    """

    poly: IntPoly

    def __post_init__(self):
        p = self.poly
        if p != normalize_up_to_units(p):
            raise ValueError("Alexander polynomial must be unit-normalized")
        if p(1) not in (1, -1):
            raise ValueError(f"Alexander polynomial of a knot has value +-1 at t=1, got {p(1)}")
        rev = tuple(reversed(p.coeffs))
        if rev != p.coeffs and rev != tuple(-c for c in p.coeffs):
            raise ValueError("Alexander polynomial must be palindromic up to sign")

    def __str__(self) -> str:
        return str(self.poly)


def alexander_two_bridge(k: TwoBridge) -> AlexanderPoly:
    """Alexander polynomial of a two-bridge knot by Fox calculus.

    For the presentation < a, b | R > above, d R / d a abelianized is the
    Alexander polynomial up to units (the two partials agree up to sign).
    """
    if not k.is_knot:
        raise ValueError("alexander_two_bridge needs odd alpha (a knot)")
    if k.alpha == 1:
        return AlexanderPoly(IntPoly((1,)))
    relator = two_bridge_presentation(k).relators[0]
    return AlexanderPoly(normalize_up_to_units(fox_derivative_abelianized(relator, 0)))


@dataclass(frozen=True)
class BraidWord3:
    """Word in the 3-strand braid group; letters +-1, +-2 mean sigma_1^(+-1)
    and sigma_2^(+-1)."""

    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(int(x) for x in self.letters)
        if any(x not in (1, -1, 2, -2) for x in letters):
            raise ValueError("letters must lie in {1, -1, 2, -2}")
        object.__setattr__(self, "letters", letters)

    def permutation(self) -> tuple[int, ...]:
        """Strand permutation of the braid (image of strand i at position i)."""
        perm = [0, 1, 2]
        for x in self.letters:
            i = abs(x) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def cycle_type(self) -> tuple[int, ...]:
        perm = self.permutation()
        seen = [False] * 3
        sizes = []
        for i in range(3):
            if not seen[i]:
                n, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    n += 1
                sizes.append(n)
        return tuple(sorted(sizes, reverse=True))

    @property
    def closure_is_knot(self) -> bool:
        return self.cycle_type() == (3,)


# Reduced Burau images of the 3-braid generators, as 2x2 Laurent matrices:
#   sigma_1 -> [[-t, 1], [0, 1]]        sigma_2 -> [[1, 0], [t, -t]]
# Both images have determinant -t.
_BURAU = {
    1: (({1: -1}, {0: 1}), ({}, {0: 1})),
    -1: (({-1: -1}, {-1: 1}), ({}, {0: 1})),
    2: (({0: 1}, {}), ({1: 1}, {1: -1})),
    -2: (({0: 1}, {}), ({0: 1}, {-1: -1})),
}

_LAURENT_ONE: Mapping[int, int] = {0: 1}

Burau3 = tuple[tuple[dict[int, int], dict[int, int]], tuple[dict[int, int], dict[int, int]]]


def _mat_mul(x: Burau3, y: Burau3) -> Burau3:
    return tuple(
        tuple(
            laurent_add(laurent_mul(x[i][0], y[0][j]), laurent_mul(x[i][1], y[1][j]))
            for j in (0, 1)
        )
        for i in (0, 1)
    )  # type: ignore[return-value]


def reduced_burau3(b: BraidWord3) -> Burau3:
    """Product of the generator images; a group homomorphism, so inverse
    letters cancel exactly."""
    m: Burau3 = (({0: 1}, {}), ({}, {0: 1}))
    for x in b.letters:
        m = _mat_mul(m, _BURAU[x])
    return m


def alexander_from_braid3(b: BraidWord3) -> AlexanderPoly:
    """Alexander polynomial of the closure of a 3-braid whose closure is a
    knot: det(burau(b) - I) * (t - 1) / (t^3 - 1), normalized.

    The division is exact for knot closures; a non-knot closure is
    rejected up front with its cycle type.
    """
    if not b.closure_is_knot:
        raise ValueError(
            f"closure is not a knot: strand permutation has cycle type {b.cycle_type()}"
        )
    m = reduced_burau3(b)
    a11 = laurent_sub(m[0][0], _LAURENT_ONE)
    a22 = laurent_sub(m[1][1], _LAURENT_ONE)
    det = laurent_sub(laurent_mul(a11, a22), laurent_mul(m[0][1], m[1][0]))
    numerator = normalize_up_to_units(laurent_mul(det, {0: -1, 1: 1}))
    quotient, rem = poly_divmod(numerator, IntPoly((-1, 0, 0, 1)))
    if not rem.is_zero:
        raise ArithmeticError("det(burau - I)(t - 1) was not divisible by t^3 - 1")
    return AlexanderPoly(normalize_up_to_units(quotient))


def branched_cover_homology(delta: AlexanderPoly, n: int) -> AbelianGroup:
    """H_1 of the n-fold cyclic cover of S^3 branched over a knot with
    Alexander polynomial delta: Z[t]/(delta, 1 + t + ... + t^(n-1)).

    That is Z[t]/(delta, t^n - 1) (exactalg.ring_quotient, which the
    cyclic route also uses).  Since delta(1) = +-1, which AlexanderPoly
    enforces, delta = delta(1) + (t - 1) h makes t - 1 a unit modulo
    delta, so the ideals (delta, 1 + ... + t^(n-1)) and
    (delta, (t - 1)(1 + ... + t^(n-1))) are equal.  Every genus-one delta,
    a t^2 + b t + a, takes a closed form from a 2 x 2 power, and any other
    delta monic up to sign its deg delta x deg delta matrix, in O(log n)
    products; the rest take the sparse n x n circulant.
    The order, when finite, independently equals
    |resultant(delta, 1 + ... + t^(n-1))| (see branched_cover_order).
    """
    return ring_quotient(delta.poly, n)


def branched_cover_order(delta: AlexanderPoly, n: int) -> int | None:
    """Order of the same homology group by the resultant route; None when
    the resultant vanishes (infinite homology)."""
    r = abs(resultant(delta.poly, cyclotomic_quotient(n)))
    return r if r else None
