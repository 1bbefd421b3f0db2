"""Surgery-description layer: normalization of the coefficients of a
periodic Takahashi manifold, the homology routes through both
presentation families and from 2 x 2 matrix powers (h1_transfer, which
the command line runs), the genus-one branching knot of the p = r = 1
family, the lens-space base of n = 1, and the coefficient symmetries.
The claims suite (takahashi.claims) compares these with one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactalg import (
    AbelianGroup,
    BigIntMatrix,
    IntPoly,
    Rational,
    cokernel,
    determinant,  # unused here; perfbench's binding test reads manifolds.determinant
    lucas_resultant,
    palindromic_quotient,
    prime_part,
    resultant,
    ring_quotient,
    smith_power_2x2,
)
from .grouppres import representer_polynomial, takahashi_matrix
from .knotkit import (
    ConwayForm,
    TwoBridge,
    conway_to_fraction,
    normalize_two_bridge,
    two_bridge_equivalent,
)

__all__ = [
    "TakahashiSpec",
    "normalize_spec",
    "h1_takahashi",
    "h1_transfer",
    "h1_cyclic_route",
    "takahashi_determinant",
    "representer_order",
    "branch_knot",
    "base_space_h1",
    "symmetry_variants",
]


@dataclass(frozen=True)
class TakahashiSpec:
    """Normalized surgery data (n, p/q, r/s): fractions reduced, numerators
    nonnegative, the infinite coefficient stored as 1/0."""

    n: int
    pq: Rational
    rs: Rational

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        for c in (self.pq, self.rs):
            if c.num < 0:
                raise ValueError("spec coefficients carry nonnegative numerators")
            if c.num == 0 and c.den != 1:
                raise ValueError("zero coefficient is stored as 0/1")
            if c.den == 0 and c.num != 1:
                raise ValueError("infinite coefficient is stored as 1/0")

    def __str__(self) -> str:
        return f"M_{self.n}({self.pq}, {self.rs})"


def _canonical(c: Rational) -> Rational:
    if c.num < 0:
        c = Rational(-c.num, -c.den)
    if c.num == 0:
        return Rational(0, 1)
    if c.den == 0:
        return Rational(1, 0)
    return c


def normalize_spec(n: int, a: Rational, b: Rational) -> TakahashiSpec:
    """Canonical surgery data: numerators made nonnegative by negating
    numerator and denominator together; 0 and the infinite coefficient
    canonicalized to 0/1 and 1/0."""
    return TakahashiSpec(n, _canonical(a), _canonical(b))


def h1_takahashi(spec: TakahashiSpec) -> AbelianGroup:
    """H_1 via the 2n-generator surgery presentation: the cokernel of its
    2n x 2n banded relation matrix (grouppres.takahashi_matrix)."""
    return cokernel(takahashi_matrix(spec.n, spec.pq, spec.rs))


def _t_n_minus_1(n: int) -> IntPoly:
    return IntPoly((-1,) + (0,) * (n - 1) + (1,))


def _representer(spec: TakahashiSpec) -> IntPoly:
    """The representer polynomial that both r = 1 routes read."""
    if spec.rs.num != 1:
        raise ValueError("the cyclic and representer routes need a coefficient of the form 1/s")
    return representer_polynomial(spec.n, spec.pq.num, spec.pq.den, spec.rs.den)


def h1_cyclic_route(spec: TakahashiSpec) -> AbelianGroup:
    """H_1 via the n-generator cyclic presentation: Z[t]/(f, t^n - 1) for
    the representer polynomial f (exactalg.ring_quotient).  For n >= 3,
    f = qs t^2 + (p - 2qs) t + qs is palindromic, so the group comes from
    a 2 x 2 power in O(log n) products at every qs
    (exactalg.palindromic_quotient, which h1_transfer shares); it is
    checked against routes that do not use it: h1_takahashi, the
    resultant routes and the tests' plain multiplication_matrix.
    Requires r = 1 and agrees with h1_takahashi on the nose."""
    return ring_quotient(_representer(spec), spec.n)


def branch_knot(q: int, s: int) -> TwoBridge:
    """Branching knot b(|4sq - 1|, 2s) of the family M_n(1/q, 1/s).

    Self-test: the Conway form [-2q, 2s] must evaluate to the same
    Schubert class (up to mirror); this pins the continued-fraction
    orientation and fails loudly if it is ever reversed.
    """
    k = normalize_two_bridge(abs(4 * s * q - 1), 2 * s)
    frac = conway_to_fraction(ConwayForm((-2 * q, 2 * s)))
    k_conway = normalize_two_bridge(frac.num, frac.den)
    if not two_bridge_equivalent(k, k_conway, allow_mirror=True):
        raise AssertionError(
            f"Conway form [-2q, 2s] gave {k_conway}, not the class of {k}"
        )
    return k


def base_space_h1(pq: Rational, rs: Rational) -> AbelianGroup:
    """H_1 of the connected sum L(p, q) # L(r, s): Z/p + Z/r, where a zero
    numerator contributes a free Z summand."""
    return cokernel(BigIntMatrix.diagonal([abs(pq.num), abs(rs.num)]))


def symmetry_variants(spec: TakahashiSpec) -> tuple[TakahashiSpec, ...]:
    """The images of spec under the coefficient symmetries
    (p/q, r/s) -> (-p/q, -r/s), (r/s, p/q) and (-r/s, -p/q)."""
    return (
        normalize_spec(spec.n, -spec.pq, -spec.rs),
        normalize_spec(spec.n, spec.rs, spec.pq),
        normalize_spec(spec.n, -spec.rs, -spec.pq),
    )


def takahashi_determinant(spec: TakahashiSpec) -> int:
    """Signed determinant of the 2n x 2n relation matrix that h1_takahashi
    reduces (grouppres.takahashi_matrix); |det| is |H_1| whenever the
    homology is finite, and det = 0 exactly when it is infinite.

    The matrix is block-circulant, I (x) A0 + P (x) A1 with P the n-cycle
    shift and A0 = [[q, -r], [0, s]], A1 = [[-q, 0], [p, -s]] the blocks
    of one period (rows 2i and 2i+1 of the band), so its determinant is
    the product of det(A0 + w A1) over the n-th roots of unity w, which is
    Res(t^n - 1, f) for f = det(A0 + A1 t) = qs t^2 + (pr - 2qs) t + qs.
    For f = a t^2 + b t + c that is a^n + c^n - V_n, with V_n the Lucas
    sequence V_n(-b, ac) (exactalg.lucas_resultant), read straight from
    (p, q, r, s) in O(log n) products, where Bareiss on the full matrix
    costs O(n^3).  The sign is exact, also at qs = 0 (an infinite
    coefficient), where f = pr t and det = (-1)^(n+1) (pr)^n.
    """
    qs = spec.pq.den * spec.rs.den
    return lucas_resultant(qs, spec.pq.num * spec.rs.num - 2 * qs, qs, spec.n)


def h1_transfer(spec: TakahashiSpec) -> AbelianGroup:
    """H_1 from powers of 2 x 2 matrices, in O(log n) products.

    Over Z[t]/(t^n - 1), t the shift of the periods, H_1 is the cokernel
    of A(t) = [[q(1 - t), -r], [pt, s(1 - t)]], and det A(t) = f =
    qs t^2 + (pr - 2qs) t + qs.  The cases:

    - qs = 0: (Z/|pr|)^n, where pr = 0 gives Z^n.
    - At a prime that does not divide qs, the relators solve for period
      i + 1, so that part is coker(T^n - (qs)^n I) with
      T = [[qs, -rs], [pq, qs - pr]] (exactalg.smith_power_2x2, which
      removes the primes of qs).  At p = r = 0, where q = s = 1, T = I
      and the group is Z^2.
    - At a prime of qs, which divides at most one of p and r, pt or -r is
      a unit and the part is that of Z[t]/(f, t^n - 1)
      (exactalg.palindromic_quotient, which h1_cyclic_route also uses).
      When c = gcd(qs, pr) is 1 that part is trivial, since f is pr t, a
      unit, modulo every prime of qs, and no power is taken.

    The two parts multiply index-wise, aligned at the end; a zero factor
    is a Z summand.  Before it returns, the order (0 when infinite) is
    checked against |takahashi_determinant|; a mismatch raises
    AssertionError.  h1_takahashi and the resultant routes avoid the helper.
    """
    n, p, q, r, s = spec.n, spec.pq.num, spec.pq.den, spec.rs.num, spec.rs.den
    qs, pr = q * s, p * r
    if qs == 0:
        c, tail = abs(pr), []
    else:
        c = math.gcd(qs, pr)
        # a Z summand of the trivial c = 1 part shows in the other part too
        e = palindromic_quotient(qs, pr - 2 * qs, n)[1] if c > 1 else (1, 1)
        off_qs = smith_power_2x2((qs, -r * s, p * q, qs - pr), qs, n)
        tail = [prime_part(x, qs) * y for x, y in zip(e, off_qs)]
    k = max(n - len(tail), 0)
    if c**k * math.prod(tail) != abs(takahashi_determinant(spec)):
        raise AssertionError(f"the order of H_1({spec}) from 2 x 2 powers is not |det|")
    factors = [c] * k + tail
    return AbelianGroup(tuple(x for x in factors if x > 1), factors.count(0))


def representer_order(spec: TakahashiSpec) -> int | None:
    """|resultant(representer polynomial, t^n - 1)| for the r = 1 family;
    None when it vanishes (infinite homology), as AbelianGroup.order().
    It runs the subresultant remainder sequence on the representer, so at
    r = 1 it is a resultant route to |takahashi_determinant|, independent
    of that function's Lucas sequence."""
    return abs(resultant(_representer(spec), _t_n_minus_1(spec.n))) or None
