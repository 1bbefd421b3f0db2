"""Surgery-description layer: normalization of the coefficients of a
periodic Takahashi manifold, the homology routes through both
presentation families, the genus-one branching knot of the p = r = 1
family, the lens-space base of n = 1, and the coefficient symmetries.
The claims suite (takahashi.claims) compares these with one another.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    AbelianGroup,
    BigIntMatrix,
    IntPoly,
    Rational,
    cokernel,
    determinant,  # unused here; perfbench's binding test reads manifolds.determinant
    resultant,
    ring_quotient,
)
from .grouppres import representer_polynomial, takahashi_blocks, takahashi_matrix
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
    the representer polynomial f (exactalg.ring_quotient).  When f is monic
    up to sign and of degree below n, this is the cokernel of
    multiplication by t^n - 1 on Z[t]/(f), a deg f x deg f matrix, and
    t^n mod f comes by doubling in O(log n) products; for n >= 3,
    f = qs t^2 + (p - 2qs) t + qs, so this holds whenever qs = +-1, as on
    the unit family, and the 2 x 2 Smith form is taken in closed form.
    Otherwise it is the n x n circulant of multiplication by f on
    Z[t]/(t^n - 1), whose row k is f t^k.  Requires r = 1 and agrees with
    h1_takahashi on the nose."""
    return ring_quotient(_representer(spec), _t_n_minus_1(spec.n))


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
    shift (grouppres.takahashi_blocks), so its determinant is the product
    of det(A0 + w A1) over the n-th roots of unity w, which is
    Res(t^n - 1, f) for f = det(A0 + A1 t) = qs t^2 + (pr - 2qs) t + qs.
    Since t^n - 1 is monic the sign is exact, but only in this argument
    order: when qs = 0, f has degree 1 and resultant(f, t^n - 1) flips
    the sign at odd n.  The subresultant sequence costs O(n) against a
    divisor of degree 2, where Bareiss on the full matrix costs O(n^3).
    """
    (a0, b0), (c0, d0), (a1, b1), (c1, d1) = (
        (row.get(0, 0), row.get(1, 0)) for m in takahashi_blocks(spec.pq, spec.rs) for row in m.entries)
    f = IntPoly((a0 * d0 - b0 * c0, a0 * d1 + a1 * d0 - b0 * c1 - b1 * c0, a1 * d1 - b1 * c1))
    return resultant(_t_n_minus_1(spec.n), f)


def representer_order(spec: TakahashiSpec) -> int | None:
    """|resultant(representer polynomial, t^n - 1)| for the r = 1 family;
    None when it vanishes (infinite homology), as AbelianGroup.order()."""
    return abs(resultant(_representer(spec), _t_n_minus_1(spec.n))) or None
