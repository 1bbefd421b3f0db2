"""Exact homology invariants of periodic Takahashi 3-manifolds.

A periodic Takahashi manifold M_n(p/q, r/s) is the result of rational
Dehn surgery on the 2n-component chain link, with coefficients
alternating p/q and r/s.  This package computes fundamental-group
presentations, first homology via Smith normal form, the genus-one
two-bridge branching knots of the p = r = 1 family, Alexander
polynomials (Fox calculus and reduced Burau), and homology of cyclic
branched coverings, all in exact integer arithmetic.
"""

from .exactalg import (
    AbelianGroup,
    BigIntMatrix,
    IntPoly,
    Rational,
    cokernel,
    cyclotomic_quotient,
    multiplication_matrix,
    normalize_up_to_units,
    resultant,
    ring_quotient,
    smith_normal_form,
)
from .grouppres import (
    Presentation,
    Word,
    abelianize,
    cyclic_presentation,
    cyclic_presentation_rewritten,
    free_reduce,
    relator_identity_check,
    representer_polynomial,
    takahashi_blocks,
    takahashi_matrix,
    takahashi_presentation,
)
from .knotkit import (
    AlexanderPoly,
    BraidWord3,
    ConwayForm,
    TwoBridge,
    alexander_from_braid3,
    alexander_two_bridge,
    branched_cover_homology,
    branched_cover_order,
    conway_to_fraction,
    normalize_two_bridge,
    reduced_burau3,
    two_bridge_equivalent,
    two_bridge_presentation,
)
from .manifolds import (
    TakahashiSpec,
    base_space_h1,
    branch_knot,
    h1_cyclic_route,
    h1_takahashi,
    h1_transfer,
    normalize_spec,
    representer_order,
    takahashi_determinant,
)

__version__ = "0.1.0"
