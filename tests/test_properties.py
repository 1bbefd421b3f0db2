"""Property tests of the homology routes over random M_n(p/q, r/s), and
of Z[t]/(f, t^n - 1) and the branched-cover homology against their plain
matrices, run when hypothesis is installed.  The examples are bounded
(n <= 20 or 30, |coefficient entries| <= 12) and derandomized, so a run
is repeatable."""

import pytest

from takahashi.exactalg import (
    IntPoly,
    Rational,
    cokernel,
    cyclotomic_quotient,
    multiplication_matrix,
    ring_quotient,
)
from takahashi.knotkit import alexander_two_bridge, branched_cover_homology
from takahashi.manifolds import (
    branch_knot,
    h1_cyclic_route,
    h1_takahashi,
    h1_transfer,
    normalize_spec,
    representer_order,
    takahashi_determinant,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ns = st.integers(1, 20)
entries = st.integers(-12, 12)
bounded = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)


@bounded
@hypothesis.given(ns, entries, entries, entries, entries)
def test_transfer_route_is_the_surgery_smith_form(n, p, q, r, s):
    hypothesis.assume((p, q) != (0, 0) and (r, s) != (0, 0))
    spec = normalize_spec(n, Rational(p, q), Rational(r, s))
    group = h1_transfer(spec)
    assert group == h1_takahashi(spec)
    assert (group.order() or 0) == abs(takahashi_determinant(spec))


@bounded
@hypothesis.given(ns, entries, entries, entries)
def test_transfer_route_at_r_one_meets_the_cyclic_and_resultant_routes(n, p, q, s):
    hypothesis.assume((p, q) != (0, 0))
    spec = normalize_spec(n, Rational(p, q), Rational(1, s))
    group = h1_transfer(spec)
    assert group == h1_takahashi(spec) == h1_cyclic_route(spec)
    assert group.order() == representer_order(spec)
    assert (group.order() or 0) == abs(takahashi_determinant(spec))


@bounded
@hypothesis.given(st.lists(entries, max_size=6), st.integers(1, 30))
def test_ring_quotient_is_the_circulant_cokernel(coeffs, n):
    f = IntPoly(tuple(coeffs))
    t_n_minus_1 = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    assert ring_quotient(f, n) == cokernel(multiplication_matrix(f, t_n_minus_1))


@bounded
@hypothesis.given(entries, st.integers(-40, 40), st.integers(1, 30))
def test_palindromic_ring_quotient_is_the_circulant_cokernel(x, y, n):
    hypothesis.assume(x)
    f = IntPoly((x, y, x))
    t_n_minus_1 = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    assert ring_quotient(f, n) == cokernel(multiplication_matrix(f, t_n_minus_1))


@bounded
@hypothesis.given(entries, entries, st.integers(1, 30))
def test_cover_route_is_the_cyclotomic_quotient(q, s, n):
    hypothesis.assume(q and s)
    delta = alexander_two_bridge(branch_knot(q, s))
    m = multiplication_matrix(delta.poly, cyclotomic_quotient(n))
    assert branched_cover_homology(delta, n) == cokernel(m)
