"""Property tests of the homology routes over random M_n(p/q, r/s), run
when hypothesis is installed.  The examples are bounded (n <= 20,
|coefficient entries| <= 12) and derandomized, so a run is repeatable."""

import pytest

from takahashi.exactalg import Rational
from takahashi.manifolds import (
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
