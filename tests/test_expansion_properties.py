"""Property tests of the exact polynomial calculus laws; they need hypothesis.

On polynomials every law holds exactly, so the only defect is rounding.  It
is bounded relative to the largest coefficient of the inputs, the results
and every intermediate, because cancellation from that scale is what
rounding leaves behind.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_expansion import assert_sums_match_references  # noqa: E402
from uwq.expansion import (  # noqa: E402
    PolySymbol,
    aw_to_weyl_terms,
    compose_terms,
    heat_quarter,
    inverse_aw_recursion,
    poly_allclose,
    poly_derive,
    tau_change_terms,
    transpose_terms,
)

TOL = 1e-12
MAX_DEGREE = 4

coefficients = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0,
                                  allow_nan=False, allow_infinity=False)
taus = st.floats(min_value=-1.0, max_value=2.0, allow_nan=False, allow_infinity=False)
dims = st.sampled_from([1, 2])


@st.composite
def polys(draw, d):
    exponents = st.tuples(*[st.integers(0, MAX_DEGREE)] * (2 * d))
    terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=6))
    return PolySymbol(d, {(e[:d], e[d:]): c for e, c in terms.items()})


def close(p, q, *seen):
    """p == q up to TOL times the largest coefficient of p, q and ``seen``."""
    scale = max(abs(c) for r in (p, q, *seen) for c in r.terms.values())
    return poly_allclose(p, q, rtol=0.0, atol=TOL * scale)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=dims)
def test_heat_quarter_signs_are_mutual_inverses(data, d):
    a = data.draw(polys(d))
    up, down = heat_quarter(a, +1), heat_quarter(a, -1)
    assert close(heat_quarter(up, -1), a, up)
    assert close(heat_quarter(down, +1), a, down)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=dims, t1=taus, t2=taus, t3=taus)
def test_tau_change_group_law(data, d, t1, t2, t3):
    a = data.draw(polys(d))
    via = tau_change_terms(a, t1, t2)
    assert close(tau_change_terms(via, t2, t3), tau_change_terms(a, t1, t3), a, via)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=dims, tau=taus)
def test_transpose_is_an_involution(data, d, tau):
    a = data.draw(polys(d))
    once = transpose_terms(a, tau)
    assert close(transpose_terms(once, tau), a, once)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=dims)
def test_composition_is_associative(data, d):
    a, b, c = (data.draw(polys(d)) for _ in range(3))
    ab, bc = compose_terms(a, b), compose_terms(b, c)
    assert close(compose_terms(ab, c), compose_terms(a, bc), a, b, c, ab, bc)


def assert_valid_symbol(r, d):
    """What the public constructor would have checked: d-tuples of
    non-negative Python ints, no zero coefficient, and re-validating changes
    nothing, key order included."""
    assert r.d == d
    for key, c in r.terms.items():
        assert len(key) == 2
        for e in key:
            assert type(e) is tuple and len(e) == d
            assert all(type(v) is int and v >= 0 for v in e)
        assert type(c) is complex and c != 0
    assert list(PolySymbol(r.d, r.terms).terms.items()) == list(r.terms.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=dims, tau=taus, c=coefficients,
       order=st.tuples(*[st.integers(0, 3)] * 4))
def test_algebra_results_are_valid_symbols(data, d, tau, c, order):
    a, b = data.draw(polys(d)), data.draw(polys(d))
    alpha, beta = order[:d], order[2:2 + d]
    results = [a + b, a - b, a * b, a * c, c * a, a * 2, -a, a + c, c - a,
               a.reflect_xi(), poly_derive(a, alpha, beta),
               heat_quarter(a, +1), heat_quarter(a, -1),
               tau_change_terms(a, tau, 0.5), transpose_terms(a, tau), compose_terms(a, b),
               inverse_aw_recursion(a).a, *aw_to_weyl_terms(a).terms]
    for r in results:
        assert_valid_symbol(r, d)


# Quarter-integer coefficients and taus keep the calculus exact, so its
# running sums meet exact zeros.
dyadic = st.builds(complex, st.integers(-8, 8).map(lambda k: k / 4),
                   st.integers(-8, 8).map(lambda k: k / 4))
exact_taus = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def cancelling(draw, d):
    """p minus the first term of a heat flow or a tau-change of p, so that
    the sum over a's own terms cancels those keys to exactly 0 and the
    next order puts some of them back; in reverse key order half the time,
    so that a cancelled key comes back behind keys it used to precede."""
    exponents = st.tuples(*[st.integers(0, MAX_DEGREE)] * (2 * d))
    terms = draw(st.dictionaries(exponents, dyadic, min_size=1, max_size=6))
    p = PolySymbol(d, {(e[:d], e[d:]): c for e, c in terms.items()})
    first = PolySymbol.zero(d)
    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    if draw(st.booleans()):
        for e in unit:
            two = tuple(2 * v for v in e)
            first = first + poly_derive(p, two, None) + poly_derive(p, None, two)
        a = p - first * 0.25
    else:
        for e in unit:
            first = first + poly_derive(p, e, e)
        a = p - first * (0.5 * -1j)
    if draw(st.booleans()):
        a = PolySymbol(d, dict(reversed(a.terms.items())))
    return a


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=dims, t1=st.one_of(exact_taus, taus), t2=exact_taus)
def test_in_place_sums_match_the_reference_sums(data, d, t1, t2):
    symbols = st.one_of(polys(d), cancelling(d))
    a, b = data.draw(symbols), data.draw(symbols)
    assert_sums_match_references(a, b, taus=(t1, t2))
