"""Property tests of the associated function and of the ultrapolynomial
log-sums; they need hypothesis."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import uwq.weights as wt  # noqa: E402
from test_weights import error_bound, fsum_reference, head_size  # noqa: E402
from uwq.weights import Ultrapolynomial, WeightSequence, assoc_fn  # noqa: E402

SEQUENCES = {s: WeightSequence.gevrey(s) for s in (1.5, 2.0, 3.0)}
radii = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(s=st.sampled_from(sorted(SEQUENCES)), rhos=st.lists(radii, min_size=1, max_size=30))
def test_monotone_and_array_equals_scalar(s, rhos):
    w = SEQUENCES[s]
    rhos = np.sort(np.array(rhos))
    res = assoc_fn(w, rhos)
    assert np.all(np.diff(res.value) >= 0.0)
    for i, rho in enumerate(rhos):
        one = assoc_fn(w, float(rho))
        assert math.isfinite(one.value) and one.value >= 0.0
        assert float.hex(float(res.value[i])) == float.hex(float(one.value))
        assert res.argmax[i] == one.argmax and res.saturated[i] == one.saturated


@st.composite
def products(draw):
    """A Gevrey product, or one over explicit weights whose quotients are
    not monotone (the next-to-last is the largest, the last the smallest)."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        w = WeightSequence.gevrey(draw(st.floats(1.01, 4.0)), truncation=8)
        return Ultrapolynomial(weight=w, scale=scale, q=draw(st.integers(1, 50)),
                               truncation=draw(st.integers(1, 20000)))
    logs = draw(st.lists(st.floats(-3.0, 6.0), min_size=1, max_size=300))
    logs += [max(logs) + 1.0, min(logs) - 1.0]
    w = WeightSequence.explicit(log_values=np.cumsum([0.0] + logs))
    return Ultrapolynomial(weight=w, scale=scale, q=1,
                           truncation=draw(st.integers(len(logs) - 1, len(logs))))


@st.composite
def points(draw, P):
    """|z| values: 0, near 1e-300, moderate, and past l m_j / 4 for every j,
    where the whole sum is the head."""
    whole = 8.0 * P.scale * math.exp(float(np.max(P.log_m())))
    kinds = st.one_of(st.just(0.0), st.floats(1e-302, 1e-298),
                      st.floats(-8.0, 4.0).map(lambda e: 10.0 ** e),
                      st.floats(1.0, 1e3).map(lambda f: f * whole))
    return draw(st.lists(kinds, min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_log_sums_pointwise_and_within_error_model(data):
    P = data.draw(products())
    zs = data.draw(points(P))
    rows = wt._log_factor_sums(P, np.array(zs))
    J = P.truncation
    for z, row in zip(zs, rows.tolist()):
        assert float.hex(row) == float.hex(float(wt._log_factor_sums(P, [z])[0]))
        head = head_size(P, z)
        assert head in (0, J) or head & (head - 1) == 0
        if z > 4.0 * P.scale * math.exp(float(np.max(P.log_m()))):
            assert head == J
        assert abs(row - fsum_reference(P, z)) <= error_bound(P, z, head)
