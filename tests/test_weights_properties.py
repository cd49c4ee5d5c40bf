"""Property tests of the associated function; they need hypothesis."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from uwq.weights import WeightSequence, assoc_fn  # noqa: E402

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
