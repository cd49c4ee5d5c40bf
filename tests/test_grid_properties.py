"""Property test: the grid writer prints every double as Python's %.17g
does, by comparison with the reference writer in test_grid; it needs
hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_grid import assert_reference_bytes, padded  # noqa: E402

floats = st.floats(allow_nan=True, allow_infinity=True)
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
parts = st.one_of(floats, bit_patterns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(parts, parts), min_size=1, max_size=40))
def test_any_doubles(tmp_path_factory, pairs):
    axis, values = padded([complex(re, im) for re, im in pairs])
    assert_reference_bytes(tmp_path_factory.mktemp("w"), axis, values)
