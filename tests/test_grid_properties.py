"""Property tests: the grid writer prints every double as Python's %.17g
does, by comparison with the reference writer in test_grid, and the
reader's parser returns float()'s double for every decimal of its
grammar and reads any other text as np.loadtxt does; they need
hypothesis."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_grid import assert_reference_bytes, padded  # noqa: E402
from uwq import grid, gridtext  # noqa: E402

floats = st.floats(allow_nan=True, allow_infinity=True)
bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
parts = st.one_of(floats, bit_patterns)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(parts, parts), min_size=1, max_size=40))
def test_any_doubles(tmp_path_factory, pairs):
    axis, values = padded([complex(re, im) for re, im in pairs])
    assert_reference_bytes(tmp_path_factory.mktemp("w"), axis, values)


@st.composite
def grammar_strings(draw):
    """A decimal ``-?digits[.digits]e(+|-)dd[d]`` of 1-19 significant digits
    and value m 10^q, q in [-345, 310], the '.' anywhere between digits."""
    k = draw(st.integers(1, 19))
    digits = str(draw(st.integers(1, 9))) + draw(st.text("0123456789", min_size=k - 1, max_size=k - 1))
    digits = "0" * draw(st.integers(0, 2)) + digits
    after = draw(st.integers(0, len(digits) - 1))
    q = draw(st.integers(-345, 310))
    mantissa = digits[:len(digits) - after] + ("." + digits[len(digits) - after:] if after else "")
    expo = q + after
    text = "-" * draw(st.booleans()) + mantissa
    width = draw(st.sampled_from(["%02d", "%03d", None]))
    if width or expo:
        text += "e" + ("-" if expo < 0 else "+") + (width or "%02d") % abs(expo)
    return text


def midpoint_distance(text: str) -> Fraction:
    """|v - the nearest rounding midpoint| / |v| for the exact value v."""
    v, x = Fraction(text), float(text)
    mids = [(Fraction(x) + Fraction(math.nextafter(x, t))) / 2 for t in (-math.inf, math.inf)]
    return min(abs(v - m) for m in mids) / abs(v)


@settings(max_examples=500, deadline=None)
@given(st.lists(grammar_strings(), min_size=1, max_size=4))
def test_grammar_strings_parse_as_float(texts):
    # the parser returns float()'s doubles, bit for bit, or declines; it
    # declines a normal result only within its error bound of a midpoint
    # or for a field longer than 24 bytes.  Each string fills both value
    # columns of a row.
    declined = []

    def fallback(lines):
        lines = [line.split(",")[0] for line in bytes(lines).decode().splitlines()]
        declined.extend(lines)
        return np.array([[float(t)] * 2 for t in lines])

    got = gridtext.rows_values(gridtext.LEAD + "".join(f"{t},{t}\n" for t in texts).encode(), fallback)
    for column in got.T:
        assert [v.hex() for v in column.tolist()] == [float(t).hex() for t in texts]
    for t in declined:
        assert (len(t) > 24 or not sys.float_info.min <= abs(float(t)) < math.inf
                or midpoint_distance(t) < Fraction(1, 2**90)), t


def read_or_reject(read):
    """The bytes and shape of the array ``read()`` returns, or "rejected"
    if it raises ValueError."""
    try:
        got = read()
    except ValueError:
        return "rejected"
    return got.shape, got.tobytes()


edits = st.tuples(st.integers(0, 2**20), st.sampled_from(["set", "insert", "delete"]),
                  st.sampled_from(list(b"0123456789.e+-,\n\r Ez\x80")))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(parts, parts), min_size=1, max_size=4),
       st.lists(edits, min_size=1, max_size=3))
def test_edited_rows_read_as_loadtxt(tmp_path_factory, pairs, changes):
    # the writer's rows with a few bytes set, inserted or deleted read, or
    # are rejected, exactly as np.loadtxt reads them
    axis, values = padded([complex(re, im) for re, im in pairs])
    path = tmp_path_factory.mktemp("e") / "u.csv"
    grid.save_grid(axis, values, path)
    body = bytearray(path.read_bytes().split(b"\n", 1)[1])
    for at, how, byte in changes:
        at %= len(body) + 1
        if how == "insert":
            body.insert(at, byte)
        elif at < len(body):
            if how == "set":
                body[at] = byte
            else:
                del body[at]
    lines = bytes(body) if body.endswith(b"\n") else bytes(body) + b"\n"
    assert (read_or_reject(lambda: gridtext.rows_values(gridtext.LEAD + lines, grid._loadtxt_rows))
            == read_or_reject(lambda: grid._loadtxt_rows(lines)))
