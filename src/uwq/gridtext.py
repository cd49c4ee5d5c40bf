"""The row text of grid files: Python's ``'%.17g' % x`` for every double,
made with numpy a block of rows at a time (method in the ``uwq.grid``
module docstring).  ``grid.save_grid`` imports this module on its first
write, and the tables below are built then.

One value's text is cut from a 48-byte template, six uint64 words:

    0 '-' | 1-5 "0.000" | 6-39 "d.d.d. ... d." for the 17 digits d0..d16 |
    40 'e' | 41 exponent sign | 42-44 exponent digits | 45 ',' or '\\n' | 46-47 NUL

A mask per layout keeps the bytes of the value's text and NULs the rest;
the separator at byte 45 is set per row, and the NULs are dropped once per
block.  Layouts: 0-20 fixed notation with exponent k = layout - 4, 21 and
22 exponential with 2 and 3 exponent digits.  A zero goes through as 1.0
with its leading digit set to 0, which prints "0" or "-0".
"""

from __future__ import annotations

import itertools
import mmap

import numpy as np

__all__ = ["rows_text"]

_TEN_J0 = -293  # the 10^j table holds j = _TEN_J0 ... 341
_DEKKER = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 1e-6


def _layout_mask(layout: int, neg: int, nd: int) -> np.ndarray:
    """Template bytes kept for a value of this layout and sign whose last
    nonzero digit is digit nd (1-based); digit i is byte 6 + 2i and the
    point slot after it byte 7 + 2i."""
    keep = [0] * neg
    if layout <= 20:
        k = layout - 4
        keep += [6 + 2 * i for i in range(nd if k < 0 else max(nd, k + 1))]
        if k < 0:
            keep += range(1, 2 - k)  # "0." and -k-1 zeros
        elif nd > k + 1:
            keep.append(7 + 2 * k)
    else:
        keep += [6 + 2 * i for i in range(nd)] + [7] * (nd > 1)
        keep += [40, 41, 43, 44] + [42] * (layout == 22)
    mask = np.zeros(48, np.uint8)
    mask[keep] = 255
    return mask


def _build_tables() -> dict:
    # 10^j = (hi + lo) 2^shift with hi + lo in [1/2, 1): num/den is that
    # fraction exactly, and int / int rounds correctly
    ten, shift = [], []
    for j in range(_TEN_J0, 342):
        if j >= 0:
            num = 10**j
            den = 1 << num.bit_length()
        else:
            den = 10**-j
            num = 1 << (den.bit_length() - 1)
        hi = num / den
        lo = (num * 2**53 - int(hi * 2**53) * den) / (den * 2**53)
        split = hi * _DEKKER - (hi * _DEKKER - hi)
        ten.append((hi, split, hi - split, lo))
        shift.append(den.bit_length() - 1 if j >= 0 else 1 - den.bit_length())
    digits4 = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint8)
    digits4 = digits4.reshape(10000, 4)
    stripped = digits4 * (np.cumsum(digits4 != ord("0"), axis=1) > 0).astype(np.uint8)
    stripped[0, 3] = ord("0")
    dotted = np.full((10000, 8), ord("."), np.uint8)
    dotted[:, ::2] = digits4
    # digit number (1-based) of the last nonzero digit of group g, or 1
    last = np.ones((4, 10000), np.int8)
    for g in range(4):
        for p in range(4):
            last[g][digits4[:, p] != ord("0")] = 2 + 4 * g + p
    head = np.tile(np.frombuffer(b"-0.000\0.", np.uint8), (10, 1))
    head[:, 6] = ord("0") + np.arange(10)
    # per exponent k in [-324, 308]
    k = np.arange(-324, 309)
    expo = np.zeros((k.size, 8), np.uint8)
    expo[:, 0] = ord("e")
    expo[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    expo[:, 2:5] = digits4[np.abs(k), 1:]
    layout = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, 21, 22))
    # mask (layout, neg, nd) is row (2 layout + neg) 17 + nd - 1
    masks = np.array([_layout_mask(lay, neg, nd) for lay in range(23)
                      for neg in (0, 1) for nd in range(1, 18)])
    tables = {
        "ten": np.array(ten),
        "shift": np.array(shift, np.int32),
        "digits4": digits4.view(np.uint32).ravel(),
        "stripped": stripped.view(np.uint32).ravel(),
        "dotted": dotted.view(np.uint64).ravel(),
        "last": last,
        "head": head.view(np.uint64).ravel(),
        "expo": expo.view(np.uint64).ravel(),
        "code": layout * 34 - 1,
        "masks": masks.view(np.uint64),
    }
    # The tables live as long as the process.  Built in the malloc heap in
    # the middle of a benchmark pass, they kept it from shrinking: the
    # cli-io peak RSS read 78 or 82 MB from run to run, 78.4 MB with this
    # mapping.
    sizes = [-(-table.nbytes // 8) * 8 for table in tables.values()]
    store = np.frombuffer(mmap.mmap(-1, sum(sizes)), np.uint8)
    for (name, table), start in zip(list(tables.items()), itertools.accumulate([0] + sizes)):
        tables[name] = store[start:start + table.nbytes].view(table.dtype).reshape(table.shape)
        tables[name][...] = table
        tables[name].flags.writeable = False
    return tables


_T = _build_tables()


def _scaled(m, e, k):
    """|x| 10^(16 - k) as yh + yl for |x| = m 2^e: the product of m and the
    double-double 10^(16 - k) by Dekker's exact TwoProduct."""
    j = 16 - _TEN_J0 - k
    hi, hh, hl, lo = _T["ten"][j].T
    mh = m * _DEKKER - (m * _DEKKER - m)
    ml = m - mh
    p = m * hi
    err = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * lo
    s = e + _T["shift"][j]
    return np.ldexp(p, s), np.ldexp(err, s)


def _value_words(v: np.ndarray):
    """The masked templates of the doubles ``v`` (alternately real and
    imaginary parts), and which of them need Python's formatting."""
    finite = np.isfinite(v)
    zero = v == 0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int32)
    yh, yl = _scaled(m, e, k)
    # log10 may miss k by one; move it until 10^16 <= y < 10^17 (from
    # 10^16 - 0.025 on, the text is the same either way)
    while True:
        step = ((yh - 1e17) + yl >= 0).astype(np.int32) - ((yh - 1e16) + yl < -0.025)
        redo = np.flatnonzero(step)
        if not redo.size:
            break
        k[redo] += step[redo]
        yh[redo], yl[redo] = _scaled(m[redo], e[redo], k[redo])
    # yh is an even integer, so rint(yl) rounds yh + yl half to even
    r = np.rint(yl)
    digits = yh.astype(np.int64) + r.astype(np.int64)
    slow = (np.abs(yl - r) > 0.5 - _TIE_MARGIN) | ~finite
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    top, rest = np.divmod(digits, 10**16)
    g = np.empty((4, v.size), np.intp)
    hi, lo = np.divmod(rest, 10**8)
    g[0], g[1] = np.divmod(hi, 10**4)
    g[2], g[3] = np.divmod(lo, 10**4)
    last = _T["last"]
    nd = np.maximum(np.maximum(last[0][g[0]], last[1][g[1]]),
                    np.maximum(last[2][g[2]], last[3][g[3]]))
    k += 324  # k is now a row of the per-exponent tables
    words = np.empty((v.size, 6), np.uint64)
    words[:, 0] = _T["head"][top - zero]
    for i in range(4):
        words[:, 1 + i] = _T["dotted"][g[i]]
    words[:, 5] = _T["expo"][k]
    words &= _T["masks"][_T["code"][k] + 17 * np.signbit(v) + nd]
    return words, slow


def _index_words(i: np.ndarray, groups: int) -> np.ndarray:
    """Decimal text of the integers ``i`` < 10^(4 groups), four digits to a
    uint32 word, most significant first, NUL before the first digit."""
    words = np.empty((i.size, groups), np.uint32)
    for j in range(groups):
        scale = 10000 ** (groups - 1 - j)
        g = i // scale % 10000 if groups > 1 else i
        words[:, j] = np.where(i >= 10000 * scale, _T["digits4"][g], _T["stripped"][g])
        if scale > 1:
            words[i < scale, j] = 0
    return words


def rows_text(block: np.ndarray, start: int, cells: tuple) -> bytes:
    """The grid-file rows ``index...,re,im`` of the entries ``block`` of an
    array of shape ``cells``, the first at flat position ``start``."""
    # per index its digit words, then a word holding the comma
    groups = [-(-len(str(c - 1)) // 4) for c in cells]
    lead = sum(groups) + len(groups)
    row = np.zeros((block.size, lead + 24), np.uint32)
    col = 0
    for i, g in zip(np.unravel_index(np.arange(start, start + block.size), cells), groups):
        row[:, col:col + g] = _index_words(i, g)
        row[:, col + g] = ord(",")
        col += g + 1
    v = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
    words, slow = _value_words(v)
    values = words.view(np.uint8)
    for j in np.flatnonzero(slow):
        exact = b"%.17g" % v[j]
        values[j] = 0
        values[j, :len(exact)] = np.frombuffer(exact, np.uint8)
    text = row.view(np.uint8)
    text[:, 4 * lead:] = values.reshape(block.size, 96)
    text[:, 4 * lead + 45] = ord(",")
    text[:, 4 * lead + 93] = ord("\n")
    return text.tobytes().translate(None, b"\0")
