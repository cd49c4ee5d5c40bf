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

The reader (``rows_values``; method in the ``uwq.grid`` docstring) reads
a field right-aligned in 24 bytes, its exponent from the last 8.  Its
certification bound: let u = 2^-53 and P = m1 hi, where m = m1 + m2 with
m1 the double nearest m (|m2| <= u m1), and the table gives 10^q 2^-t =
hi + lo + d with hi in [1/2, 1), |lo| <= u hi and |d| <= u^2 hi / 2.  Then
m 10^q 2^-t = m1 hi + m1 lo + m2 hi + m2 lo + m d, and TwoProduct gives
m1 hi = p + e exactly, |e| <= u p.  The three terms e, m1 lo and m2 hi
are each at most u P; summed in three roundings, each off by u times a
partial sum of at most 3 u P, they are off by at most 7 u^2 P, and the
dropped m2 lo and m d add 1.5 u^2 P.  So the computed p + s misses the
exact value by less than 9 u^2 P < 16 u^2 p = 2^-102 p.  With r the double
nearest p + s and t = s - (r - p), p + s = r + t exactly (Fast2Sum, as
|s| < |p|).  For r = f 2^e, f in [1/2, 1), the midpoints around r lie
2^(e-54) above it and, below, 2^(e-54) too unless f = 1/2, where they lie
2^(e-55) below; so r is the correctly rounded result when |t| + 2^-102 p
is less than the half gap on t's side.  Scaling by 2^t is exact when the
result is normal; a subnormal or infinite one is not certified.
"""

from __future__ import annotations

import itertools
import mmap

import numpy as np

__all__ = ["rows_text", "rows_values", "LEAD"]

# the 10^j table's rows: j = _TEN_J0 ... _TEN_J1, NaN at both ends, where
# the reader clamps any other j
_TEN_J0, _TEN_J1 = -344, 342
_DEKKER = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 1e-6
# byte-parallel constants of the reader: eight copies of one byte
_ONES = 0x0101010101010101
_ZEROS = 0x30 * _ONES  # "00000000"
_HIGH = 0x80 * _ONES
_LOW = 0x7F * _ONES
LEAD = b"0" * 24  # what a block of rows starts with: the window of its first field


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
    for j in range(_TEN_J0, _TEN_J1 + 1):
        if j in (_TEN_J0, _TEN_J1):
            # no m < 10^19 makes m 10^j a normal double: NaN, which the
            # reader's products carry to an uncertified result
            ten.append((np.nan,) * 4)
            shift.append(0)
            continue
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
    keep = np.zeros((25, 24), np.uint8)
    for n in range(1, 25):
        keep[n, 24 - n:] = 255
    keep = keep.view(np.uint64)
    # two exponent digits, first byte lowest, as a number; -1 if not digits
    pair = np.arange(65536)
    tens, ones = pair & 0xFF, pair >> 8
    ok = (ones >= 48) & (ones <= 57) & (tens >= 48) & (tens <= 57)
    exp2 = np.where(ok, 10 * tens + ones - 528, -1).astype(np.int16)
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
        # for the reader: per mantissa length (0-24 bytes) the window
        # bytes it keeps; the value of two exponent digits
        "keep": keep,
        "exp2": exp2,
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


def _windows(b: np.ndarray, width: int) -> np.ndarray:
    """Every ``width`` consecutive bytes of ``b``, one item per start."""
    return np.ndarray((b.size - width + 1,), f"V{width}", b, 0, (1,))


def _zero_bytes(w: np.ndarray) -> np.ndarray:
    """0x80 at each zero byte of the words ``w``, 0 elsewhere (exact: no
    carry crosses a byte)."""
    return ~(((w & _LOW) + _LOW) | w) & _HIGH


def _digit_words(d: np.ndarray):
    """The numbers that the words ``d`` spell in decimal digits 0-9, one
    per byte, first byte most significant; and which words have a byte
    that is not a digit.  Pairs of bytes, then quads, then the word."""
    bad = (d | (d + 0x76 * _ONES)) & _HIGH
    d = (d * 10 + (d >> 8)) & 0x00FF00FF00FF00FF
    d = (d * 100 + (d >> 16)) & 0x0000FFFF0000FFFF
    return (d * 10000 + (d >> 32)) & 0xFFFFFFFF, bad


def rows_values(text: bytes, fallback) -> np.ndarray:
    """The rows of ``text``, ``LEAD`` followed by whole lines, as the
    (rows, columns) float array that ``np.loadtxt`` makes of the lines, bit
    for bit (the method is in the ``uwq.grid`` module docstring).  The
    lines of a field outside the grammar or not certified, or all of them
    when the separators are, go through ``fallback(lines)``."""
    b = np.frombuffer(text, np.uint8)
    # ',' '\n' and '+' are the grammar's only bytes below '-'; any other
    # byte there ('\r', ' ', ...) sends the block to the fallback
    sep = np.flatnonzero(b < 45)
    kind = b[sep]
    plus = kind == 43
    if plus.any():
        sep, kind = sep[~plus], kind[~plus]
    cols = int(np.argmax(kind == 10)) + 1
    row = np.full(cols, 44, np.uint8)
    row[-1] = 10
    # a block whose first line has no comma (a blank line, say) too
    if cols == 1 or sep.size % cols or not (kind.reshape(-1, cols) == row).all():
        return fallback(memoryview(text)[len(LEAD):])
    size = np.empty_like(sep)
    size[0] = sep[0] - len(LEAD)
    np.subtract(sep[1:], sep[:-1] + 1, out=size[1:])
    # column by column, so each column's fields lie together; the writer's
    # index columns hold integers, the last two any decimal
    rows = sep.size // cols
    sep, size = sep.reshape(rows, cols).T.copy(), size.reshape(rows, cols).T.copy()
    out = np.empty((cols, rows))
    good = np.empty(out.shape, bool)
    split = cols - 2
    for part, parse in ((slice(None, split), _integers), (slice(split, None), _decimals)):
        if out[part].size:
            values, ok = parse(b, sep[part].ravel(), size[part].ravel())
            out[part] = values.reshape(-1, rows)
            good[part] = ok.reshape(-1, rows)
    out = out.T
    redo = np.unique(np.flatnonzero(~good) % rows)
    if redo.size:
        ends = sep[-1] + 1
        starts = np.concatenate(([len(LEAD)], ends[:-1]))
        out[redo] = fallback(b"".join(text[i:j] for i, j in zip(starts[redo], ends[redo])))
    return out


def _integers(b: np.ndarray, sep: np.ndarray, size: np.ndarray):
    """The fields that end before ``sep`` read as integers of 1-8 digits,
    and which of them are."""
    w = _windows(b, 8)[sep - 8].view(np.uint64)
    value, bad = _digit_words((w ^ _ZEROS) & _KEEP[2][np.minimum(size, 8)])
    return value.astype(np.float64), (bad == 0) & (size >= 1) & (size <= 8)


def _decimals(b: np.ndarray, sep: np.ndarray, size: np.ndarray):
    """The fields that end before ``sep`` read as ``-?digits[.digits]
    [e(+|-)dd[d]]``, as the nearest doubles, and which of them are and are
    certified."""
    # an exponent in the field's last 8 bytes: e, a sign, 2 or 3 digits
    tail = _windows(b, 8)[sep - 8]
    byte = tail.view(np.uint8).reshape(-1, 8)
    e3 = (byte[:, 3] == 101) & (size >= 6)
    e2 = (byte[:, 4] == 101) & (size >= 5) & ~e3
    has_e = e2 | e3
    sign = np.where(e3, byte[:, 4], byte[:, 5])
    hundreds = byte[:, 5] - np.uint8(48)
    tens = _T["exp2"][tail.view(np.uint64) >> 48]
    good = ~has_e | ((tens >= 0) & ((sign == 43) | (sign == 45)) & (~e3 | (hundreds <= 9)))
    good &= (size >= 1) & (size <= 24)
    expo = tens + e3 * 100 * hundreds
    expo = np.where(sign == 45, -expo, expo) * has_e
    # the 24 bytes that end with the mantissa, in three words (first byte
    # lowest), as digit values c ^ '0'; the sign and the bytes before the
    # field become 0.  Each word is a row from here on.
    neg = b[sep - size] == 45
    end = sep - (e3 * 5 + e2 * 4)
    digits = end - sep + size - neg
    m = _windows(b, 24)[end - 24].view(np.uint64).reshape(-1, 3).T.copy()
    m ^= _ZEROS
    m &= np.take(_KEEP, np.minimum(digits, 24), axis=1)
    # at most one '.', with a digit on each side; it reads as a 0 digit
    point = _zero_bytes(m ^ 0x1E * _ONES)  # '.' ^ '0'
    m ^= (point >> 7) * 0x1E
    value, bad = _digit_words(m)
    # the lowest bit of ``flags`` is bit 8 at + word for the '.' at byte
    # ``at`` of word ``word``; bit 64 if there is none
    flags = (point[0] >> 7) | (point[1] >> 6) | (point[2] >> 5)
    bit = np.bitwise_count((flags - 1) & ~flags).astype(np.intp)
    places, has_p = _PLACES[bit], bit < 64  # digits after the '.'
    good &= (bad[0] | bad[1] | bad[2] | flags & (flags - 1)) == 0
    good &= (places >= has_p) & (places + has_p < digits)
    # drop the 0 of the '.' from its word: A 10^(8-at) + 0 + B becomes
    # A 10^(7-at) + B; the words before it weigh a tenth of their place
    word = bit & 7
    cell = word * len(sep) + np.arange(len(sep))
    flat = value.reshape(-1)
    held = flat[cell].astype(np.float64)
    flat[cell] = held - np.floor(held / _BEFORE[bit]) * _DROP[bit]
    # at most 19 digits, so a uint64 holds them (and converts to a double
    # below 2^64); a field past that counts as 0 here
    good &= value[0] < _FIRST[word]
    value[0] *= good
    mant = value[0] * _WEIGHT0[word] + value[1] * _WEIGHT1[word] + value[2]
    x, certified = _scaled_value(mant, expo - places)
    return np.where(neg, -x, x), good & certified


def _scaled_value(mant: np.ndarray, q: np.ndarray):
    """The doubles nearest mant 10^q, and whether each is certified: it
    must come out normal, with the double-double product farther than its
    error bound from a midpoint (a q outside the table reads its NaN end
    rows)."""
    j = np.clip(q, _TEN_J0, _TEN_J1) - _TEN_J0
    ten = _TEN[j].view(np.float64).reshape(-1, 4)
    hi, hh, hl, lo = ten[:, 0], ten[:, 1], ten[:, 2], ten[:, 3]
    m1 = mant.astype(np.float64)
    m2 = (mant - m1.astype(np.uint64)).view(np.int64).astype(np.float64)
    mh = m1 * _DEKKER - (m1 * _DEKKER - m1)
    ml = m1 - mh
    p = m1 * hi
    s = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + (m1 * lo + m2 * hi)
    r = p + s
    t = s - (r - p)
    frac, e = np.frexp(r)
    # half the gap to the neighbour on t's side: below a power of two the
    # gap is half the one above
    half = np.ldexp(1.0, e - 54 - ((frac == 0.5) & (t < 0)))
    e += _T["shift"][j]
    ok = (np.abs(t) + p * 2.0**-102 < half) & (e >= -1021) & (e <= 1024)
    return np.ldexp(frac, np.where(ok, e, 0)), ok


_BIT = np.arange(65)
_AT, _WORD = _BIT >> 3, _BIT & 7
# by the lowest bit of ``flags``: the digits after the '.'; 10^(8 - at)
# and 9 10^(7 - at), 10^9 and 0 with no '.' (nothing moves)
_PLACES = np.where(_AT < 8, 23 - 8 * _WORD - _AT, 0)
_BEFORE = np.where(_AT < 8, 10.0 ** (8 - _AT), 1e9)
_DROP = np.where(_AT < 8, 9 * 10.0 ** (7 - _AT), 0.0)
# by the word holding the '.', the weights of words 0 and 1 in the
# mantissa, and the bound on word 0 that keeps it below 10^19
_WEIGHT0 = np.array([10**16, 10**15, 10**15], np.uint64)
_WEIGHT1 = np.array([10**8, 10**8, 10**7], np.uint64)
_FIRST = np.array([1000, 10000, 10000], np.uint64)
_KEEP = _T["keep"].T.copy()  # word j of the mask for n bytes: _KEEP[j, n]
_TEN = _T["ten"].view("V32").reshape(-1)
