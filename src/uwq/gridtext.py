"""The row text of grid files, written and read with numpy a block of rows
at a time (methods in the ``uwq.grid`` module docstring).  ``uwq.grid``
imports this module on its first write or read, and the tables below are
built then.

The writer, ``rows_text``, prints each double as Python's ``'%.17g' % x``.
A value's text is cut from a 32-byte template, four uint64 words, first
byte lowest:

    word 0     '-' | "0.000" | d0 | '.'
    words 1-2  the digits d1..d16
    word 3     NUL | 'e' | exponent sign | 3 exponent digits | NUL | ',' or '\\n'

Word 0 comes from a table by form, sign and d0: for k = -4..-1, "0." and
-k-1 zeros before d0; for k = 0 and exponential notation, a '.' after d0
when digits follow it; for k = 1..16, d0 alone.  Words 1-2 come from the
table of 4-digit strings, NUL past the digits shown (through the last
nonzero one, and in fixed notation through digit k).  Word 3 comes from a
table by k: NUL in fixed notation, and NUL hundreds for a 2-digit
exponent.  In fixed notation with k >= 1 and digits after d_k, the '.'
goes after d_k: the digits after it move up one byte, d16 into byte 24,
under masks from a table by k.  Python's text replaces the template of
NaN, the infinities and values near a rounding tie.  The separator goes
into byte 31, the row's index text in front; the NUL bytes are dropped
once per block.

The 17 digits D = yh + rint(yl), 10^16 <= D <= 10^17, are split in
doubles, each step exact.  yh is an even integer below 2^57 and |yl| < 9.
Let c = fl(10^-8) = 10^-8 (1 + d) and c' = fl(10^-4) = 10^-4 (1 + d'), with
0 < d < 2.1e-17 and 0 < d' < 4.8e-17: both round up.  (1) hi =
floor(yh c) is Q = floor(yh / 10^8) or Q + 1: the product is at least
yh / 10^8 and rounds monotonically, and it exceeds yh / 10^8 by less than
10^9 d + 2^-24 < 10^-7, so it reaches Q + 1 only when yh - 10^8 Q >
10^8 - 10.  So lo = yh - 10^8 hi + rint(yl) lies in (-20, 10^8 + 10), and
it is exact: 10^8 hi = 5^8 hi 2^8 has at most 53 bits, and each
difference is an integer below 2^53.  (2) step = floor(lo c) is then -1,
0 or 1, exactly, and hi + step, lo - 10^8 step give D = 10^8 hi + lo with
0 <= lo < 10^8.  (3) hi = 10^9 is the carry D = 10^17: it prints as
10^16 with k + 1.  (4) For an integer z = 10^8 t + u < 10^9, u < 10^8,
z c lies in [t, t + 1 - 10^-8 + 10 d], which rounds into [t, t + 1); so
floor(hi c) = d0 with no correction.  The same bound with c' splits each
8-digit half u < 10^8 into two 4-digit groups, and every remainder is an
exact integer difference.

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

# the 10^j table's entries: j = _TEN_J0 ... _TEN_J1, NaN at both ends, where
# the reader clamps any other j; four contiguous columns, which the writer
# and the reader gather one at a time
_TEN_J0, _TEN_J1 = -344, 342
_DEKKER = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 1e-6
# byte-parallel constants of the reader: eight copies of one byte
_ONES = 0x0101010101010101
_ZEROS = 0x30 * _ONES  # "00000000"
_HIGH = 0x80 * _ONES
_LOW = 0x7F * _ONES
LEAD = b"0" * 24  # what a block of rows starts with: the window of its first field


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
    # digit number (1-based) of the last nonzero digit of group g, or 1
    last = np.ones((4, 10000), np.int8)
    for g in range(4):
        for p in range(4):
            last[g][digits4[:, p] != ord("0")] = 2 + 4 * g + p
    # word 0 by (form, sign, d0); forms 0-3 put "0." and 3 - form zeros
    # before d0, form 4 a '.' after it, form 5 nothing
    head = np.zeros((6, 2, 10, 8), np.uint8)
    head[:, 1, :, 0] = ord("-")
    for form in range(4):
        head[form, :, :, 1:6 - form] = np.frombuffer(b"0.000"[:5 - form], np.uint8)
    head[:, :, :, 6] = ord("0") + np.arange(10)
    head[4, :, :, 7] = ord(".")
    # per exponent k in [-324, 308]: word 3, the form, and how many digits
    # fixed notation shows at least
    k = np.arange(-324, 309)
    fixed = (k >= -4) & (k < 17)
    expo = np.zeros((k.size, 8), np.uint8)
    expo[:, 1] = ord("e")
    expo[:, 2] = np.where(k < 0, ord("-"), ord("+"))
    expo[:, 3:6] = digits4[np.abs(k), 1:]
    expo[np.abs(k) < 100, 3] = 0
    expo[fixed] = 0
    form = np.where(fixed & (k < 0), k + 4, np.where(fixed & (k > 0), 5, 4))
    # words 1-2 when they show their first n digits
    shown = np.zeros((17, 16), np.uint8)
    for n in range(17):
        shown[n, :n] = 255
    # per k = 1-15, the masks of words 1-2 that keep bytes before byte k and
    # take the bytes after it from the words moved one byte up, and the '.'
    point = np.zeros((16, 2, 3, 8), np.uint8)
    for at in range(1, 16):
        word, byte = divmod(at, 8)
        point[at, :word, 0] = point[at, word + 1:, 1] = 255
        point[at, word, 0, :byte] = point[at, word, 1, byte + 1:] = 255
        point[at, word, 2, byte] = ord(".")
    keep = np.zeros((25, 24), np.uint8)
    for n in range(1, 25):
        keep[n, 24 - n:] = 255
    keep = keep.view(np.uint64)
    # two exponent digits, first byte lowest, as a number; -1 if not digits
    pair = np.arange(65536)
    tens, ones = pair & 0xFF, pair >> 8
    ok = (ones >= 48) & (ones <= 57) & (tens >= 48) & (tens <= 57)
    exp2 = np.where(ok, 10 * tens + ones - 528, -1).astype(np.int16)
    tables = {
        "ten": np.array(ten).T.copy(),
        "shift": np.array(shift, np.int32),
        "digits4": digits4.view(np.uint32).ravel().astype(np.uint64),
        "stripped": stripped.view(np.uint32).ravel(),
        "last": last,
        "head": head.view(np.uint64).ravel(),
        "expo": expo.view(np.uint64).ravel(),
        "form": form.astype(np.int8),
        "least": np.where(fixed & (k >= 0), k + 1, 1).astype(np.int8),
        "shown": shown.view(np.uint64).T.copy(),
        "point": point.view(np.uint64).reshape(16, 6),
        # for the reader: per mantissa length (0-24 bytes) the window
        # bytes it keeps; the value of two exponent digits
        "keep": keep,
        "exp2": exp2,
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
    hi, hh, hl, lo = (np.take(column, j) for column in _T["ten"])
    mh = m * _DEKKER - (m * _DEKKER - m)
    ml = m - mh
    p = m * hi
    err = (((mh * hh - p) + mh * hl + ml * hh) + ml * hl) + m * lo
    s = e + np.take(_T["shift"], j)
    return np.ldexp(p, s), np.ldexp(err, s)


def _value_words(v: np.ndarray):
    """The templates of the doubles ``v`` (alternately real and imaginary
    parts), four words each, and which of them need Python's formatting."""
    finite = np.isfinite(v)
    zero = v == 0
    a = np.where(finite & ~zero, np.abs(v), 1.0)
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.intp)
    yh, yl = _scaled(m, e, k)
    # log10 may miss k by one; move it until 10^16 <= y < 10^17 (from
    # 10^16 - 0.025 on, the text is the same either way)
    while True:
        step = ((yh - 1e17) + yl >= 0).astype(np.intp) - ((yh - 1e16) + yl < -0.025)
        redo = np.flatnonzero(step)
        if not redo.size:
            break
        k[redo] += step[redo]
        yh[redo], yl[redo] = _scaled(m[redo], e[redo], k[redo])
    # yh is an even integer, so rint(yl) rounds yh + yl half to even
    r = np.rint(yl)
    slow = (np.abs(yl - r) > 0.5 - _TIE_MARGIN) | ~finite
    # the 17 digits yh + r as d0 10^16 + g0 10^12 + ... + g3, in doubles
    # (each step exact; the proof is in the module docstring)
    hi = np.floor(yh * 1e-8)
    lo = yh - hi * 1e8
    lo += r
    step = np.floor(lo * 1e-8)
    hi += step
    lo -= step * 1e8
    carry = hi == 1e9
    np.copyto(hi, 1e8, where=carry)
    k += carry
    d0 = np.floor(hi * 1e-8)
    hi -= d0 * 1e8
    g0 = np.floor(hi * 1e-4)
    g2 = np.floor(lo * 1e-4)
    g = [g0, hi - g0 * 1e4, g2, lo - g2 * 1e4]
    g = [x.astype(np.intp) for x in g]
    last = _T["last"]
    nd = np.maximum(np.maximum(np.take(last[0], g[0]), np.take(last[1], g[1])),
                    np.maximum(np.take(last[2], g[2]), np.take(last[3], g[3])))
    k += 324  # k is now a row of the per-exponent tables
    form = np.take(_T["form"], k)
    least = np.take(_T["least"], k)
    form += (form == 4) & (nd == 1)  # no '.' after d0 without digits after it
    shown = np.maximum(nd, least) - 1  # of the digits d1..d16
    words = np.empty((v.size, 4), np.uint64)
    head, first, second, tail = words.T
    head[...] = np.take(_T["head"], (form * 2 + np.signbit(v)) * 10 + d0.astype(np.intp) - zero)
    for word, pair, mask in ((first, g[:2], _T["shown"][0]), (second, g[2:], _T["shown"][1])):
        low, high = (np.take(_T["digits4"], i) for i in pair)
        high <<= np.uint64(32)
        high |= low
        np.bitwise_and(high, np.take(mask, shown), out=word)
    tail[...] = np.take(_T["expo"], k)
    # fixed notation with k >= 1 and a fraction: a '.' after digit k, and
    # the digits after it one byte up, the last into word 3
    inner = np.flatnonzero((form == 5) & (nd > least))
    if inner.size:
        a, b = first[inner], second[inner]
        keep1, move1, dot1, keep2, move2, dot2 = np.take(_T["point"], k[inner] - 324, axis=0).T
        first[inner] = (a & keep1) | ((a << np.uint64(8)) & move1) | dot1
        second[inner] = (b & keep2) | (((b << np.uint64(8)) | (a >> np.uint64(56))) & move2) | dot2
        tail[inner] = b >> np.uint64(56)
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


def _index_table(count: int) -> np.ndarray:
    """The text ``i,`` of each i < ``count``, NUL-padded to whole uint32
    words, as a (count, words) array."""
    width = -(-(len(str(count - 1)) + 1) // 4) * 4
    text = b"".join((b"%d," % i).ljust(width, b"\0") for i in range(count))
    return np.frombuffer(text, np.uint32).reshape(count, width // 4)


def rows_text(values: np.ndarray, cells: tuple, rows: int):
    """The grid-file rows ``index...,re,im`` of ``values``, the entries of
    an array of shape ``cells`` in C order, as bytes, ``rows`` rows at a
    time.  One buffer of ``rows`` templates serves every block."""
    if len(cells) == 1:
        groups = -(-len(str(cells[0] - 1)) // 4)
        lead = groups + 1  # digit words, then a word holding the comma
    else:
        # an operator's r,c from one n-entry table: the text of c repeats
        # every n rows, so a block's is a slice of one period and n rows
        n = cells[1]
        table = _index_table(n)
        cycle = np.arange(n + rows)
        columns = np.take(table, cycle % n, axis=0)
        cycle //= n
        lead = 2 * table.shape[1]
    text = np.zeros((rows, lead + 16), np.uint32)
    if len(cells) == 1:
        text[:, groups] = ord(",")
    chars = text.view(np.uint8)
    for start in range(0, values.size, rows):
        block = values[start:start + rows]
        size = block.size
        if len(cells) == 1:
            text[:size, :groups] = _index_words(np.arange(start, start + size), groups)
        else:
            at = start % n
            text[:size, :lead // 2] = np.take(table, start // n + cycle[at:at + size], axis=0)
            text[:size, lead // 2:lead] = columns[at:at + size]
        v = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
        words, slow = _value_words(v)
        for j in np.flatnonzero(slow):
            exact = np.frombuffer(b"%.17g" % v[j], np.uint8)
            words[j] = 0
            words[j].view(np.uint8)[:exact.size] = exact
        text[:size, lead:] = words.view(np.uint32).reshape(size, 16)
        chars[:size, 4 * lead + 31] = ord(",")
        chars[:size, 4 * lead + 63] = ord("\n")
        yield chars[:size].tobytes().translate(None, b"\0")


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
    redo = np.flatnonzero(~good.all(axis=0))
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
    j = q - _TEN_J0
    hi, hh, hl, lo = (np.take(column, j, mode="clip") for column in _T["ten"])
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
    e += np.take(_T["shift"], j, mode="clip")
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
