"""Uniform periodic grids, the Fourier convention, Gaussian windows,
sampled-function containers, and the one grid-file format.

Convention: F(xi) = integral e^{-i x xi} f(x) dx, approximated by the
Riemann sum dx^d * sum_j e^{-i x_j xi_k} u(x_j) on the half-open box
[-L, L)^d.  With the dual spacing pi/L this is an exact (shifted) DFT, so
forward/inverse transforms round-trip to rounding error.  Frequencies are
kept in monotone physical order; fftshift bookkeeping stays internal.

Grid files are CSV.  The first line is the header

    # n=<n> L=<L> d=<d>[ kind=<kind>]

naming the AxisGrid (L printed with ``.17g``).  ``kind`` is absent for a
function sampled on the grid, ``phase`` for a phase-space grid (its xi axis
is the dual grid), and ``operator`` for an N x N operator matrix, N = n^d.
Each following line is one row ``index...,re,im``: a function or phase grid
has one index column ``i`` into its values flattened in C order (x-major
for phase grids), an operator has two, ``r,c``.  Values are printed with
``%.17g``, so a file reads back to the same doubles bit for bit (a NaN
reads back as NaN).  The writer refuses, before it opens the file, a
``kind`` other than these three and an array whose shape is not the one
the kind gives the axis (N for a function, N^2 for a phase grid, (N, N)
for an operator).  The reader
rejects with ``UwqError`` a missing or malformed header, an unexpected
``kind``, malformed rows, a wrong column count, and an index set that is
fractional, out of range, or does not cover every cell exactly once; rows
may come in any order.

The writer makes the bytes of Python's ``'%.17g' % x`` with numpy
(``uwq.gridtext``), a block of rows at a time.  For finite nonzero
|x| = m 2^e (``np.frexp``) and k = floor(log10 |x|), y = |x| 10^(16-k) is
formed as a double-double yh + yl: Dekker's exact TwoProduct (Numer.
Math. 18, 1971) of m and a two-double table entry for 10^(16-k) 2^-t,
built from exact integers, then ``np.ldexp``.  The error is below 2^-46,
far less than a unit in the 17th digit.  k moves by one until
10^16 - 0.025 <= y < 10^17; in that slack below 10^16, and when
round(y) = 10^17 carries into k + 1, both exponents print the same text.
The 17 digits are round-half-even(y), correct (Steele & White, PLDI 1990)
unless y lies within 1e-6 of a rounding tie.  Such values, NaN and the
infinities take Python's ``%.17g``; in random data that is about one
value in 500,000, plus every exact tie.  The digits split, in doubles and
each step exact, into the first and four groups of four.  Each value's
text fills a 32-byte template from tables: the sign, then "0." and zeros
or a '.' after the first digit by layout (fixed notation for
-4 <= k < 17, else d.ddde+XX with 2 or 3 exponent digits), the groups as
4-digit strings up to the last nonzero digit, and the exponent.  In fixed
notation with k >= 1 and a fraction the digits after the k-th move up one
byte to let the '.' in.  An operator's index text comes from one table of
its n indices, a function's or phase grid's from the 4-digit strings; the
NUL bytes left are dropped once per block (layouts and proofs in
``uwq.gridtext``).

The reader parses the body with numpy too (``uwq.gridtext``), 256 KiB of
whole lines at a time, so the body is never held whole.  The index
columns are integers of 1-8 digits; the last two take the writer's
grammar ``-?digits[.digits][e(+|-)dd[d]]`` in at most 24 bytes.  Each
field's bytes are gathered into three 64-bit words and read 8 digits to a
word (SWAR), which gives it as m 10^q with an exact integer m < 10^19.
m, split into the double nearest it and the exact rest, times the
writer's two-double table entry for 10^q 2^-t is a double-double by
Dekker's TwoProduct; it rounds to r with an exact residual.  r is the
double nearest m 10^q (Clinger, PLDI 1990; Lemire, Softw. Pract. Exp. 51,
2021) when the residual plus the product's error bound, 2^-102 of the
product, stays below half the gap from r to its neighbour on the
residual's side (half as wide below a power of two); the derivation is in
``uwq.gridtext``.  A line with a field outside the grammar, not certified,
subnormal or beyond the float range goes through ``np.loadtxt`` as before,
and so does a block with other separators ('\r', spaces) or whose first
line has no comma (a blank line).  The writer's 17 digits lie at least
0.05 units in the last place from a midpoint, so its text needs
``np.loadtxt`` only for subnormals, NaN and the infinities, and any file
reads, or is rejected, as ``np.loadtxt`` reads it.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UwqError

__all__ = [
    "AxisGrid",
    "FunctionGrid",
    "PhaseFunctionGrid",
    "fourier",
    "inverse_fourier",
    "gaussian_window",
    "quadrature",
    "inner",
    "l2_norm",
    "phase_inner",
    "phase_l2_norm",
    "save_grid",
    "save_function",
    "load_function",
    "save_phase",
    "load_phase",
]


@dataclass(frozen=True)
class AxisGrid:
    """n equispaced points per axis on [-L, L), n a power of two, d <= 2."""

    n: int
    L: float
    d: int = 1

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise UwqError("n must be a power of two >= 2")
        if not (self.L > 0):
            raise UwqError(f"L must be positive, got {self.L!r}")
        # 2L/n and pi/L overflow or underflow for an L too large or too small
        if not all(math.isfinite(h) and h > 0 for h in (self.dx, self.dxi)):
            raise UwqError(f"L={self.L!r} gives grid steps dx={self.dx!r}, dxi={self.dxi!r}; "
                           f"both must be finite and positive")
        if self.d not in (1, 2):
            raise UwqError("only dimensions 1 and 2 are supported")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def dxi(self) -> float:
        return math.pi / self.L

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    def points(self) -> np.ndarray:
        return -self.L + self.dx * np.arange(self.n)

    def meshes(self) -> tuple:
        """Open (broadcastable) coordinate arrays, one per axis."""
        return tuple(np.ix_(*([self.points()] * self.d)))

    def phase_meshes(self) -> tuple:
        """Open coordinate arrays of the phase space, x axes then the dual
        grid's xi axes, x-major."""
        d = self.d
        xs = tuple(m.reshape(m.shape + (1,) * d) for m in self.meshes())
        ks = tuple(m.reshape((1,) * d + m.shape) for m in self.dual().meshes())
        return xs + ks

    def dual(self) -> "AxisGrid":
        return AxisGrid(n=self.n, L=math.pi * self.n / (2.0 * self.L), d=self.d)


@dataclass(frozen=True)
class FunctionGrid:
    """Complex samples of a function on an AxisGrid, shaped (n,)*d."""

    axis: AxisGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.axis.shape:
            raise UwqError(f"values shape {v.shape} != grid shape {self.axis.shape}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, axis: AxisGrid, f) -> "FunctionGrid":
        """f at the grid points, broadcast to the grid's shape (plus 0.0, so
        -0.0 samples read 0.0)."""
        return cls(axis, np.add(f(*axis.meshes()), 0.0, out=np.empty(axis.shape, complex)))

    @classmethod
    def zero(cls, axis: AxisGrid) -> "FunctionGrid":
        return cls(axis, np.zeros(axis.shape, dtype=complex))


@dataclass(frozen=True)
class PhaseFunctionGrid:
    """Samples a(x, xi) on the product of an axis and its dual, x-major."""

    xaxis: AxisGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.xaxis.shape * 2:
            raise UwqError(
                f"values shape {v.shape} != phase shape {self.xaxis.shape * 2}"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, xaxis: AxisGrid, f) -> "PhaseFunctionGrid":
        """f at the phase points, as ``FunctionGrid.from_callable``."""
        vals = np.add(f(*xaxis.phase_meshes()), 0.0, out=np.empty(xaxis.shape * 2, complex))
        return cls(xaxis, vals)


def _shifted_fft(values: np.ndarray, axes) -> np.ndarray:
    return np.fft.fftshift(
        np.fft.fftn(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes
    )


def _shifted_ifft(values: np.ndarray, axes) -> np.ndarray:
    return np.fft.fftshift(
        np.fft.ifftn(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes
    )


def fourier(u: FunctionGrid) -> FunctionGrid:
    """dx^d * sum_j e^{-i x_j xi_k} u(x_j) on the dual grid, both in
    physical order; an exact shifted DFT."""
    axes = tuple(range(u.axis.d))
    vals = u.axis.dx**u.axis.d * _shifted_fft(u.values, axes)
    return FunctionGrid(u.axis.dual(), vals)


def inverse_fourier(F: FunctionGrid) -> FunctionGrid:
    """(2 pi)^{-d} dxi^d * sum_k e^{+i x xi_k} F(xi_k); exact inverse of
    ``fourier`` on the primal grid."""
    axes = tuple(range(F.axis.d))
    primal = F.axis.dual()
    vals = _shifted_ifft(F.values, axes) / primal.dx**primal.d
    return FunctionGrid(primal, vals)


def gaussian_window(axis: AxisGrid, y=0.0, eta=0.0) -> FunctionGrid:
    """pi^{-d/4} e^{i x.eta} e^{-|x - y|^2 / 2} sampled on the grid."""
    y = np.broadcast_to(np.asarray(y, dtype=float), (axis.d,))
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (axis.d,))
    if np.any(np.abs(y) > axis.L / 2.0):
        warnings.warn(
            "window center lies outside [-L/2, L/2]; mass leaves the box",
            stacklevel=2,
        )
    meshes = axis.meshes()
    expo = np.zeros(axis.shape, dtype=complex)
    for i, x in enumerate(meshes):
        expo = expo + 1j * x * eta[i] - 0.5 * (x - y[i]) ** 2
    return FunctionGrid(axis, math.pi ** (-axis.d / 4.0) * np.exp(expo))


def quadrature(u: FunctionGrid) -> complex:
    """Plain Riemann sum dx^d * sum u; spectrally accurate for smooth
    periodic-decaying integrands."""
    return complex(u.axis.dx**u.axis.d * u.values.sum())


def inner(u: FunctionGrid, v: FunctionGrid) -> complex:
    """<u, v> = dx^d * sum u conj(v)."""
    return complex(u.axis.dx**u.axis.d * np.vdot(v.values, u.values))


def l2_norm(u: FunctionGrid) -> float:
    return math.sqrt(max(0.0, inner(u, u).real))


def _phase_weight(g: PhaseFunctionGrid) -> float:
    return (g.xaxis.dx * g.xaxis.dxi) ** g.xaxis.d


def phase_inner(F: PhaseFunctionGrid, G: PhaseFunctionGrid) -> complex:
    return complex(_phase_weight(F) * np.vdot(G.values, F.values))


def phase_l2_norm(F: PhaseFunctionGrid) -> float:
    return math.sqrt(max(0.0, phase_inner(F, F).real))


_HEADER_KEYS = ("n", "L", "d", "kind")
# the array a grid file of each kind holds, by the header's axis
_CELLS = {
    None: lambda axis: (axis.size,),
    "phase": lambda axis: (axis.size**2,),
    "operator": lambda axis: (axis.size, axis.size),
}
# rows formatted at once: the block's temporaries peak near 1.2 MB
# (tracemalloc) whatever the file's size; on a 2-core VM blocks of 4096
# rows wrote the three 512^2 files of a cli-io pass 5% faster but peaked
# at 2.4 MB
_BLOCK_ROWS = 2048
# body bytes the reader parses at once: its temporaries peak near 4.4 MB,
# 17 times the block, whatever the file's size; on a 2-core VM a 512^2
# phase file read in 134, 121, 98, 92 and 99 ms with blocks of 2^16, ...,
# 2^20 bytes
_BODY_BYTES = 1 << 18


def save_grid(axis: AxisGrid, values: np.ndarray, path, kind=None) -> None:
    """The one grid-file writer (format in the module docstring): the header
    of ``axis`` and ``kind``, then one row per entry of ``values`` in C
    order.  ``values`` must have the shape ``kind`` gives the axis, so the
    readers accept every file written."""
    if kind not in _CELLS:
        raise UwqError(f"unknown grid kind {kind!r}; expected none, 'phase' or 'operator'")
    cells = _CELLS[kind](axis)
    values = np.asarray(values)
    if values.shape != cells:
        raise UwqError(f"a grid file of kind={kind or '(none)'} on this axis holds an "
                       f"array of shape {cells}, got {values.shape}")
    # imported here, on the first write: the module compiles and builds its
    # tables once per process, which nothing else that imports grid pays
    from . import gridtext

    tail = f" kind={kind}" if kind else ""
    flat = values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(f"# n={axis.n} L={axis.L:.17g} d={axis.d}{tail}\n".encode())
        for text in gridtext.rows_text(flat, cells, _BLOCK_ROWS):
            fh.write(text)


def _parse_header(line: str, kind) -> AxisGrid:
    if not line.startswith("#"):
        raise UwqError("grid CSV must start with a '# n=... L=... d=...' header")
    fields = {}
    for tok in line[1:].split():
        key, eq, val = tok.partition("=")
        if not eq or key not in _HEADER_KEYS or key in fields:
            raise UwqError(f"malformed header token {tok!r}")
        fields[key] = val
    if fields.get("kind") != kind:
        raise UwqError(f"expected a grid file with kind={kind or '(none)'}, "
                       f"got kind={fields.get('kind') or '(none)'}")
    try:
        n, L, d = int(fields["n"]), float(fields["L"]), int(fields["d"])
    except (KeyError, ValueError):
        raise UwqError("grid header needs an integer n, a number L and an integer d") from None
    if not math.isfinite(L):
        raise UwqError(f"grid header L must be finite, got {L}")
    return AxisGrid(n, L, d)


def _body_blocks(fh, carry: bytes, lead: bytes):
    """The rest of the open binary file ``fh`` after ``carry``, as blocks of
    whole lines read ``_BODY_BYTES`` at a time, each after ``lead`` and
    ending in a newline."""
    parts = [lead, carry]
    while chunk := fh.read(_BODY_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            parts.append(memoryview(chunk)[:cut])
            yield b"".join(parts)
            parts = [lead, chunk[cut:]]
        else:
            parts.append(chunk)
    if any(parts[1:]):
        yield b"".join(parts + [b"\n"])


def _loadtxt_rows(lines) -> np.ndarray:
    """``lines`` as ``np.loadtxt`` reads them from a text-mode file: the
    reader's fallback for rows its parser does not certify."""
    with warnings.catch_warnings():
        # a block of blank lines holds no rows; an empty body is reported
        # as a wrong row count
        warnings.simplefilter("ignore", UserWarning)
        text = io.TextIOWrapper(io.BytesIO(lines), encoding="utf-8")
        return np.loadtxt(text, delimiter=",", comments=None, ndmin=2)


def _read_rows(fh, carry: bytes, size: int, width: int):
    """The rows of the body as an array of ``size`` rows of ``width``
    columns, which is filled only if the body has that shape; and the
    body's row and column counts."""
    # imported here, on the first read as on the first write
    from . import gridtext

    # a row takes at least 2 bytes a column, so the file's size bounds the
    # rows, whatever the header claims (a pipe reports 0 and grows below)
    most = os.fstat(fh.fileno()).st_size // (2 * width)
    # A block's parse makes temporaries of about 17 times the block in the
    # malloc heap.  glibc gives the top of its heap back to the system once
    # more than its trim threshold lies free there, 128 KiB in a fresh
    # process, so each block faulted its pages in anew: 45,500 minor faults
    # in a first 512^2 read, 2,000 in a second.  Freeing a mapped chunk
    # raises the mmap threshold to its size and the trim threshold to twice
    # that (mallopt(3)): this array of 16 blocks, never touched, lifts the
    # trim threshold above the parse's temporaries before the first block.
    heap = np.empty(16 * _BODY_BYTES, np.uint8)
    del heap
    data = np.empty((min(size, max(most, 1)), width))
    rows, cols = 0, None
    for text in _body_blocks(fh, carry, gridtext.LEAD):
        try:
            part = gridtext.rows_values(text, _loadtxt_rows)
        except ValueError as exc:
            raise UwqError(f"malformed grid row: {exc}") from None
        if not len(part):
            continue
        if cols is None:
            cols = part.shape[1]
        elif part.shape[1] != cols:
            raise UwqError(f"malformed grid row: rows of {cols} and of {part.shape[1]} columns")
        end = rows + len(part)
        if cols == width and end <= size:
            if end > len(data):
                # grown by doubling, so the copies stay below one array
                grown = np.empty((min(size, max(end, 2 * len(data))), width))
                grown[:rows] = data[:rows]
                data = grown
            data[rows:end] = part
        rows = end
    return data, rows, cols


def _load_grid(path, kind):
    """The one grid-file reader.  Checks the header against ``kind`` and the
    rows against the array of shape ``_CELLS[kind](axis)``, which they must
    fill exactly once; returns the axis and that array."""
    with open(path, "rb") as fh:
        line = fh.readline()
        # a text-mode read ends the header at a lone '\r' too
        line, cr, carry = line.partition(b"\r")
        carry = carry.removeprefix(b"\n")
        try:
            header = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UwqError(f"{path}: {exc}") from None
        axis = _parse_header(header, kind)
        cells = _CELLS[kind](axis)
        size = math.prod(cells)
        data, rows, cols = _read_rows(fh, carry, size, len(cells) + 2)
    if rows != size:
        raise UwqError(f"grid file has {rows} rows, its header needs {size}")
    if cols != len(cells) + 2:
        raise UwqError(f"grid rows need {len(cells) + 2} columns, got {cols}")
    # one index column at a time: an operator file's (N, 2) view takes
    # twice as long
    index = [data[:, j] for j in range(len(cells))]
    if not all(np.all(c == np.floor(c)) for c in index):
        raise UwqError("grid index is not an integer")
    if not all(np.all((c >= 0) & (c < m)) for c, m in zip(index, cells)):
        raise UwqError(f"grid index outside the {cells} array")
    pos = np.ravel_multi_index([c.astype(np.intp) for c in index], cells)
    seen = np.zeros(size, dtype=bool)
    seen[pos] = True
    if not seen.all():
        raise UwqError("grid rows do not cover every cell exactly once")
    del seen  # off the peak, which the values below set beside the rows
    values = np.empty(size, dtype=complex)
    values.real[pos] = data[:, -2]
    values.imag[pos] = data[:, -1]
    return axis, values.reshape(cells)


def save_function(u: FunctionGrid, path) -> None:
    """Write ``u`` as a grid file without a kind."""
    save_grid(u.axis, u.values.reshape(-1), path)


def load_function(path) -> FunctionGrid:
    """Read a grid file written by ``save_function``."""
    axis, values = _load_grid(path, None)
    return FunctionGrid(axis, values.reshape(axis.shape))


def save_phase(a: PhaseFunctionGrid, path) -> None:
    """Write ``a`` as a grid file of kind ``phase``."""
    save_grid(a.xaxis, a.values.reshape(-1), path, "phase")


def load_phase(path) -> PhaseFunctionGrid:
    """Read a grid file written by ``save_phase``."""
    axis, values = _load_grid(path, "phase")
    return PhaseFunctionGrid(axis, values.reshape(axis.shape * 2))
