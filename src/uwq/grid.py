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
reads back as NaN).  The reader
rejects with ``UwqError`` a missing or malformed header, an unexpected
``kind``, malformed rows, a wrong column count, and an index set that is
fractional, out of range, or does not cover every cell exactly once; rows
may come in any order.
"""

from __future__ import annotations

import itertools
import math
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
        return cls(axis, np.asarray(f(*axis.meshes()), dtype=complex) + np.zeros(axis.shape))

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
        xm = xaxis.meshes()
        km = xaxis.dual().meshes()
        d = xaxis.d
        xs = tuple(m.reshape(m.shape + (1,) * d) for m in xm)
        ks = tuple(m.reshape((1,) * d + m.shape) for m in km)
        vals = np.asarray(f(*xs, *ks), dtype=complex) + np.zeros(xaxis.shape * 2)
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
_BLOCK_ROWS = 1024


def save_grid(axis: AxisGrid, values: np.ndarray, path, kind=None) -> None:
    """The one grid-file writer (format in the module docstring): the header
    of ``axis`` and ``kind``, then one row per entry of ``values`` in C
    order, with one index column per array axis."""
    shape = values.shape
    flat = values.reshape(-1)
    row = ",".join(["%d"] * len(shape) + ["%.17g", "%.17g"]) + "\n"
    tail = f" kind={kind}" if kind else ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={axis.n} L={axis.L:.17g} d={axis.d}{tail}\n")
        # fixed blocks bound the memory: one string for a whole n=512
        # operator added ~75 MB of peak RSS, 4096-row blocks ~0.8 MB and
        # 1024-row blocks ~0.15 MB, at the same speed; per-block index
        # arithmetic never builds an N^2-long index array
        for start in range(0, flat.size, _BLOCK_ROWS):
            block = flat[start:start + _BLOCK_ROWS]
            index = np.unravel_index(np.arange(start, start + block.size), shape)
            cols = [i.tolist() for i in index] + [block.real.tolist(), block.imag.tolist()]
            fh.write((row * block.size) % tuple(itertools.chain.from_iterable(zip(*cols))))


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


def _load_grid(path, kind, shape):
    """The one grid-file reader.  Checks the header against ``kind`` and the
    rows against ``shape(axis)``, the array they must fill exactly once;
    returns the axis and that array."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline()
        except UnicodeDecodeError as exc:
            raise UwqError(f"{path}: {exc}") from None
        axis = _parse_header(header, kind)
        try:
            with warnings.catch_warnings():
                # an empty body is reported below as a wrong row count
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise UwqError(f"malformed grid row: {exc}") from None
    cells = shape(axis)
    size = math.prod(cells)
    if data.shape[0] != size:
        raise UwqError(f"grid file has {data.shape[0]} rows, its header needs {size}")
    if data.shape[1] != len(cells) + 2:
        raise UwqError(f"grid rows need {len(cells) + 2} columns, got {data.shape[1]}")
    index = data[:, :-2]
    if not np.all(index == np.floor(index)):
        raise UwqError("grid index is not an integer")
    if not np.all((index >= 0) & (index < cells)):
        raise UwqError(f"grid index outside the {cells} array")
    pos = np.ravel_multi_index(index.T.astype(np.intp), cells)
    seen = np.zeros(size, dtype=bool)
    seen[pos] = True
    if not seen.all():
        raise UwqError("grid rows do not cover every cell exactly once")
    values = np.empty(size, dtype=complex)
    values.real[pos] = data[:, -2]
    values.imag[pos] = data[:, -1]
    return axis, values.reshape(cells)


def save_function(u: FunctionGrid, path) -> None:
    """Write ``u`` as a grid file without a kind."""
    save_grid(u.axis, u.values.reshape(-1), path)


def load_function(path) -> FunctionGrid:
    """Read a grid file written by ``save_function``."""
    axis, values = _load_grid(path, None, lambda ax: (ax.size,))
    return FunctionGrid(axis, values.reshape(axis.shape))


def save_phase(a: PhaseFunctionGrid, path) -> None:
    """Write ``a`` as a grid file of kind ``phase``."""
    save_grid(a.xaxis, a.values.reshape(-1), path, "phase")


def load_phase(path) -> PhaseFunctionGrid:
    """Read a grid file written by ``save_phase``."""
    axis, values = _load_grid(path, "phase", lambda ax: (ax.size**2,))
    return PhaseFunctionGrid(axis, values.reshape(axis.shape * 2))
