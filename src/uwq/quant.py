"""Quantization maps on the discretized phase space: tau-quantization
kernels and matrices, symbol <-> kernel conversion, Weyl and Kohn-Nirenberg
special cases, Anti-Wick operators by STFT sandwich, and the
Gaussian-smoothed-Weyl identity check.

Two evaluation paths feed the kernel builder, with two midpoint
conventions.  Polynomial symbols are evaluated exactly at the unwrapped
midpoints (1-tau) x + tau y, so no interpolation error contaminates
identity checks; this is the operator algebra of unwrapped X and D that
``apply_symbol``, the exact calculus and ``transpose`` rely on.  Sampled
symbols are trigonometrically interpolated in the x slot, exact for
band-limited data, at the torus midpoint x - tau r of the nearest periodic
image r of x - y, the convention ``symbol_from_kernel`` inverts.  The two
midpoints coincide wherever |t - s| < n/2 on every axis; at the corner
entries |t - s| > n/2 they lie tau 2L apart, which shows for symbols that
do not decay at the box edge, such as growing polynomials.
Operator matrices are dense N x N arrays over the N = n^d grid points.
Kernel assembly works per difference class t - s: O(N^2) per distinct
x-exponent of a polynomial symbol, and O(N^2 log n) time and O(N^2)
memory for a sampled one; the Anti-Wick matrix is assembled by FFT
convolutions with the circulant window in O(N^2 log N).
``symbol_from_kernel`` inverts the kernel map by an O(N^2) gather, a
stencil of at most 16 N^2 multiply-adds per axis and the O(N^2 log n)
class-axis FFT.
``apply_symbol`` is the matrix-free path: it applies the same
tau-quantization of a polynomial symbol to a stack of k functions with
FFTs over their trailing axes, in O(kN log N) per (xi-power,
midpoint-power) pair and O(kN) memory.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OverflowDomainError, UwqError
from .expansion import PolySymbol, _finite_tau
from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    _shifted_ifft,
)
from .stft import stft, stft_adjoint, window_translates

__all__ = [
    "KernelMatrix",
    "OperatorMatrix",
    "sample_symbol",
    "kernel_from_symbol",
    "symbol_from_kernel",
    "operator_matrix",
    "apply_operator",
    "apply_symbol",
    "weyl",
    "kohn_nirenberg",
    "anti_wick_direct",
    "anti_wick_matrix",
    "gauss_smooth",
    "verify_smoothing_identity",
    "hermite_function",
]


def _tau_fraction(tv: float, n: int) -> tuple:
    """tau as p/q with a small denominator; required by the interpolating
    paths so midpoints land on a refined lattice.  They read tau only
    through x - tau r mod n for integer r, so p is reduced mod q n, into
    [-q n/2, q n/2): tau and tau + n give one map, and tau in [-n/2, n/2)
    keeps its own p."""
    frac = Fraction(tv).limit_denominator(64)
    if abs(float(frac) - tv) > 1e-12:
        raise UwqError("tau must be rational with denominator <= 64 on grid paths")
    p, q = frac.numerator, frac.denominator
    return (p + q * n // 2) % (q * n) - q * n // 2, q


@dataclass(frozen=True)
class KernelMatrix:
    """K(x_row, y_col) sampled on the grid, without the dy^d quadrature
    weight; ``operator_matrix`` folds it in."""

    axis: AxisGrid
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        N = self.axis.size
        if e.shape != (N, N):
            raise UwqError(f"kernel must be {N}x{N}")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix mapping sampled u to sampled (Op u); weights folded."""

    axis: AxisGrid
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        N = self.axis.size
        if e.shape != (N, N):
            raise UwqError(f"operator must be {N}x{N}")
        object.__setattr__(self, "entries", e)


def sample_symbol(a: PolySymbol, axis: AxisGrid) -> PhaseFunctionGrid:
    """Exact samples of a polynomial symbol on the phase grid."""
    if a.d != axis.d:
        raise UwqError("symbol dimension does not match the grid")
    d = axis.d
    return PhaseFunctionGrid.from_callable(
        axis, lambda *c: a.evaluate(c[:d], c[d:])
    )


def _axis_indices(axis: AxisGrid) -> np.ndarray:
    """(d, N) per-axis integer index of every flattened grid point."""
    return np.indices(axis.shape).reshape(axis.d, axis.size)


def _diff_indices(axis: AxisGrid) -> np.ndarray:
    """(N, N) flat index into an (n,)*d table of the difference class
    x_t - x_s, wrapped per axis onto the base grid."""
    J = _axis_indices(axis)
    n = axis.n
    R = np.zeros((axis.size, axis.size), dtype=np.intp)
    for i in range(axis.d):
        R *= n
        R += (J[i][:, None] - J[i][None, :] + n // 2) % n
    return R


def _xi_power(axis: AxisGrid, k: int) -> np.ndarray:
    """xi^k on the 1-d dual grid, in physical order.

    The unpaired most-negative frequency bin carries the even part of xi^k
    (zero for odd k), the canonical band-limited representative; this is
    what makes odd-order spectral derivative matrices anti-symmetric and
    the discrete transpose identity exact.  The dense kernel and
    ``apply_symbol`` both sample xi^k here, so they are one operator.
    """
    xi = AxisGrid(axis.n, axis.L, 1).dual().points()
    samples = xi.astype(complex) ** k
    samples[0] = 0.5 * ((-xi[0]) ** k + xi[0] ** k)
    return samples


@functools.lru_cache(maxsize=128)
def _xi_multiplier(axis: AxisGrid, k: int, i: int) -> np.ndarray:
    """``_xi_power`` in DFT order, shaped to broadcast along grid axis i."""
    shape = [1] * axis.d
    shape[i] = axis.n
    m = np.fft.ifftshift(_xi_power(axis, k)).reshape(shape)
    m.setflags(write=False)
    return m


def _dirichlet_1d(axis: AxisGrid, k: int) -> np.ndarray:
    """(2 pi)^{-1} dxi sum_xi xi^k e^{i r xi} on the 1-d base grid."""
    return _shifted_ifft(_xi_power(axis, k), (0,)) / axis.dx


def _symbol_axis(a, axis: AxisGrid = None) -> AxisGrid:
    """The grid a symbol is quantized on: the explicit ``axis`` a PolySymbol
    needs, or a sampled symbol's own grid, which a different ``axis`` may
    not override."""
    if isinstance(a, PolySymbol):
        if axis is None:
            raise UwqError("polynomial path needs an explicit axis")
        if a.d != axis.d:
            raise UwqError("symbol dimension does not match the grid")
        return axis
    if not isinstance(a, PhaseFunctionGrid):
        raise UwqError(f"expected a PolySymbol or PhaseFunctionGrid, got {type(a).__name__}")
    if axis is not None and axis != a.xaxis:
        raise UwqError("axis argument conflicts with the symbol's grid")
    return a.xaxis


def kernel_from_symbol(a, tau: float, axis: AxisGrid = None) -> KernelMatrix:
    """K(x, y) = (2 pi)^{-d} dxi^d sum_xi e^{i (x-y) xi} a((1-tau) x + tau y, xi).

    Polynomial symbols are evaluated exactly at the midpoints.  Sampled
    symbols are trigonometrically interpolated there: each difference-class
    column of the inverse xi transform is shifted spectrally by the
    fraction of a grid step its midpoints lie off the grid (tau must then
    be rational with denominator <= 64, so that fraction is a multiple of
    1/q for tau = p/q).
    """
    tv = _finite_tau(tau)
    axis = _symbol_axis(a, axis)
    if isinstance(a, PolySymbol):
        return _kernel_from_poly(a, tv, axis)
    return _kernel_from_grid(a, tv)


def _kernel_from_poly(a: PolySymbol, tv: float, axis: AxisGrid) -> KernelMatrix:
    # one xi-table per x-exponent: sum of c * prod_i D_{alpha_i} over the
    # difference classes, gathered once and weighted by the midpoint power
    dirichlet = functools.cache(lambda al: _dirichlet_1d(axis, al))
    tables = {}
    for (xe, ke), c in a.terms.items():
        T = c * functools.reduce(np.multiply.outer, map(dirichlet, ke))
        tables[xe] = tables[xe] + T if xe in tables else T
    pts = axis.points()
    rows = pts[_axis_indices(axis)]
    diffs = _diff_indices(axis)
    mids = {}
    K = np.zeros((axis.size, axis.size), dtype=complex)
    for xe, T in tables.items():
        G = T.ravel()[diffs]
        for i, b in enumerate(xe):
            if b:
                if i not in mids:
                    mids[i] = (1.0 - tv) * rows[i][:, None] + tv * rows[i][None, :]
                G *= mids[i] if b == 1 else mids[i] ** b
        K += G
    return KernelMatrix(axis, K)


def _kernel_from_grid(a: PhaseFunctionGrid, tv: float) -> KernelMatrix:
    """K[t, s] = B(x_t - tau r dx, r) per axis, with B the inverse xi
    transform of the symbol and r = ((t - s + n/2) mod n) - n/2 the nearest
    periodic image of t - s, the class ``symbol_from_kernel`` reads.

    For tau = p/q the midpoint is the point w = q t - p r of the q-times
    finer lattice, and its residue c = -p r mod q depends only on the class,
    so each column of B is shifted spectrally by c/q steps in place, with
    length-n FFTs along x.  The whole steps w // q are left to the final
    gather; q = 1 gathers B as it is.
    """
    axis = a.xaxis
    d, n = axis.d, axis.n
    p, q = _tau_fraction(tv, n)
    B = _shifted_ifft(a.values, tuple(range(d, 2 * d)))
    B /= axis.dx**d
    # per class index r + n/2: the whole steps and the residue of -p r / q
    whole, res = np.divmod(-p * (np.arange(n) - n // 2), q)
    if q > 1:
        # interpolating shift by c/q steps in DFT order; the unpaired
        # most-negative bin, split evenly between -n/2 and n/2, takes cos(pi c/q)
        k = np.fft.fftfreq(n, 1.0 / n)
        spectra = np.exp(2j * math.pi / (q * n) * np.outer(k, np.arange(q)))
        spectra[n // 2] = np.cos(math.pi / q * np.arange(q))
        for i in reversed(range(d)):
            shape = [1] * (2 * d)
            shape[i] = shape[d + i] = n
            np.fft.fft(B, axis=i, out=B)
            B *= spectra[:, res].reshape(shape)
            np.fft.ifft(B, axis=i, out=B)
    step = np.array(B.strides) // B.itemsize
    j = np.arange(n)
    parts = []
    for i in range(d):
        C = np.subtract.outer(j + n // 2, j)
        C &= n - 1  # the class index of t - s (n a power of two)
        P = whole[C]
        P += j[:, None]
        P &= n - 1  # the coarse row w // q, mod n
        P *= step[i]
        C *= step[d + i]
        P += C
        del C  # freed before the gather, whose peak is B, idx and K
        shape = [1] * (2 * d)
        shape[i] = shape[d + i] = n
        parts.append(P.reshape(shape))
    idx = functools.reduce(np.add, parts).reshape(axis.size, axis.size)
    return KernelMatrix(axis, np.take(B, idx))


_STENCIL = np.arange(-7, 9)  # 16-point centered Lagrange stencil
_STENCIL_BLOCK = 1 << 14  # entries per stencil pass, so a block stays in cache


def _lagrange_weights(fracs: np.ndarray) -> np.ndarray:
    """(16, F) barycentric Lagrange weights for evaluating at each of the F
    ``fracs`` in [0, 1) from equispaced nodes -7..8; exact on polynomials
    of degree <= 15.  Row i is the product over j != i, in node order, of
    (frac - x_j) / (x_i - x_j)."""
    nodes = _STENCIL.astype(float)
    w = np.ones((nodes.size, fracs.size))
    for j, xj in enumerate(nodes):
        f = (fracs - xj) / np.where(nodes == xj, 1.0, nodes - xj)[:, None]
        f[j] = 1.0
        w *= f
    return w


def symbol_from_kernel(K: KernelMatrix, tau: float) -> PhaseFunctionGrid:
    """a(x, xi) = F_{t -> xi} K(x + tau t, x - (1-tau) t), the inverse of
    ``kernel_from_symbol``.

    Entries with a common difference r = t - s sample the midpoint slot on
    a lattice offset by tau r grid steps.  One flat gather reads each
    difference class slid back by its whole steps; a 16-point Lagrange
    stencil (nodes -7..8: 16 multiply-adds of row slices, weights computed
    once per distinct fraction) shifts the classes left a fraction of a
    step off the grid; then the class axes are transformed.  Accuracy needs
    only a symbol smooth on the grid scale (exact for polynomial midpoint
    dependence up to degree 15).
    """
    if not isinstance(K, KernelMatrix):
        raise UwqError(f"expected a KernelMatrix, got {type(K).__name__}")
    axis = K.axis
    d, n, N = axis.d, axis.n, axis.size
    p, q = _tau_fraction(_finite_tau(tau), n)
    # per class in DFT order: its difference r and the offset p r / q of its
    # midpoints, in whole steps and a fraction
    r = (np.arange(n) + n // 2) % n - n // 2
    delta = p * r / q
    whole = np.floor(delta)
    frac = delta - whole
    # per axis B[j, c] = K[j + whole_c, j + whole_c - r_c], both mod n (a
    # power of two); the axes combine into one flat index
    row = (np.arange(n)[:, None] + whole.astype(np.intp)) & (n - 1)
    row = row * N + ((row - r) & (n - 1))
    parts = [row.reshape((1,) * i + (n,) + (1,) * (d - 1) + (n,) + (1,) * (d - 1 - i))
             for i in range(d)]
    B = np.take(K.entries, functools.reduce(lambda idx, P: idx * n + P, parts))
    del row, parts
    cols = np.flatnonzero(frac)
    if cols.size:
        fracs, which = np.unique(frac[cols], return_inverse=True)
        W = _lagrange_weights(fracs)[:, which]
        ext = (np.arange(n + _STENCIL.size - 1) + _STENCIL[0]) % n
        for i in range(d):
            # the fractional classes, slide axis i first, extended
            # periodically by 7 rows before and 8 after
            E = np.take(np.moveaxis(np.take(B, cols, axis=d + i), i, 0), ext, axis=0)
            w = W.reshape((_STENCIL.size, -1) + (1,) * (d - 1 - i))
            out = np.zeros((n,) + E.shape[1:], dtype=complex)
            b = min(n, max(1, _STENCIL_BLOCK * n // out.size))
            for j in range(0, n, b):
                for t in range(_STENCIL.size):
                    out[j : j + b] += w[t] * E[j + t : j + t + min(b, n - j)]
            del E
            B[(slice(None),) * (d + i) + (cols,)] = np.moveaxis(out, 0, i)
            del out
    # a(x, xi) = dr^d sum_r e^{-i r xi} B(x, r), the last class axis first
    # as in np.fft.fftn
    for i in reversed(range(d, 2 * d)):
        np.fft.fft(B, axis=i, out=B)
    spec = np.fft.fftshift(B, axes=tuple(range(d, 2 * d)))
    spec *= axis.dx**d
    return PhaseFunctionGrid(axis, spec)


def operator_matrix(K: KernelMatrix) -> OperatorMatrix:
    """Fold the dy^d quadrature weight into the columns."""
    if not isinstance(K, KernelMatrix):
        raise UwqError(f"expected a KernelMatrix, got {type(K).__name__}")
    return OperatorMatrix(K.axis, K.entries * K.axis.dx**K.axis.d)


def apply_operator(M: OperatorMatrix, u: FunctionGrid) -> FunctionGrid:
    if not isinstance(M, OperatorMatrix):
        raise UwqError(f"expected an OperatorMatrix, got {type(M).__name__}; "
                       f"operator_matrix folds in the dy^d weight")
    if u.axis != M.axis:
        raise UwqError("grid mismatch")
    return FunctionGrid(M.axis, (M.entries @ u.values.ravel()).reshape(M.axis.shape))


def apply_symbol(a: PolySymbol, tau: float, axis: AxisGrid, values) -> np.ndarray:
    """Op_tau(a) applied to each function of a stack, without an N x N matrix.

    ``values`` holds grid samples on its trailing d axes, shaped
    ``(..., *axis.shape)`` (usually ``(k, *axis.shape)``: k functions); the
    result has the same shape, each function mapped on its own, bitwise as
    a call on that function alone.  Expanding the midpoint power
    ((1-tau) x + tau y)^beta gives
        Op_tau(x^beta xi^alpha) u = sum_{k <= beta} c_k x^{beta-k} D^alpha(x^k u),
        c_k = prod_i C(beta_i, k_i) (1-tau)^{beta_i-k_i} tau^{k_i},
    where D^alpha multiplies the DFT by the ``_xi_power`` samples of
    xi^alpha: the operator of ``kernel_from_symbol`` to rounding.  Each
    distinct x^k U is transformed once for the whole stack and each
    (alpha, k) pair transformed back once, so a call makes
    #distinct k + #(alpha, k) FFTs of the stack whatever its length:
    O(#(alpha, k) kN log N) time and O(kN) memory per pair.
    """
    tv = _finite_tau(tau)
    if not isinstance(a, PolySymbol):
        raise UwqError(f"expected a PolySymbol, got {type(a).__name__}")
    if a.d != axis.d:
        raise UwqError("symbol dimension does not match the grid")
    U = np.asarray(values)
    if U.shape[U.ndim - axis.d:] != axis.shape:
        raise UwqError(f"stack must end in the grid shape {axis.shape}, got {U.shape}")
    fft_axes = tuple(range(-axis.d, 0))
    meshes = axis.meshes()

    def xpow(e):
        # x^e on the grid, the scalar 1.0 for e = 0
        return math.prod((m**p for m, p in zip(meshes, e) if p), start=1.0)

    # post[(alpha, k)]: sum over terms of c c_k x^{beta-k}, applied after D^alpha
    post = {}
    for (xe, ke), c in a.terms.items():
        for k in itertools.product(*(range(b + 1) for b in xe)):
            ck = c * math.prod(math.comb(b, j) * (1.0 - tv) ** (b - j) * tv**j
                               for b, j in zip(xe, k))
            if ck != 0:
                m = tuple(b - j for b, j in zip(xe, k))
                post[ke, k] = post.get((ke, k), 0.0) + ck * xpow(m)
    spectra = {}
    out = np.zeros(U.shape, dtype=complex)
    for (ke, k), p in post.items():
        if not any(ke):
            out += p * xpow(k) * U
            continue
        if k not in spectra:
            spectra[k] = np.fft.fftn(xpow(k) * U, axes=fft_axes)
        w = spectra[k]
        for i, al in enumerate(ke):
            if al:
                w = w * _xi_multiplier(axis, al, i)
        out += p * np.fft.ifftn(w, axes=fft_axes)
    return out


def weyl(a, axis: AxisGrid = None) -> OperatorMatrix:
    return operator_matrix(kernel_from_symbol(a, 0.5, axis))


def kohn_nirenberg(a, axis: AxisGrid = None) -> OperatorMatrix:
    return operator_matrix(kernel_from_symbol(a, 0.0, axis))


def anti_wick_direct(a: PhaseFunctionGrid, u: FunctionGrid) -> FunctionGrid:
    """(2 pi)^{-d} V*(a V u), the STFT sandwich."""
    if u.axis != a.xaxis:
        raise UwqError("grid mismatch")
    V = stft(u)
    prod = a.values * V.values
    if not np.all(np.isfinite(prod)):
        raise OverflowDomainError("overflow in a * Vu; tame the symbol growth")
    out = stft_adjoint(PhaseFunctionGrid(a.xaxis, prod))
    return FunctionGrid(u.axis, out.values / (2.0 * math.pi) ** u.axis.d)


def anti_wick_matrix(a, axis: AxisGrid = None) -> OperatorMatrix:
    """Dense matrix of the Anti-Wick operator, assembled by circular
    convolutions in the window centre.

    The STFT sandwich reorganizes exactly into the window-pair form
        M[t, s] = ds^d dy^d sum_y G0(t-y) G0(s-y) C(y, t-s),
        C(y, r) = (2 pi)^{-d} dxi^d sum_xi a(y, xi) e^{i r xi}.
    The periodized window is circulant, so for each difference class
    k = t - s (mod n per axis)
        M[t, t-k] = dx^{2d} sum_y h_k(t-y) C(y, k),  h_k(z) = G0(z) G0(z-k),
    a circular convolution in y.  One batched FFT over the y axes handles
    every class at once: O(N^2 log N) for N = n^d grid points.  Agrees with
    ``anti_wick_direct`` to rounding.
    """
    axis = _symbol_axis(a, axis)
    if isinstance(a, PolySymbol):
        a = sample_symbol(a, axis)
    d, n = axis.d, axis.n
    y_axes = tuple(range(d))
    k_axes = tuple(range(d, 2 * d))
    # G0 at circular offset z (row n/2 of the per-axis window table); the
    # window is a tensor product over axes
    g = window_translates(axis)[n // 2]
    z = np.arange(n)
    # per axis h[z, k] = dx G0(z) G0(z-k): the dx^{2d} quadrature weight
    # times the 1/dx^d of C leaves one dx per axis
    hf = np.fft.fft(axis.dx * g[:, None] * g[(z[:, None] - z[None, :]) % n], axis=0)
    # C(y, k) with the difference axes in offset order k = 0, 1, ..., n-1
    C = np.fft.ifftn(np.fft.ifftshift(a.values, axes=k_axes), axes=k_axes)
    C = np.fft.fftn(C, axes=y_axes)
    for i in range(d):
        shape = [1] * (2 * d)
        shape[i] = shape[d + i] = n
        C *= hf.reshape(shape)
    R = np.fft.ifftn(C, axes=y_axes)  # R[t, k] = M[t, t-k]
    # gather M[t, s] = R[t, (t-s) mod n] with open index vectors per axis
    open_idx = np.ix_(*([z] * (2 * d)))
    t, s = open_idx[:d], open_idx[d:]
    M = R[t + tuple((ti - si) % n for ti, si in zip(t, s))]
    return OperatorMatrix(axis, M.reshape(axis.size, axis.size))


def gauss_smooth(a: PhaseFunctionGrid) -> PhaseFunctionGrid:
    """Convolution with pi^{-d} e^{-|x|^2 - |xi|^2} over all 2d phase
    variables, computed as an FFT (circular) convolution on the phase grid.

    The convolution is periodic: symbols are treated as their periodized
    samples, so values within a unit-Gaussian reach of the box edge wrap.
    """
    axis = a.xaxis
    d = axis.d
    xs = axis.points()
    ks = axis.dual().points()
    g1x = np.exp(-xs**2) / math.pi**0.5
    g1k = np.exp(-ks**2) / math.pi**0.5
    kern = np.ones((), dtype=float)
    for _ in range(d):
        kern = np.multiply.outer(kern, g1x)
    for _ in range(d):
        kern = np.multiply.outer(kern, g1k)
    axes = tuple(range(2 * d))
    kern0 = np.fft.ifftshift(kern, axes=axes)
    conv = np.fft.ifftn(np.fft.fftn(a.values, axes=axes) * np.fft.fftn(kern0, axes=axes), axes=axes)
    conv *= (axis.dx * axis.dxi) ** d
    return PhaseFunctionGrid(axis, conv)


def verify_smoothing_identity(a, axis: AxisGrid = None) -> float:
    """Largest entrywise discrepancy, over the whole matrix, between the
    Anti-Wick matrix of a and the Weyl matrix of its Gaussian-smoothed
    symbol - the headline identity.

    Both routes discretize the same torus objects through independent code
    paths (STFT sandwich vs FFT convolution plus kernel quadrature).
    """
    axis = _symbol_axis(a, axis)
    if isinstance(a, PolySymbol):
        a = sample_symbol(a, axis)
    A = anti_wick_matrix(a)
    B = weyl(gauss_smooth(a))
    return float(np.max(np.abs(A.entries - B.entries)))


def hermite_function(k: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite function h_k via the stable two-term recurrence;
    eigenfunction of the x^2 + xi^2 Weyl operator with eigenvalue 2k + 1."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise UwqError(f"Hermite index must be a non-negative integer, got {k!r}")
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = math.pi ** (-0.25) * np.exp(-0.5 * x**2)
    for j in range(k):
        h_next = math.sqrt(2.0 / (j + 1)) * x * h - math.sqrt(j / (j + 1.0)) * h_prev
        h_prev, h = h, h_next
    return h
