"""Quantization maps on the discretized phase space: tau-quantization
kernels and matrices, symbol <-> kernel conversion, Weyl and Kohn-Nirenberg
special cases, Anti-Wick operators by STFT sandwich, and the
Gaussian-smoothed-Weyl identity check.

Two evaluation paths feed the kernel builder.  Polynomial symbols are
evaluated exactly at the off-grid midpoints (1-tau) x + tau y, so no
interpolation error contaminates identity checks; sampled symbols are
trigonometrically interpolated in the x slot, exact for band-limited data.
Operator matrices are dense N x N arrays over the N = n^d grid points.
Kernel assembly costs O(N^2) per polynomial term; the Anti-Wick matrix is
assembled by FFT convolutions with the circulant window in O(N^2 log N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OverflowDomainError, UwqError
from .expansion import PolySymbol, _finite_tau
from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    _shifted_fft,
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
    "weyl",
    "kohn_nirenberg",
    "anti_wick_direct",
    "anti_wick_matrix",
    "gauss_smooth",
    "verify_smoothing_identity",
    "hermite_function",
]


def _tau_fraction(tv: float) -> tuple:
    """tau as p/q with a small denominator; required by the interpolating
    paths so midpoints land on a refined lattice."""
    frac = Fraction(tv).limit_denominator(64)
    if abs(float(frac) - tv) > 1e-12:
        raise UwqError("tau must be rational with denominator <= 64 on grid paths")
    return frac.numerator, frac.denominator


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


def _diff_indices(axis: AxisGrid) -> list:
    """Per axis: (N, N) index of (x_t - x_s) wrapped onto the base grid."""
    J = _axis_indices(axis)
    n = axis.n
    return [(J[i][:, None] - J[i][None, :] + n // 2) % n for i in range(axis.d)]


def _dirichlet_1d(axis: AxisGrid, k: int) -> np.ndarray:
    """(2 pi)^{-1} dxi sum_xi xi^k e^{i r xi} on the 1-d base grid.

    The unpaired most-negative frequency bin carries the even part of xi^k
    (zero for odd k), the canonical band-limited representative; this is
    what makes odd-order spectral derivative matrices anti-symmetric and
    the discrete transpose identity exact.
    """
    ax1 = AxisGrid(axis.n, axis.L, 1)
    xi = ax1.dual().points()
    samples = xi.astype(complex) ** k
    samples[0] = 0.5 * ((-xi[0]) ** k + xi[0] ** k)
    return _shifted_ifft(samples, (0,)) / ax1.dx


def _upsample_axis(values: np.ndarray, q: int, ax: int) -> np.ndarray:
    """Trigonometric interpolation onto a q-times finer lattice along one
    axis (zero-padded spectrum, unpaired most-negative bin split evenly)."""
    if q == 1:
        return values
    v = np.moveaxis(values, ax, 0)
    n = v.shape[0]
    S = _shifted_fft(v, (0,))
    out = np.zeros((q * n,) + v.shape[1:], dtype=complex)
    lo = q * n // 2 - n // 2
    out[lo : lo + n] = S
    out[lo] = 0.5 * S[0]
    out[lo + n] = 0.5 * S[0]
    res = q * _shifted_ifft(out, (0,))
    return np.moveaxis(res, 0, ax)


def _symbol_axis(a, axis: AxisGrid = None) -> AxisGrid:
    """The grid a symbol is quantized on: the explicit ``axis`` a PolySymbol
    needs, or a sampled symbol's own grid, which a different ``axis`` may
    not override."""
    if isinstance(a, PolySymbol):
        if axis is None:
            raise UwqError("polynomial path needs an explicit axis")
        return axis
    if axis is not None and axis != a.xaxis:
        raise UwqError("axis argument conflicts with the symbol's grid")
    return a.xaxis


def kernel_from_symbol(a, tau: float, axis: AxisGrid = None) -> KernelMatrix:
    """K(x, y) = (2 pi)^{-d} dxi^d sum_xi e^{i (x-y) xi} a((1-tau) x + tau y, xi).

    Polynomial symbols are evaluated exactly at the midpoints; sampled
    symbols are upsampled in the x slot (tau must then be rational with a
    small denominator so midpoints land on the refined lattice).
    """
    tv = _finite_tau(tau)
    axis = _symbol_axis(a, axis)
    if isinstance(a, PolySymbol):
        return _kernel_from_poly(a, tv, axis)
    return _kernel_from_grid(a, tv)


def _kernel_from_poly(a: PolySymbol, tv: float, axis: AxisGrid) -> KernelMatrix:
    d = axis.d
    N = axis.size
    pts = axis.points()
    J = _axis_indices(axis)
    rows = [pts[J[i]] for i in range(d)]
    diffs = _diff_indices(axis)
    gcache = {}
    K = np.zeros((N, N), dtype=complex)
    for (xe, ke), c in a.terms.items():
        W = np.ones((N, N), dtype=complex)
        for i, b in enumerate(xe):
            if b:
                mid = (1.0 - tv) * rows[i][:, None] + tv * rows[i][None, :]
                W = W * mid**b
        G = np.ones((N, N), dtype=complex)
        for i, al in enumerate(ke):
            if al not in gcache:
                gcache[al] = _dirichlet_1d(axis, al)
            G = G * gcache[al][diffs[i]]
        K += c * W * G
    return KernelMatrix(axis, K)


def _kernel_from_grid(a: PhaseFunctionGrid, tv: float) -> KernelMatrix:
    axis = a.xaxis
    d, n, N = axis.d, axis.n, axis.size
    p, q = _tau_fraction(tv)
    vals = a.values
    for i in range(d):
        vals = _upsample_axis(vals, q, i)
    # inverse transform over the xi axes: B[w, r]
    xi_axes = tuple(range(d, 2 * d))
    B = _shifted_ifft(vals, xi_axes) / axis.dx**d
    J = _axis_indices(axis)
    widx = []
    ridx = []
    for i in range(d):
        jt, js = J[i][:, None], J[i][None, :]
        widx.append(((q - p) * jt + p * js) % (q * n))
        ridx.append((jt - js + n // 2) % n)
    K = B[tuple(widx + ridx)]
    return KernelMatrix(axis, K)


_STENCIL = np.arange(-7, 9)  # 16-point centered Lagrange stencil


def _lagrange_weights(frac: float) -> np.ndarray:
    """Barycentric Lagrange weights for evaluating at ``frac`` in [0, 1)
    from equispaced nodes -7..8; exact on polynomials of degree <= 15."""
    nodes = _STENCIL.astype(float)
    w = np.ones(nodes.size)
    for i, xi in enumerate(nodes):
        for xj in nodes:
            if xj != xi:
                w[i] *= (frac - xj) / (xi - xj)
    return w


def _fractional_shift(values: np.ndarray, delta_steps: float, ax: int, n: int) -> np.ndarray:
    """Evaluate a periodic sampled function at points shifted forward by
    delta_steps grid steps along one axis.

    Integer part is an exact circular roll; the fractional residue uses a
    local 16-point Lagrange stencil, so data defects stay local instead of
    spreading through a global transform.
    """
    if delta_steps == 0.0:
        return values
    int_part = math.floor(delta_steps)
    frac = delta_steps - int_part
    v = np.moveaxis(values, ax, 0)
    g = np.roll(v, -int_part, axis=0)
    if frac == 0.0:
        return np.moveaxis(g, 0, ax)
    w = _lagrange_weights(frac)
    out = np.zeros_like(g)
    for m, wm in zip(_STENCIL, w):
        out += wm * np.roll(g, -int(m), axis=0)
    return np.moveaxis(out, 0, ax)


def symbol_from_kernel(K: KernelMatrix, tau: float) -> PhaseFunctionGrid:
    """a(x, xi) = F_{t -> xi} K(x + tau t, x - (1-tau) t), the inverse of
    ``kernel_from_symbol``.

    Entries with a common difference t - s sample the midpoint slot of the
    kernel on a lattice offset by tau (t - s); each difference class is
    brought back to the base lattice by a local interpolating shift, then
    the difference direction is transformed.  Entries whose column index
    wraps around the box sample the wrong periodic image of the midpoint
    slot; the local stencil keeps that defect confined near the box edge, so
    accuracy away from the boundary requires only that the symbol be smooth
    on the grid scale (exact for polynomial midpoint dependence up to degree
    15).
    """
    if not isinstance(K, KernelMatrix):
        raise UwqError(f"expected a KernelMatrix, got {type(K).__name__}")
    axis = K.axis
    d, n, N = axis.d, axis.n, axis.size
    p, q = _tau_fraction(_finite_tau(tau))
    Kv = K.entries.reshape(axis.shape * 2)
    # B[r, w] = kernel entries with difference index r (per axis), slid so
    # that axis ``d+i`` carries the difference class and axis ``i`` slides.
    J = np.indices(axis.shape * 2)  # (2d, n, ..., n): first d slide, last d diffs
    idx_rows = []
    idx_cols = []
    for i in range(d):
        jt = J[i]
        dj = J[d + i] - n // 2
        idx_rows.append(jt % n)
        idx_cols.append((jt - dj) % n)
    B = Kv[tuple(idx_rows + idx_cols)]  # shape (n,)*d (slide w) + (n,)*d (diff r)
    # slide index jt sampled B(x_jt - tau * dj * dx, r); shift back per axis
    for i in range(d):
        for k in range(n):
            dj = k - n // 2
            delta = p * dj / q  # in units of dx
            sl = [slice(None)] * (2 * d)
            sl[d + i] = k
            sub = B[tuple(sl)]
            B[tuple(sl)] = _fractional_shift(sub, delta, i, n)
    # transform the difference axes: a(x, xi) = dr^d sum_r e^{-i r xi} B(x, r)
    r_axes = tuple(range(d, 2 * d))
    spec = axis.dx**d * _shifted_fft(B, r_axes)
    return PhaseFunctionGrid(axis, spec)


def operator_matrix(K: KernelMatrix) -> OperatorMatrix:
    """Fold the dy^d quadrature weight into the columns."""
    if not isinstance(K, KernelMatrix):
        raise UwqError(f"expected a KernelMatrix, got {type(K).__name__}")
    return OperatorMatrix(K.axis, K.entries * K.axis.dx**K.axis.d)


def apply_operator(M: OperatorMatrix, u: FunctionGrid) -> FunctionGrid:
    if u.axis != M.axis:
        raise UwqError("grid mismatch")
    return FunctionGrid(M.axis, (M.entries @ u.values.ravel()).reshape(M.axis.shape))


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
    # G0 at circular offset z; the window is a tensor product over axes
    g = window_translates(AxisGrid(n, axis.L, 1))[0]
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


def verify_smoothing_identity(a, axis: AxisGrid = None) -> dict:
    """Entrywise discrepancy between the Anti-Wick matrix of a and the Weyl
    matrix of its Gaussian-smoothed symbol - the headline identity.

    Both routes discretize the same torus objects through independent code
    paths (STFT sandwich vs FFT convolution plus kernel quadrature).
    ``max_err`` is taken over the centered half-box block of the matrix:
    rows and columns within a window width of the box seam couple opposite
    box edges through the wrap, where the two discretizations represent the
    seam differently by O(1) for growing symbols - a boundary artifact, not
    part of the identity.  ``max_err_full`` reports the unrestricted value.
    """
    axis = _symbol_axis(a, axis)
    if isinstance(a, PolySymbol):
        a = sample_symbol(a, axis)
    A = anti_wick_matrix(a)
    B = weyl(gauss_smooth(a))
    diff = np.abs(A.entries - B.entries)
    per_axis = np.abs(axis.points()) <= axis.L / 2.0
    mask = per_axis.copy()
    for _ in range(axis.d - 1):
        mask = np.multiply.outer(mask, per_axis)
    flat = mask.ravel()
    inner = diff[np.ix_(flat, flat)]
    return {
        "max_err": float(np.max(inner)),
        "max_err_full": float(np.max(diff)),
    }


def hermite_function(k: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite function h_k via the stable two-term recurrence;
    eigenfunction of the x^2 + xi^2 Weyl operator with eigenvalue 2k + 1."""
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h = math.pi ** (-0.25) * np.exp(-0.5 * x**2)
    for j in range(k):
        h_next = math.sqrt(2.0 / (j + 1)) * x * h - math.sqrt(j / (j + 1.0)) * h_prev
        h_prev, h = h, h_next
    return h
