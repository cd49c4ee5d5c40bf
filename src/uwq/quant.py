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
Operator matrices are dense N x N arrays over the N = n^d grid points,
and every dense map works in one layout: a (row, class) table over the
grid point t and the difference class c = (t - s) mod n per axis, in DFT
order, read at a whole-step row offset per class.  ``_class_index`` is
the one flat index between that table and the N x N matrix: the kernel
builders and the Anti-Wick matrix gather through it, and
``symbol_from_kernel`` scatters through it.  ``_filter_classes`` is the
one per-class filter, FFTs along the rows in place: the fractional
midpoint shift of a sampled kernel, for any finite tau, and of its
inverse, and the window-pair convolution of the Anti-Wick matrix.  Costs:
O(N^2) per distinct x-exponent of a polynomial symbol, O(N^2 log n) time
and O(N^2) memory for the sampled maps and the Anti-Wick matrix.  Every
matrix is checked finite when it is built: float64 overflow in an
assembly raises ``OverflowDomainError``, without numpy warnings, instead
of returning inf or nan.
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

import numpy as np

from .errors import OverflowDomainError, UwqError
from .expansion import PolySymbol, _finite_tau
from .grid import AxisGrid, FunctionGrid, PhaseFunctionGrid
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


# The dense builders let float64 overflow run to inf/nan without numpy
# warnings; ``_finite``, which every result passes, reports it instead.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise OverflowDomainError(f"{what} overflows float64; tame the symbol growth")
    return values


@dataclass(frozen=True)
class _DenseMatrix:
    """An N x N complex matrix over the grid points; every dense builder
    returns one, so a non-finite entry is reported as an overflow here."""

    axis: AxisGrid
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        N = self.axis.size
        if e.shape != (N, N):
            raise UwqError(f"{self._what} must be {N}x{N}")
        object.__setattr__(self, "entries", _finite(e, self._what))


class KernelMatrix(_DenseMatrix):
    """K(x_row, y_col) sampled on the grid, without the dy^d quadrature
    weight; ``operator_matrix`` folds it in."""

    _what = "kernel"


class OperatorMatrix(_DenseMatrix):
    """Dense matrix mapping sampled u to sampled (Op u); weights folded."""

    _what = "operator"


def sample_symbol(a: PolySymbol, axis: AxisGrid) -> PhaseFunctionGrid:
    """Exact samples of a polynomial symbol on the phase grid."""
    if a.d != axis.d:
        raise UwqError("symbol dimension does not match the grid")
    m = axis.phase_meshes()
    return PhaseFunctionGrid(axis, a.evaluate(m[:axis.d], m[axis.d:]))


def _axis_indices(axis: AxisGrid) -> np.ndarray:
    """(d, N) per-axis integer index of every flattened grid point."""
    return np.indices(axis.shape).reshape(axis.d, axis.size)


def _class_index(n: int, d: int, whole: np.ndarray, steps) -> np.ndarray:
    """(N, N) flat index of [t, s] in a (row, class) table, the one layout
    of the dense maps.  Per axis the class c = (t - s) mod n is in DFT
    order, so r = ((c + n/2) mod n) - n/2 is the nearest periodic image of
    t - s, and class c is read at row (t + whole[c]) mod n.  ``steps`` are
    the table's element strides, d row axes then d class axes; row strides
    of 0 read a class-only table.  n is a power of two."""
    j = np.arange(n)
    parts = []
    for i in range(d):
        C = np.subtract.outer(j, j)
        C &= n - 1
        P = whole[C]
        P += j[:, None]
        P &= n - 1
        P *= steps[i]
        C *= steps[d + i]
        P += C
        shape = [1] * (2 * d)
        shape[i] = shape[d + i] = n
        parts.append(P.reshape(shape))
    return functools.reduce(np.add, parts).reshape(n**d, n**d)


def _filter_classes(B: np.ndarray, F: np.ndarray) -> None:
    """Filter every class of the (row, class) table B along its row axes,
    in place and one axis at a time, the last first: forward FFT, multiply
    class c by ``F[:, c]`` (rows in DFT order), inverse FFT.  Its three
    users: the sampled kernel builder's fractional midpoint shift,
    ``symbol_from_kernel``'s 16-point stencil and ``anti_wick_matrix``'s
    window-pair convolution."""
    d, n = B.ndim // 2, B.shape[0]
    for i in reversed(range(d)):
        shape = [1] * (2 * d)
        shape[i] = shape[d + i] = n
        np.fft.fft(B, axis=i, out=B)
        B *= F.reshape(shape)
        np.fft.ifft(B, axis=i, out=B)


def _class_offsets(tv: float, n: int) -> tuple:
    """Per class c in DFT order, with r = ((c + n/2) mod n) - n/2 the
    nearest periodic image of t - s: delta_r = remainder(tau, n) r grid
    steps, as whole steps and a fraction in [0, 1).  The sampled maps read
    tau only through x - tau r mod n, so tau and tau + n give one map."""
    delta = math.remainder(tv, n) * ((np.arange(n) + n // 2) % n - n // 2)
    whole = np.floor(delta)
    return whole.astype(np.intp), delta - whole


def _shift_classes(B: np.ndarray, frac: np.ndarray, transfer) -> None:
    """Shift class c of the (row, class) table B forward by ``frac[c]`` row
    steps on every row axis, in place through ``_filter_classes``;
    ``transfer(fracs, n)`` gives the (n, F) filter of the F distinct
    fractions, rows in DFT order.  A table whose classes all lie on the
    grid is left as it is."""
    if frac.any():
        fracs, which = np.unique(frac, return_inverse=True)
        # F[:, which] is ~5x slower than np.take for n x n filters
        _filter_classes(B, np.take(transfer(fracs, B.shape[0]), which, axis=1))


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
    """(2 pi)^{-1} dxi sum_xi xi^k e^{i r xi} on the 1-d base grid, per
    class in DFT order."""
    return np.fft.ifft(np.fft.ifftshift(_xi_power(axis, k))) / axis.dx


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


@_quiet
def kernel_from_symbol(a, tau: float, axis: AxisGrid = None) -> KernelMatrix:
    """K(x, y) = (2 pi)^{-d} dxi^d sum_xi e^{i (x-y) xi} a((1-tau) x + tau y, xi).

    Polynomial symbols are evaluated exactly at the midpoints.  Sampled
    symbols are trigonometrically interpolated there: each difference-class
    column of the inverse xi transform is shifted spectrally by the
    fraction of a grid step its midpoints lie off the grid, for any finite
    tau (class r's midpoints lie delta_r = remainder(tau, n) r steps off).
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
    rows = axis.points()[_axis_indices(axis)]
    d, n = axis.d, axis.n
    # the (n,)*d tables hold classes only: row strides 0
    steps = [0] * d + [n ** (d - 1 - i) for i in range(d)]
    idx = _class_index(n, d, np.zeros(n, dtype=np.intp), steps)
    mids = {}
    K = np.zeros((axis.size, axis.size), dtype=complex)
    for xe, T in tables.items():
        G = np.take(T, idx)
        for i, b in enumerate(xe):
            if b:
                if i not in mids:
                    mids[i] = (1.0 - tv) * rows[i][:, None] + tv * rows[i][None, :]
                # m^b as the product m m ... m: numpy's float ** leaves its
                # vector loop for negative bases, several times slower on
                # the signed midpoints.  m m is what m**2 computes, and on
                # dyadic grids the products are exact, equal to the powers
                pw = mids[i]
                for _ in range(b - 1):
                    pw = pw * mids[i]
                G *= pw
        K += G
    return KernelMatrix(axis, K)


def _kernel_from_grid(a: PhaseFunctionGrid, tv: float) -> KernelMatrix:
    """K[t, s] = B(x_t - tau r dx, r) per axis, with B the inverse xi
    transform of the symbol and r the nearest periodic image of t - s, the
    class ``symbol_from_kernel`` reads.

    Class r's midpoints lie -delta_r = -remainder(tau, n) r steps off its
    row; each class of B is shifted spectrally in place by the fraction of
    that offset, with length-n FFTs along x, and the whole steps are left
    to the final gather.  At integer tau B is gathered as it is.
    """
    axis = a.xaxis
    d, n = axis.d, axis.n
    xi_axes = tuple(range(d, 2 * d))
    B = np.fft.ifftn(np.fft.ifftshift(a.values, axes=xi_axes), axes=xi_axes)
    B /= axis.dx**d
    whole, frac = _class_offsets(-tv, n)
    _shift_classes(B, frac, _interpolating_shift)
    idx = _class_index(n, d, whole, np.array(B.strides) // B.itemsize)
    return KernelMatrix(axis, np.take(B, idx))


def _interpolating_shift(fracs: np.ndarray, n: int) -> np.ndarray:
    """Trigonometric interpolation shifted forward by each of ``fracs``
    steps, in DFT order; the unpaired most-negative bin, split evenly
    between -n/2 and n/2, takes cos(pi f)."""
    H = np.exp(2j * math.pi / n * np.outer(np.fft.fftfreq(n, 1.0 / n), fracs))
    H[n // 2] = np.cos(math.pi * fracs)
    return H


_STENCIL = np.arange(-7, 9)  # 16-point centered Lagrange stencil


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


def _stencil_transfer(fracs: np.ndarray, n: int) -> np.ndarray:
    """The periodic stencil out[j] = sum_s w_s(f) g[j + s] as a filter:
    sum_s w_s(f) e^{2 pi i k s / n} for each of ``fracs``, in DFT order."""
    ks = np.outer(np.arange(n), _STENCIL) % n
    return np.exp(2j * math.pi / n * ks) @ _lagrange_weights(fracs)


def symbol_from_kernel(K: KernelMatrix, tau: float) -> PhaseFunctionGrid:
    """a(x, xi) = F_{t -> xi} K(x + tau t, x - (1-tau) t), the inverse of
    ``kernel_from_symbol``.

    Entries with a common difference r = t - s sample the midpoint slot on
    a lattice offset by delta_r = remainder(tau, n) r grid steps.  One flat
    scatter puts each entry into its class of the (row, class) table, slid
    back by the class's whole steps (``_class_index`` with those steps
    negated); the transfer function of a 16-point Lagrange stencil (nodes
    -7..8), one per distinct fraction, shifts the classes left a fraction
    of a step off the grid; then the class axes are transformed.  Accuracy
    needs only a symbol smooth on the grid scale (exact for polynomial
    midpoint dependence up to degree 15).
    """
    if not isinstance(K, KernelMatrix):
        raise UwqError(f"expected a KernelMatrix, got {type(K).__name__}")
    axis = K.axis
    d, n = axis.d, axis.n
    # B[j, c] = K[j + whole_c, j + whole_c - r_c] per axis
    whole, frac = _class_offsets(_finite_tau(tau), n)
    B = np.empty((n,) * (2 * d), dtype=complex)
    np.put(B, _class_index(n, d, -whole, np.array(B.strides) // B.itemsize), K.entries)
    _shift_classes(B, frac, _stencil_transfer)
    # a(x, xi) = dr^d sum_r e^{-i r xi} B(x, r), the last class axis first
    # as in np.fft.fftn
    for i in reversed(range(d, 2 * d)):
        np.fft.fft(B, axis=i, out=B)
    spec = np.fft.fftshift(B, axes=tuple(range(d, 2 * d)))
    spec *= axis.dx**d
    return PhaseFunctionGrid(axis, spec)


@_quiet
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


def _sampled(a, axis: AxisGrid = None) -> PhaseFunctionGrid:
    """The symbol's samples on its grid (see ``_symbol_axis``): a PolySymbol
    sampled on ``axis``, a sampled symbol as it is."""
    axis = _symbol_axis(a, axis)
    return sample_symbol(a, axis) if isinstance(a, PolySymbol) else a


@_quiet
def anti_wick_direct(a, u: FunctionGrid) -> FunctionGrid:
    """(2 pi)^{-d} V*(a V u), the STFT sandwich, for a symbol on u's grid.
    a V u is formed in the array of V u, so the phase-space array of the
    STFT is the only one of its size."""
    a = _sampled(a, u.axis)
    V = stft(u)
    prod = _finite(np.multiply(a.values, V.values, out=V.values), "a * Vu")
    out = stft_adjoint(PhaseFunctionGrid(a.xaxis, prod))
    return FunctionGrid(u.axis, out.values / (2.0 * math.pi) ** u.axis.d)


@_quiet
def anti_wick_matrix(a, axis: AxisGrid = None) -> OperatorMatrix:
    """Dense matrix of the Anti-Wick operator, assembled by circular
    convolutions in the window centre.

    The STFT sandwich reorganizes exactly into the window-pair form
        M[t, s] = ds^d dy^d sum_y G0(t-y) G0(s-y) C(y, t-s),
        C(y, r) = (2 pi)^{-d} dxi^d sum_xi a(y, xi) e^{i r xi}.
    The periodized window is circulant, so for each difference class
    c = t - s (mod n per axis)
        M[t, t-c] = dx^{2d} sum_y h_c(t-y) C(y, c),  h_c(z) = G0(z) G0(z-c),
    a circular convolution in y.  It runs in the one class layout of the
    dense maps: C is the (row, class) table of the kernel builders, every
    class is filtered along y by ``_filter_classes`` with the DFT of its
    h_c, and one ``_class_index`` gather reads M[t, s] = R[t, (t-s) mod n]
    off the result R.  O(N^2 log N) for N = n^d grid points.  Agrees with
    ``anti_wick_direct`` to rounding.
    """
    a = _sampled(a, axis)
    axis = a.xaxis
    d, n = axis.d, axis.n
    # G0 at circular offset z (row n/2 of the per-axis window table, copied
    # so the n x n table is freed); the window is a tensor product over axes
    g = window_translates(axis)[n // 2].copy()
    z = np.arange(n)
    # per axis h[z, c] = dx G0(z) G0(z-c): the dx^{2d} quadrature weight
    # times the 1/dx^d of C leaves one dx per axis.  Built as its transpose
    # h[c, z], so the DFT over z runs along the contiguous axis.  At d = 1
    # that DFT is as large as M: built before C and freed before the gather
    hf = np.fft.fft(axis.dx * g[None, :] * g[(z[None, :] - z[:, None]) % n], axis=1)
    xi_axes = tuple(range(d, 2 * d))
    # C transformed in place on its shifted copy, so no second table of
    # that size sits beside the window-pair DFT
    R = np.fft.ifftshift(a.values, axes=xi_axes)
    np.fft.ifftn(R, axes=xi_axes, out=R)
    _filter_classes(R, hf.T)
    del hf
    idx = _class_index(n, d, np.zeros(n, dtype=np.intp), np.array(R.strides) // R.itemsize)
    return OperatorMatrix(axis, np.take(R, idx))


@_quiet
def gauss_smooth(a: PhaseFunctionGrid) -> PhaseFunctionGrid:
    """Convolution with pi^{-d} e^{-|x|^2 - |xi|^2} over all 2d phase
    variables, computed as an FFT (circular) convolution on the phase grid.

    The convolution is periodic: symbols are treated as their periodized
    samples, so values within a unit-Gaussian reach of the box edge wrap.
    Both transforms run in place, in the result's array and in the kernel
    transform's, which is freed once used: two complex arrays of the
    output's size are the peak.
    """
    if not isinstance(a, PhaseFunctionGrid):
        raise UwqError(f"expected a PhaseFunctionGrid, got {type(a).__name__}")
    axis = a.xaxis
    d = axis.d
    xs = axis.points()
    ks = axis.dual().points()
    # the kernel's factors in DFT order, so the last outer product writes
    # the shifted kernel straight into the array its transform takes
    g1x = np.fft.ifftshift(np.exp(-xs**2) / math.pi**0.5)
    g1k = np.fft.ifftshift(np.exp(-ks**2) / math.pi**0.5)
    kern = np.ones((), dtype=float)
    for g in (g1x,) * d + (g1k,) * (d - 1):
        kern = np.multiply.outer(kern, g)
    khat = np.multiply.outer(kern, g1k, out=np.empty(axis.shape * 2, complex))
    del kern
    axes = tuple(range(2 * d))
    np.fft.fftn(khat, axes=axes, out=khat)
    # the unnormalised transforms reach N^2 max|a| khat[0] (the kernel is
    # positive, so its transform peaks at 0), where the smoothing itself
    # stays below max|a|: samples that large are scaled by an exact 2^-s
    # first, so the sums stay below 2^1000, and back after
    values, s = a.values, 0
    top = float(np.max(np.abs(values)))
    if math.isfinite(top) and top > 0:
        s = max(0, math.ceil(math.log2(values.size * abs(khat.flat[0])) + math.log2(top) - 1000))
        if s:
            values = values * 2.0**-s
    conv = np.fft.fftn(values, axes=axes, out=np.empty(values.shape, complex))
    conv *= khat
    del khat
    np.fft.ifftn(conv, axes=axes, out=conv)
    conv *= (axis.dx * axis.dxi) ** d
    if s:
        conv *= 2.0**s
    return PhaseFunctionGrid(axis, _finite(conv, "smoothed symbol"))


def verify_smoothing_identity(a, axis: AxisGrid = None) -> float:
    """Largest entrywise discrepancy, over the whole matrix, between the
    Anti-Wick matrix of a and the Weyl matrix of its Gaussian-smoothed
    symbol - the headline identity.

    Both routes discretize the same torus objects through independent code
    paths (STFT sandwich vs FFT convolution plus kernel quadrature).
    """
    a = _sampled(a, axis)
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
