import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from uwq.errors import OverflowDomainError, UwqError
from uwq.expansion import (
    PolySymbol,
    compose_terms,
    heat_quarter,
    inverse_aw_recursion,
    tau_change_terms,
    transpose_terms,
)
from uwq.gaussconv import SeparableSymbol
from uwq.grid import AxisGrid, FunctionGrid, PhaseFunctionGrid, gaussian_window, inner
from uwq.quant import (
    KernelMatrix,
    _axis_indices,
    _class_index,
    _dirichlet_1d,
    anti_wick_direct,
    anti_wick_matrix,
    apply_operator,
    apply_symbol,
    gauss_smooth,
    hermite_function,
    kernel_from_symbol,
    operator_matrix,
    sample_symbol,
    symbol_from_kernel,
    verify_smoothing_identity,
    weyl,
)
from uwq.stft import window_translates
from uwq.suites import _band_limited

X = PolySymbol.x()
XI = PolySymbol.xi()
ONE = PolySymbol.one()


@pytest.fixture(scope="module")
def axis():
    # tight box used by the quantization identity checks
    return AxisGrid(128, 8.0, 1)


@pytest.fixture(scope="module")
def wide_axis():
    # wider box for ordering/composition checks: corpus functions decay to
    # ~1e-22 at the edge, which is what kills polynomial-times-u aliasing
    return AxisGrid(128, 10.0, 1)


def decaying_corpus(axis):
    pts = axis.points()
    out = [FunctionGrid(axis, hermite_function(k, pts).astype(complex)) for k in range(4)]
    out.append(FunctionGrid(axis, np.exp(1j * 2.0 * pts - 0.5 * (pts - 1.0) ** 2)))
    return out


def localized_symbol(axis, seed, xw=3.0, kw=6.0):
    """Band-limited and box-localized in both slots (xw, kw control the
    widths of the envelopes)."""
    rng = np.random.default_rng(seed)
    pts = axis.points()
    dual = axis.dual().points()
    env = np.exp(-((pts / xw) ** 2))[:, None] * np.exp(-((dual / kw) ** 2))[None, :]
    mod = np.zeros((axis.n, axis.n))
    for _ in range(5):
        kx = rng.integers(-8, 9) * math.pi / axis.L
        kk = rng.integers(-8, 9) * 2.0 * axis.L / axis.n
        mod += rng.standard_normal() * np.cos(np.add.outer(kx * pts, kk * dual))
    return PhaseFunctionGrid(axis, env * (1.0 + 0.3 * mod))


def window_pair_sum(a):
    """Reference Anti-Wick matrix: the window-pair form
        M[t, s] = dx^{2d} sum_y W[y, t] W[y, s] C[y, t-s]
    summed one window centre y at a time, O(N^3)."""
    axis = a.xaxis
    d, n, N = axis.d, axis.n, axis.size
    W = np.roll(window_translates(axis), n // 2, axis=1)  # [y, t], t in grid order
    if d == 2:
        W = np.kron(W, W)
    xi_axes = tuple(range(d, 2 * d))
    C = np.fft.fftshift(
        np.fft.ifftn(np.fft.ifftshift(a.values, axes=xi_axes), axes=xi_axes), axes=xi_axes
    ).reshape(N, N) / axis.dx**d
    J = np.indices(axis.shape).reshape(d, N)
    R = np.zeros((N, N), dtype=int)
    for i in range(d):
        R = R * n + (J[i][:, None] - J[i][None, :] + n // 2) % n
    M = np.zeros((N, N), dtype=complex)
    for y in range(N):
        M += np.multiply.outer(W[y], W[y]) * C[y, R]
    return M * axis.dx ** (2 * d)


def per_term_kernel(a, tau, axis):
    """Reference polynomial kernel: per term, the midpoint power times the
    gathered product of 1-d xi-tables, O(N^2) work for every term."""
    d, n, N = axis.d, axis.n, axis.size
    J = np.indices(axis.shape).reshape(d, N)
    rows = axis.points()[J]
    diffs = [(J[i][:, None] - J[i][None, :]) % n for i in range(d)]
    K = np.zeros((N, N), dtype=complex)
    for (xe, ke), c in a.terms.items():
        W = np.ones((N, N), dtype=complex)
        for i, b in enumerate(xe):
            if b:
                W = W * ((1.0 - tau) * rows[i][:, None] + tau * rows[i][None, :]) ** b
        G = np.ones((N, N), dtype=complex)
        for i, al in enumerate(ke):
            G = G * _dirichlet_1d(axis, al)[diffs[i]]
        K += c * W * G
    return K


def power_kernel(a, tau, axis):
    """The polynomial kernel assembled as ``kernel_from_symbol`` does, with
    the midpoint powers taken by numpy's ``**``."""
    tables = {}
    for (xe, ke), c in a.terms.items():
        T = c * functools.reduce(np.multiply.outer, (_dirichlet_1d(axis, al) for al in ke))
        tables[xe] = tables[xe] + T if xe in tables else T
    rows = axis.points()[_axis_indices(axis)]
    d, n = axis.d, axis.n
    steps = [0] * d + [n ** (d - 1 - i) for i in range(d)]
    idx = _class_index(n, d, np.zeros(n, dtype=np.intp), steps)
    K = np.zeros((axis.size, axis.size), dtype=complex)
    for xe, T in tables.items():
        G = np.take(T, idx)
        for i, b in enumerate(xe):
            if b:
                mids = (1.0 - tau) * rows[i][:, None] + tau * rows[i][None, :]
                G *= mids if b == 1 else mids**b
        K += G
    return K


def shifted(transform, values, axes):
    return np.fft.fftshift(transform(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes)


def upsample_axis(values, q, ax):
    """Trigonometric interpolation onto a q-times finer lattice along one
    axis (zero-padded spectrum, unpaired most-negative bin split evenly)."""
    if q == 1:
        return values
    v = np.moveaxis(values, ax, 0)
    n = v.shape[0]
    S = shifted(np.fft.fftn, v, (0,))
    out = np.zeros((q * n,) + v.shape[1:], dtype=complex)
    lo = q * n // 2 - n // 2
    out[lo : lo + n] = S
    out[lo] = 0.5 * S[0]
    out[lo + n] = 0.5 * S[0]
    return np.moveaxis(q * shifted(np.fft.ifftn, out, (0,)), 0, ax)


def upsampled_kernel(a, tau):
    """Reference sampled kernel: each difference-class column of the
    inverse xi transform upsampled onto the q-times finer x lattice (tau =
    p/q), then read at the nearest-image midpoints q t - p r, r = ((t - s +
    n/2) mod n) - n/2.  Columns go one at a time so the q^d-fold lattice
    never exists for all of them at once."""
    axis = a.xaxis
    d, n, N = axis.d, axis.n, axis.size
    frac = Fraction(tau).limit_denominator(64)
    p, q = frac.numerator, frac.denominator
    B = shifted(np.fft.ifftn, a.values, tuple(range(d, 2 * d))) / axis.dx**d
    J = np.indices(axis.shape).reshape(d, N)
    ridx = [(J[i][:, None] - J[i][None, :] + n // 2) % n for i in range(d)]
    widx = [(q * J[i][:, None] - p * (ridx[i] - n // 2)) % (q * n) for i in range(d)]
    K = np.empty((N, N), dtype=complex)
    for r in itertools.product(range(n), repeat=d):
        fine = B[(Ellipsis,) + r]
        for i in range(d):
            fine = upsample_axis(fine, q, i)
        mask = np.logical_and.reduce([ri == ci for ri, ci in zip(ridx, r)])
        K[mask] = fine[tuple(wi[mask] for wi in widx)]
    return K


STENCIL = np.arange(-7, 9)


def lagrange_weights(frac):
    """Barycentric Lagrange weights for evaluating at ``frac`` in [0, 1)
    from the equispaced nodes -7..8, one pure-Python product per node."""
    nodes = STENCIL.astype(float)
    w = np.ones(nodes.size)
    for i, xi in enumerate(nodes):
        for xj in nodes:
            if xj != xi:
                w[i] *= (frac - xj) / (xi - xj)
    return w


def fractional_shift(values, delta_steps, ax):
    """Evaluate a periodic sampled function at points shifted forward by
    delta_steps grid steps along one axis: a circular roll by the whole
    steps, then the 16-point Lagrange stencil for the fraction."""
    if delta_steps == 0.0:
        return values
    int_part = math.floor(delta_steps)
    frac = delta_steps - int_part
    v = np.moveaxis(values, ax, 0)
    g = np.roll(v, -int_part, axis=0)
    if frac == 0.0:
        return np.moveaxis(g, 0, ax)
    w = lagrange_weights(frac)
    out = np.zeros_like(g)
    for m, wm in zip(STENCIL, w):
        out += wm * np.roll(g, -int(m), axis=0)
    return np.moveaxis(out, 0, ax)


def per_class_symbol(K, tau):
    """Reference symbol_from_kernel: a 2-d fancy gather of every difference
    class, then per axis and per class a roll and a stencil of 16 more
    rolls, then the shifted FFT of the class axes."""
    axis = K.axis
    d, n = axis.d, axis.n
    frac = Fraction(tau).limit_denominator(64)
    p, q = frac.numerator, frac.denominator
    Kv = K.entries.reshape(axis.shape * 2)
    J = np.indices(axis.shape * 2)
    rows = [J[i] % n for i in range(d)]
    cols = [(J[i] - (J[d + i] - n // 2)) % n for i in range(d)]
    B = Kv[tuple(rows + cols)]
    for i in range(d):
        for k in range(n):
            sl = [slice(None)] * (2 * d)
            sl[d + i] = k
            B[tuple(sl)] = fractional_shift(B[tuple(sl)], p * (k - n // 2) / q, i)
    return axis.dx**d * shifted(np.fft.fftn, B, tuple(range(d, 2 * d)))


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_symbol(axis, seed):
    """Complex, non-Hermitian, neither smooth nor decaying."""
    rng = np.random.default_rng(seed)
    shape = axis.shape * 2
    return PhaseFunctionGrid(axis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestKernel:
    def test_unit_symbol_gives_identity(self, axis):
        M = operator_matrix(kernel_from_symbol(ONE, 0.5, axis))
        assert np.max(np.abs(M.entries - np.eye(axis.n))) < 1e-12

    def test_position_symbol_is_multiplication(self, axis):
        f = X * X + 2.0 * X
        M = operator_matrix(kernel_from_symbol(f, 0.0, axis))
        pts = axis.points()
        assert np.max(np.abs(M.entries - np.diag(pts**2 + 2.0 * pts))) < 1e-10

    def test_frequency_symbol_is_spectral_derivative(self, axis):
        M = operator_matrix(kernel_from_symbol(XI, 0.25, axis))
        for kidx in [3, -7, 20]:
            k = kidx * axis.dxi
            mode = np.exp(1j * k * axis.points())
            out = M.entries @ mode
            assert np.max(np.abs(out - k * mode)) < 1e-10 * max(1.0, abs(k))

    def test_operator_matrix_rejected(self, axis):
        # an OperatorMatrix already has the dy^d weight folded in
        with pytest.raises(UwqError, match="KernelMatrix"):
            operator_matrix(weyl(ONE, axis))

    def test_apply_operator_needs_operator_matrix(self, axis):
        # a KernelMatrix lacks the dy^d weight, so applying it is an error
        u = gaussian_window(axis)
        with pytest.raises(UwqError, match="OperatorMatrix"):
            apply_operator(kernel_from_symbol(XI * XI, 0.5, axis), u)

    def test_linearity_in_symbol(self, axis):
        a, b = X * XI, XI * XI
        lhs = kernel_from_symbol(a + 2.0 * b, 0.5, axis).entries
        rhs = kernel_from_symbol(a, 0.5, axis).entries + 2.0 * kernel_from_symbol(b, 0.5, axis).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestKernelAssembly:
    """The per-x-exponent polynomial builder and the spectrally shifted
    sampled builder against the per-term and q-fold upsampling references."""

    @staticmethod
    def poly_cases():
        X2, XI2 = PolySymbol.x(0, 2), PolySymbol.xi(0, 2)
        Y2, ETA2 = PolySymbol.x(1, 2), PolySymbol.xi(1, 2)
        # shared x-exponents, a pure-xi term, a pure-x term and a constant
        one_d = (X * X * XI + (2.0 - 1.0j) * X * X * XI * XI * XI + 0.5 * X * XI
                 - 3.0 * X * XI * XI + XI * XI * XI * XI + 0.25 * X * X * X + 1.5)
        two_d = (X2 * X2 * ETA2 + (1.0 + 2.0j) * X2 * X2 * XI2 * ETA2 + Y2 * XI2 * XI2
                 - 2.0 * Y2 * XI2 + ETA2 * ETA2 * ETA2 + X2 * Y2 + 0.75)
        return [(one_d, AxisGrid(64, 6.0, 1)), (two_d, AxisGrid(8, 3.0, 2))]

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 0.3])
    def test_poly_matches_per_term(self, case, tau):
        a, ax = self.poly_cases()[case]
        K = kernel_from_symbol(a, tau, ax).entries
        ref = per_term_kernel(a, tau, ax)
        assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))

    @staticmethod
    def odd_power_cases(L):
        # x-exponents up to 5, odd ones >= 3 among them, on both axes at d=2
        X2, XI2 = PolySymbol.x(0, 2), PolySymbol.xi(0, 2)
        Y2, ETA2 = PolySymbol.x(1, 2), PolySymbol.xi(1, 2)
        one_d = (X * X * X * XI + (0.5 - 1.0j) * X * X * X * X * X + 2.0 * X * X * XI * XI
                 - X * X * X * X * XI * XI * XI + 0.75 * X + 1.0)
        two_d = (X2 * X2 * X2 * ETA2 + (1.0 + 0.5j) * Y2 * Y2 * Y2 * Y2 * Y2 * XI2
                 + X2 * X2 * X2 * Y2 * Y2 * Y2 + 0.5 * X2 * X2 * XI2 * XI2 - 2.0)
        return [(one_d, AxisGrid(64, L, 1)), (two_d, AxisGrid(8, L / 4, 2))]

    @pytest.mark.parametrize("case", [0, 1])
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.0])
    def test_poly_powers_bitwise_on_dyadic_grids(self, case, tau):
        # midpoints on the dyadic grids are short dyadic numbers, so their
        # products are exact and equal the powers bit for bit
        a, ax = self.odd_power_cases(8.0)[case]
        assert np.array_equal(kernel_from_symbol(a, tau, ax).entries, power_kernel(a, tau, ax))

    @pytest.mark.parametrize("case", [0, 1])
    def test_poly_powers_round_like_pow(self, case):
        a, ax = self.odd_power_cases(10.0)[case]
        K, ref = kernel_from_symbol(a, 0.3, ax).entries, power_kernel(a, 0.3, ax)
        assert np.max(np.abs(K - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, d", [(2, 1), (4, 1), (64, 1), (4, 2), (8, 2)])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 0.25, 1 / 3, 2 / 7, 1 / 64, -0.5, 1.5])
    def test_grid_matches_upsampled(self, n, d, tau):
        a = random_symbol(AxisGrid(n, 3.0, d), 31)
        K = kernel_from_symbol(a, tau).entries
        ref = upsampled_kernel(a, tau)
        if tau in (0.0, 1.0):
            assert np.array_equal(K, ref)
        else:
            assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, d, tau", [(128, 1, 1 / 64), (8, 2, 1 / 8), (16, 2, 1 / 64)])
    def test_grid_peak_memory(self, n, d, tau):
        # a q-fold fine lattice would take about q^d times the N x N output;
        # the in-place shift leaves B, the gather index and K at the peak.
        # The first call fills numpy's FFT plan cache, so it goes untraced
        a = random_symbol(AxisGrid(n, 3.0, d), 32)
        output = 16 * a.xaxis.size**2
        kernel_from_symbol(a, tau)
        assert traced_peak_bytes(lambda: kernel_from_symbol(a, tau)) <= 3.5 * output

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1 / 3])
    def test_overflow_raises(self, tau):
        # finite symbols whose kernels overflow float64: the class sums of a
        # sampled one, the xi-tables times the coefficient of a polynomial one
        ax = AxisGrid(16, 4.0, 1)
        with pytest.raises(OverflowDomainError, match="kernel overflows"):
            kernel_from_symbol(PhaseFunctionGrid(ax, np.full((16, 16), 1e308)), tau)
        with pytest.raises(OverflowDomainError, match="kernel overflows"):
            kernel_from_symbol(1e308 * XI * XI, tau, ax)
        with pytest.raises(OverflowDomainError, match="operator overflows"):
            operator_matrix(KernelMatrix(AxisGrid(2, 1e300, 1), np.full((2, 2), 1e300)))

    @pytest.mark.parametrize("n, d", [(8, 1), (4, 2)])
    @pytest.mark.parametrize("tau", [2.0**52 + 1, 2.0**53 + 2, 1e20])
    def test_huge_tau_enters_mod_n(self, n, d, tau):
        # both sampled maps read tau only through x - tau r mod n
        ax = AxisGrid(n, 3.0, d)
        a = random_symbol(ax, 35)
        K = KernelMatrix(ax, random_symbol(ax, 36).values.reshape(ax.size, ax.size))
        base = tau % n
        assert np.array_equal(kernel_from_symbol(a, tau).entries, kernel_from_symbol(a, base).entries)
        assert np.array_equal(symbol_from_kernel(K, tau).values, symbol_from_kernel(K, base).values)


class TestTorusWeyl:
    """The sampled path is the torus tau-quantization with nearest-image
    midpoints, so it keeps two exact identities: Moyal's
    ||Op_tau(a)||_HS^2 = (2 pi)^{-d} ||a||^2 at every tau, and Mehler's
    Weyl(e^{-|w|^2}) = (1/2) |h_0><h_0|."""

    @staticmethod
    def moyal_defect(a, tau):
        # HS norm of the operator: sum |K|^2 dx^d dy^d = sum |M|^2; the
        # phase-space cell dx dxi is 2 pi / n per axis
        M = operator_matrix(kernel_from_symbol(a, tau)).entries
        lhs = np.sum(np.abs(M) ** 2)
        rhs = np.sum(np.abs(a.values) ** 2) / a.xaxis.size
        return abs(lhs - rhs) / rhs

    @pytest.mark.parametrize("tau", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    def test_moyal_1d(self, axis, tau):
        for f in (lambda x, k: np.exp(-x**2 - k**2),
                  lambda x, k: np.exp(-(x - 1.5) ** 2 - (k + 2.0) ** 2),
                  lambda x, k: np.exp(-x**2 / 4 - 3 * k**2)):
            a = PhaseFunctionGrid.from_callable(axis, f)
            assert self.moyal_defect(a, tau) < 1e-12

    @pytest.mark.parametrize("tau", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    def test_moyal_2d(self, tau):
        ax2 = AxisGrid(32, 6.0, 2)
        for f in (lambda x, y, k, l: np.exp(-x**2 - y**2 - k**2 - l**2),
                  lambda x, y, k, l: np.exp(-(x - 1) ** 2 - (y + 0.5) ** 2 - (k - 1) ** 2 - (l + 2) ** 2),
                  lambda x, y, k, l: np.exp(-x**2 / 2 - y**2 - 2 * k**2 - l**2 / 3)):
            a = PhaseFunctionGrid.from_callable(ax2, f)
            assert self.moyal_defect(a, tau) < 1e-12

    @pytest.mark.parametrize("n, L, bound", [(256, 12.0, 1e-15), (128, 8.0, 1e-8)])
    def test_mehler_projector(self, n, L, bound):
        ax = AxisGrid(n, L, 1)
        a = PhaseFunctionGrid.from_callable(ax, lambda x, k: np.exp(-x**2 - k**2))
        h0 = hermite_function(0, ax.points())
        assert np.max(np.abs(weyl(a).entries - 0.5 * np.outer(h0, h0) * ax.dx)) < bound


class TestWeyl:
    def test_real_symbol_hermitian(self, axis):
        for sym in [X * XI, X * X + XI * XI, X * X * XI * XI]:
            M = weyl(sym, axis).entries
            scale = max(1.0, np.max(np.abs(M)))
            assert np.max(np.abs(M - M.conj().T)) < 1e-10 * scale

    def test_oscillator_on_hermite_functions(self, axis):
        # the eigenvalue convention is pinned by applying the matrix first
        H = weyl(X * X + XI * XI, axis)
        pts = axis.points()
        for k in range(5):
            h = FunctionGrid(axis, hermite_function(k, pts).astype(complex))
            out = apply_operator(H, h)
            assert np.max(np.abs(out.values - (2 * k + 1) * h.values)) < 1e-8

    def test_oscillator_spectrum(self, axis):
        H = weyl(X * X + XI * XI, axis).entries
        evals = np.linalg.eigvalsh((H + H.conj().T) / 2.0)
        assert np.max(np.abs(evals[:8] - np.arange(1, 16, 2))) < 1e-6

    def test_hermite_rejects_bad_index(self):
        x = np.linspace(-1.0, 1.0, 5)
        for bad in (-1, True, False, 1.0, 2.5, "2", None):
            with pytest.raises(UwqError, match="Hermite index"):
                hermite_function(bad, x)
        assert np.array_equal(hermite_function(np.int64(2), x), hermite_function(2, x))

    def test_second_derivative_of_gaussian(self, axis):
        g0 = gaussian_window(axis)
        out = apply_operator(weyl(XI * XI, axis), g0)
        pts = axis.points()
        exact = -(pts**2 - 1.0) * math.pi ** (-0.25) * np.exp(-(pts**2) / 2.0)
        assert np.max(np.abs(out.values - exact)) < 1e-8


class TestSymbolFromKernel:
    @pytest.mark.parametrize("n, d", [(2, 1), (4, 1), (64, 1), (512, 1), (4, 2), (8, 2), (16, 2)])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 0.25, 1 / 3, 0.3, 1 / 64, -0.5, 1.5])
    def test_matches_per_class(self, n, d, tau):
        # gathers copy exactly, and the same 16 products are summed in the
        # same order before the same per-axis FFTs: bitwise the reference
        ax = AxisGrid(n, 3.0, d)
        K = KernelMatrix(ax, random_symbol(ax, 33).values.reshape(ax.size, ax.size))
        assert np.array_equal(symbol_from_kernel(K, tau).values, per_class_symbol(K, tau))

    @pytest.mark.parametrize("n, d", [(512, 1), (16, 2)])
    def test_peak_memory(self, n, d):
        # the per-class reference peaks at 5x (d=1) and 8x (d=2) the N x N
        # output; the first call fills numpy's FFT plan cache untraced
        ax = AxisGrid(n, 3.0, d)
        K = KernelMatrix(ax, random_symbol(ax, 34).values.reshape(ax.size, ax.size))
        symbol_from_kernel(K, 0.5)
        output = 16 * ax.size**2
        assert traced_peak_bytes(lambda: symbol_from_kernel(K, 0.5)) <= 4 * output

    def test_constant_round_trip(self, axis):
        K = kernel_from_symbol(ONE, 0.5, axis)
        rec = symbol_from_kernel(K, 0.5)
        assert np.max(np.abs(rec.values - 1.0)) < 1e-10

    def test_cross_term_round_trip_inner_half(self, axis):
        # the unpaired most-negative frequency bin carries the symmetrized
        # (zero) representative of the odd power, so it is excluded
        K = kernel_from_symbol(X * XI, 0.5, axis)
        rec = symbol_from_kernel(K, 0.5)
        pts, dual = axis.points(), axis.dual().points()
        exact = np.outer(pts, dual)
        inner_idx = np.abs(pts) < axis.L / 2.0 - 1.0
        err = np.abs(rec.values - exact)[inner_idx, 1:]
        assert np.max(err) < 1e-9

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.0, -0.5, 1 / 3, 1.5])
    def test_localized_symbol_round_trip(self, axis, tau):
        a = localized_symbol(axis, 31, xw=1.8, kw=4.5)
        K = kernel_from_symbol(a, tau)
        rec = symbol_from_kernel(K, tau)
        pts = axis.points()
        inner_idx = np.abs(pts) < axis.L / 2.0
        err = np.abs(rec.values - a.values)[inner_idx, :]
        assert np.max(err) < 1e-9 * np.max(np.abs(a.values))

    @pytest.mark.parametrize("tau", [0.5, 0.25, 1 / 3])
    def test_band_limited_round_trip_whole_box(self, axis, tau):
        # the suite's smoothing-check symbol does not decay at the box edge;
        # what is left is the 16-point stencil's error
        a = PhaseFunctionGrid(axis, _band_limited(axis.n, 2, 12, np.random.default_rng(12346)))
        rec = symbol_from_kernel(kernel_from_symbol(a, tau), tau)
        assert np.max(np.abs(rec.values - a.values)) < 1e-10

    def test_operator_matrix_rejected(self, axis):
        with pytest.raises(UwqError, match="KernelMatrix"):
            symbol_from_kernel(weyl(ONE, axis), 0.5)

    def test_ordering_conversion_recovers_half_i(self, axis):
        # kernel of x*xi at tau=0 read back as a tau=1/2 symbol: the
        # imaginary part on the inner region pins the +i/2 sign
        K = kernel_from_symbol(X * XI, 0.0, axis)
        rec = symbol_from_kernel(K, 0.5)
        pts, dual = axis.points(), axis.dual().points()
        inner_x = np.abs(pts) < axis.L / 4.0
        inner_k = np.abs(dual) < axis.dual().L / 2.0
        imag = rec.values.imag[np.ix_(inner_x, inner_k)]
        assert abs(np.mean(imag) - 0.5) < 0.05
        assert np.mean(imag) > 0.4  # decisively plus, not minus
        re_err = np.abs(rec.values.real - np.outer(pts, dual))
        assert np.max(re_err[np.ix_(inner_x, inner_k)]) < 1e-10


class TestOrderingSign:
    def test_matrix_action_pins_plus_half_i(self, wide_axis):
        # Op_0(x xi) must equal Op_{1/2}(x xi + i/2), not the minus variant
        corpus = decaying_corpus(wide_axis)
        M0 = operator_matrix(kernel_from_symbol(X * XI, 0.0, wide_axis))
        Mplus = operator_matrix(kernel_from_symbol(X * XI + 0.5j, 0.5, wide_axis))
        Mminus = operator_matrix(kernel_from_symbol(X * XI - 0.5j, 0.5, wide_axis))
        for u in corpus:
            good = np.max(np.abs((M0.entries - Mplus.entries) @ u.values))
            bad = np.max(np.abs((M0.entries - Mminus.entries) @ u.values))
            assert good < 1e-10
            assert bad > 0.1


class TestTauChangeMatrices:
    def test_action_agreement(self, wide_axis):
        corpus = decaying_corpus(wide_axis)
        polys = [X * XI, X * X + XI * XI, X * X * XI * XI, X * X * X * XI, XI * XI * XI * XI]
        for a in polys:
            for t1, t in itertools.product([0.0, 0.5, 1.0], repeat=2):
                b = tau_change_terms(a, t1, t)
                M1 = operator_matrix(kernel_from_symbol(a, t1, wide_axis))
                M2 = operator_matrix(kernel_from_symbol(b, t, wide_axis))
                for u in corpus:
                    v1 = M1.entries @ u.values
                    v2 = M2.entries @ u.values
                    assert np.max(np.abs(v1 - v2)) < 1e-8 * max(1.0, np.max(np.abs(v1)))


class TestApplySymbol:
    def test_spectral_derivative_of_mode(self, axis):
        # xi^3 on a resolved Fourier mode, and x^2 as plain multiplication
        k = 5 * axis.dxi
        pts = axis.points()
        mode = FunctionGrid(axis, np.exp(1j * k * pts))
        assert np.max(np.abs(apply_symbol(XI * XI * XI, 0.5, axis, mode.values)
                             - k**3 * mode.values)) < 1e-12 * k**3
        assert np.max(np.abs(apply_symbol(X * X, 0.5, axis, mode.values)
                             - pts**2 * mode.values)) < 1e-12

    def test_odd_power_drops_nyquist_bin(self, axis):
        xi_n = math.pi * axis.n / (2 * axis.L)
        nyquist = FunctionGrid(axis, np.exp(-1j * xi_n * axis.points()))
        assert np.max(np.abs(apply_symbol(XI, 0.0, axis, nyquist.values))) < 1e-12
        even = apply_symbol(XI * XI, 0.0, axis, nyquist.values)
        assert np.max(np.abs(even - xi_n**2 * nyquist.values)) < 1e-12 * xi_n**2

    def test_rejects_bad_inputs(self, axis):
        u = gaussian_window(axis)
        with pytest.raises(UwqError, match="PolySymbol"):
            apply_symbol(sample_symbol(XI, axis), 0.5, axis, u.values)
        with pytest.raises(UwqError, match="dimension"):
            apply_symbol(PolySymbol.xi(0, 2), 0.5, axis, u.values)
        with pytest.raises(UwqError, match="tau must be finite"):
            apply_symbol(XI, math.nan, axis, u.values)

    def test_rejects_stack_of_another_grid(self, axis):
        u = gaussian_window(axis).values
        for bad in (u[:-1], np.stack([u, u]).T, np.zeros(()), np.zeros((2, 3, axis.n + 2))):
            with pytest.raises(UwqError, match="grid shape"):
                apply_symbol(XI, 0.5, axis, bad)
        ax2 = AxisGrid(16, 4.0, 2)
        with pytest.raises(UwqError, match="grid shape"):
            apply_symbol(PolySymbol.xi(0, 2), 0.5, ax2, np.zeros((3, 16)))


class TestTransposeMatrices:
    def test_plain_transpose_identity(self, wide_axis):
        for a in [X * XI, X * X * XI, XI * XI * XI, X * X + XI * XI]:
            refl = a.reflect_xi()
            for tau in [0.0, 0.25, 0.5, 1.0]:
                M = operator_matrix(kernel_from_symbol(a, tau, wide_axis))
                M2 = operator_matrix(kernel_from_symbol(refl, 1.0 - tau, wide_axis))
                assert np.max(np.abs(M.entries.T - M2.entries)) < 1e-9

    def test_expansion_transpose_action(self, wide_axis):
        corpus = decaying_corpus(wide_axis)
        for a in [X * XI, X * X * XI]:
            for tau in [0.0, 0.5]:
                M = operator_matrix(kernel_from_symbol(a, tau, wide_axis))
                Mb = operator_matrix(kernel_from_symbol(transpose_terms(a, tau), tau, wide_axis))
                for u in corpus:
                    v1 = M.entries.T @ u.values
                    v2 = Mb.entries @ u.values
                    assert np.max(np.abs(v1 - v2)) < 1e-8 * max(1.0, np.max(np.abs(v1)))


class TestCompositionMatrices:
    def test_monomial_pairs(self, wide_axis):
        corpus = decaying_corpus(wide_axis)[:3]
        monos = [
            PolySymbol.monomial(1, (i,), (j,)) for i in range(4) for j in range(4) if 1 <= i + j <= 3
        ]
        for a, b in itertools.product(monos, monos):
            f = compose_terms(a, b)
            M = (
                operator_matrix(kernel_from_symbol(a, 0.0, wide_axis)).entries
                @ operator_matrix(kernel_from_symbol(b, 0.0, wide_axis)).entries
            )
            Mf = operator_matrix(kernel_from_symbol(f, 0.0, wide_axis)).entries
            for u in corpus:
                v1, v2 = M @ u.values, Mf @ u.values
                assert np.max(np.abs(v1 - v2)) < 1e-8 * max(1.0, np.max(np.abs(v1)))


class TestAntiWick:
    def test_unit_symbol_acts_as_identity(self, axis):
        a = sample_symbol(ONE, axis)
        for u in decaying_corpus(axis):
            out = anti_wick_direct(a, u)
            assert np.max(np.abs(out.values - u.values)) < 1e-10

    def test_unit_symbol_matrix_is_identity(self, axis):
        M = anti_wick_matrix(ONE, axis)
        assert np.max(np.abs(M.entries - np.eye(axis.n))) < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_raises(self, axis):
        # a and u are finite; |a Vu| reaches 1e308 * 1e10
        a = PhaseFunctionGrid(axis, np.full((axis.n, axis.n), 1e308))
        u = FunctionGrid(axis, 1e10 * decaying_corpus(axis)[0].values)
        with pytest.raises(OverflowDomainError, match="a \\* Vu"):
            anti_wick_direct(a, u)

    def test_positive_symbol_nonnegative_form(self, axis):
        rng = np.random.default_rng(13)
        a = sample_symbol(X * X + XI * XI, axis)
        for _ in range(4):
            u = FunctionGrid(axis, rng.standard_normal(axis.n) + 1j * rng.standard_normal(axis.n))
            val = inner(anti_wick_direct(a, u), u).real
            assert val >= -1e-8 * inner(u, u).real

    def test_real_symbol_self_adjoint(self, axis):
        rng = np.random.default_rng(14)
        a = sample_symbol(X * X + XI * XI, axis)
        u = FunctionGrid(axis, rng.standard_normal(axis.n) + 1j * rng.standard_normal(axis.n))
        v = FunctionGrid(axis, rng.standard_normal(axis.n) + 1j * rng.standard_normal(axis.n))
        lhs = inner(anti_wick_direct(a, u), v)
        rhs = inner(u, anti_wick_direct(a, v))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_matrix_agrees_with_direct(self, axis):
        a = localized_symbol(axis, 17)
        M = anti_wick_matrix(a)
        for u in decaying_corpus(axis)[:3]:
            v1 = apply_operator(M, u)
            v2 = anti_wick_direct(a, u)
            assert np.max(np.abs(v1.values - v2.values)) < 1e-11 * max(
                1.0, np.max(np.abs(v2.values))
            )

    @pytest.mark.parametrize("n, L, d", [(32, 3.0, 1), (8, 3.0, 2)])
    def test_matrix_matches_window_pair_sum(self, n, L, d):
        # the small box lets the window wrap around the seam
        a = random_symbol(AxisGrid(n, L, d), 23)
        M = anti_wick_matrix(a).entries
        ref = window_pair_sum(a)
        assert np.max(np.abs(M - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_norm_bound(self, axis):
        a = localized_symbol(axis, 18)
        sup = float(np.max(np.abs(a.values)))
        nrm = np.linalg.norm(anti_wick_matrix(a).entries, 2)
        assert nrm <= sup * (1.0 + 1e-6)

    def test_quadratic_matches_shifted_weyl(self, axis):
        # Anti-Wick of xi^2 against the Weyl matrix of its periodically
        # smoothed symbol, over the whole matrix.  Weyl(xi^2 + 1/2) itself
        # misses by 0.5 entrywise: the smoothing in xi wraps at the highest
        # frequencies, where xi^2 jumps across the box edge
        assert verify_smoothing_identity(XI * XI, axis) < 1e-7

    def test_polynomial_symbol_paths_agree(self, axis):
        # both Anti-Wick paths sample a polynomial symbol on the grid
        a = 0.5 * X * X + XI * XI - 2.0 * X * XI
        M = anti_wick_matrix(a, axis)
        for u in decaying_corpus(axis)[:3]:
            v1 = apply_operator(M, u).values
            v2 = anti_wick_direct(a, u).values
            assert np.array_equal(v2, anti_wick_direct(sample_symbol(a, axis), u).values)
            assert np.max(np.abs(v1 - v2)) < 1e-11 * np.max(np.abs(v2))

    def test_matrix_peak_memory(self):
        # at d=1 the window-pair DFT is as large as M: it sits beside the
        # class table in the filter (2x), then the index and M beside the
        # class table in the gather (2.6x with the small arrays).  The first
        # call fills numpy's FFT plan cache, so it goes untraced
        a = random_symbol(AxisGrid(128, 3.0, 1), 37)
        anti_wick_matrix(a)
        assert traced_peak_bytes(lambda: anti_wick_matrix(a)) <= 3.0 * 16 * a.xaxis.size**2

    def test_overflowing_matrix_raises(self, axis):
        # every entry is finite; the class sums over xi are not
        a = PhaseFunctionGrid(axis, np.full((axis.n, axis.n), 1e308))
        with pytest.raises(OverflowDomainError, match="operator overflows"):
            anti_wick_matrix(a)
        with pytest.raises(OverflowDomainError, match="operator overflows"):
            anti_wick_matrix(1e308 * XI * XI, axis)


class TestGaussSmooth:
    def test_rejects_polynomial_symbol(self):
        with pytest.raises(UwqError, match="expected a PhaseFunctionGrid, got PolySymbol"):
            gauss_smooth(X)

    def test_overflow_raises(self, axis):
        # samples whose FFT sums pass the float64 range smooth to about
        # themselves; only a smoothing that is not finite raises
        a = PhaseFunctionGrid(axis, np.full((axis.n, axis.n), 1e306))
        assert np.allclose(gauss_smooth(a).values, 1e306, rtol=1e-6, atol=0)
        values = a.values.copy()
        values[3, 5] = np.inf
        with pytest.raises(OverflowDomainError, match="smoothed symbol overflows"):
            gauss_smooth(PhaseFunctionGrid(axis, values))

    def test_ordinary_symbols_take_unscaled_sums(self, axis):
        # the scaling is off below its threshold: the result is the plain
        # FFT convolution, bit for bit
        a = random_symbol(axis, 41)
        kern = np.multiply.outer(np.exp(-axis.points()**2) / math.pi**0.5,
                                 np.exp(-axis.dual().points()**2) / math.pi**0.5)
        conv = np.fft.ifftn(np.fft.fftn(a.values) * np.fft.fftn(np.fft.ifftshift(kern)))
        conv *= axis.dx * axis.dxi
        assert np.array_equal(gauss_smooth(a).values, conv)

    def test_unit_mass(self, axis):
        out = gauss_smooth(sample_symbol(ONE, axis))
        assert np.max(np.abs(out.values - 1.0)) < 1e-12

    def test_quadratic_interior(self, axis):
        out = gauss_smooth(sample_symbol(XI * XI, axis))
        dual = axis.dual().points()
        exact = np.add.outer(np.zeros(axis.n), dual**2 + 0.5)
        inner_idx = np.abs(dual) < axis.dual().L / 2.0
        err = np.abs(out.values - exact)[:, inner_idx]
        assert np.max(err) < 1e-8

    def test_quartic_matches_heat_flow_interior(self, axis):
        # the periodic convolution wraps within a few unit-Gaussian widths
        # of the box seam, so the comparison stays well inside
        out = gauss_smooth(sample_symbol(X * X * X * X, axis))
        exact = sample_symbol(heat_quarter(X * X * X * X), axis)
        pts = axis.points()
        inner_idx = np.abs(pts) < axis.L / 2.0 - 1.5
        err = np.abs(out.values - exact.values)[inner_idx, :]
        assert np.max(err) < 1e-8


class TestSmoothingIdentity:
    def test_unit_symbol(self, axis):
        assert verify_smoothing_identity(ONE, axis) < 1e-10

    def test_polynomial_corpus(self, axis):
        for sym in [X, XI * XI, X * X + XI * XI, X * X * X * X, X * XI]:
            assert verify_smoothing_identity(sym, axis) < 1e-5

    def test_oscillator_symbol_tight(self, axis):
        assert verify_smoothing_identity(X * X + XI * XI, axis) < 1e-6

    def test_random_band_limited(self, axis):
        rng = np.random.default_rng(19)
        n = axis.n
        spec = np.zeros((n, n), dtype=complex)
        spec[n // 2 - 12 : n // 2 + 12, n // 2 - 12 : n // 2 + 12] = rng.standard_normal(
            (24, 24)
        ) + 1j * rng.standard_normal((24, 24))
        vals = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(spec))).real * n * n
        a = PhaseFunctionGrid(axis, (vals / np.max(np.abs(vals))).astype(complex))
        assert verify_smoothing_identity(a) < 1e-5

    def test_inverse_recursion_matrix_form(self, axis):
        corpus = decaying_corpus(axis)
        for b in [XI * XI, X * X, X * XI]:
            a = inverse_aw_recursion(b).a
            MA = anti_wick_matrix(a, axis)
            MW = weyl(b, axis)
            for u in corpus:
                va, vw = apply_operator(MA, u), apply_operator(MW, u)
                assert np.max(np.abs(va.values - vw.values)) < 1e-5 * max(
                    1.0, np.max(np.abs(vw.values))
                )

    def test_heat_flow_cross_module(self, axis):
        corpus = decaying_corpus(axis)
        for a in [XI * XI, X * X + XI * XI]:
            MW = weyl(heat_quarter(a, +1), axis)
            MA = anti_wick_matrix(a, axis)
            for u in corpus:
                va, vw = apply_operator(MA, u), apply_operator(MW, u)
                assert np.max(np.abs(va.values - vw.values)) < 1e-5 * max(
                    1.0, np.max(np.abs(vw.values))
                )


class TestFiniteTau:
    def test_non_finite_rejected(self):
        axis = AxisGrid(16, 4.0, 1)
        a = X * XI
        K = kernel_from_symbol(a, 0.5, axis)
        grid = sample_symbol(a, axis)
        for bad in (math.inf, -math.inf, math.nan):
            for call in (lambda: kernel_from_symbol(a, bad, axis),
                         lambda: kernel_from_symbol(grid, bad),
                         lambda: symbol_from_kernel(K, bad),
                         lambda: tau_change_terms(a, bad, 0.5),
                         lambda: tau_change_terms(a, 0.5, bad),
                         lambda: transpose_terms(a, bad)):
                with pytest.raises(UwqError, match="tau must be finite"):
                    call()


class TestAxisArgument:
    """A PolySymbol needs an axis of its own dimension; a sampled symbol
    rejects a different one; any other symbol type is rejected."""

    ENTRY_POINTS = {
        "kernel_from_symbol": lambda a, axis: kernel_from_symbol(a, 0.5, axis),
        "anti_wick_matrix": anti_wick_matrix,
        "verify_smoothing_identity": verify_smoothing_identity,
        "weyl": weyl,
    }

    @pytest.fixture(scope="class")
    def grid_symbol(self):
        return sample_symbol(XI * XI, AxisGrid(32, 4.0, 1))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_conflicting_axis_rejected(self, entry, grid_symbol):
        call = self.ENTRY_POINTS[entry]
        with pytest.raises(UwqError, match="conflicts with the symbol's grid"):
            call(grid_symbol, AxisGrid(64, 6.0, 1))
        with pytest.raises(UwqError, match="needs an explicit axis"):
            call(XI * XI, None)
        assert call(grid_symbol, AxisGrid(32, 4.0, 1)) is not None

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_dimension_mismatch_rejected(self, entry):
        call = self.ENTRY_POINTS[entry]
        with pytest.raises(UwqError, match="symbol dimension does not match the grid"):
            call(X * XI, AxisGrid(8, 4.0, 2))
        with pytest.raises(UwqError, match="symbol dimension does not match the grid"):
            call(PolySymbol.x(0, d=2), AxisGrid(16, 4.0, 1))

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_unquantizable_symbol_rejected(self, entry):
        call = self.ENTRY_POINTS[entry]
        separable = SeparableSymbol(fx=np.exp, fxi=np.exp)
        for a, name in ((separable, "SeparableSymbol"), (np.ones((16, 16)), "ndarray")):
            with pytest.raises(UwqError, match=f"PhaseFunctionGrid, got {name}"):
                call(a, AxisGrid(16, 4.0, 1))
            with pytest.raises(UwqError, match=f"PhaseFunctionGrid, got {name}"):
                call(a, None)


class TestTwoDimensions:
    @pytest.fixture(scope="class")
    def ax2(self):
        return AxisGrid(16, 6.0, 2)

    def test_identity_2d(self, ax2):
        M = weyl(PolySymbol.one(d=2), ax2)
        assert np.max(np.abs(M.entries - np.eye(ax2.size))) < 1e-10

    def test_hermitian_2d(self, ax2):
        sym = PolySymbol.x(0, 2) * PolySymbol.xi(1, 2) + PolySymbol.xi(0, 2) * PolySymbol.xi(0, 2)
        M = weyl(sym, ax2).entries
        assert np.max(np.abs(M - M.conj().T)) < 1e-9 * max(1.0, np.max(np.abs(M)))

    def test_smoothing_identity_2d(self, ax2):
        sym = PolySymbol.xi(0, 2) * PolySymbol.xi(0, 2)
        assert verify_smoothing_identity(sym, ax2) < 1e-5

    def test_anti_wick_matrix_agrees_with_direct_2d(self, ax2):
        a = random_symbol(ax2, 29)
        M = anti_wick_matrix(a)
        rng = np.random.default_rng(30)
        for _ in range(3):
            u = FunctionGrid(ax2, rng.standard_normal(ax2.shape) + 1j * rng.standard_normal(ax2.shape))
            v1 = apply_operator(M, u).values
            v2 = anti_wick_direct(a, u).values
            assert np.max(np.abs(v1 - v2)) < 1e-11 * np.max(np.abs(v2))

    def test_round_trip_2d(self):
        # coarse two-dimensional grids cannot keep spectra simultaneously
        # narrow and seam-decayed, so the spot check runs at 1e-5
        ax2 = AxisGrid(32, 6.0, 2)
        pts = ax2.points()
        dual = ax2.dual().points()
        envx = np.exp(-((pts / 1.3) ** 2))
        envk = np.exp(-((dual / 1.8) ** 2))
        vals = np.multiply.outer(np.multiply.outer(envx, envx), np.multiply.outer(envk, envk))
        a = PhaseFunctionGrid(ax2, vals.astype(complex))
        K = kernel_from_symbol(a, 0.5)
        rec = symbol_from_kernel(K, 0.5)
        inner_idx = np.abs(pts) < 3.0
        mask2 = np.multiply.outer(inner_idx, inner_idx)
        err = np.abs(rec.values - a.values)[mask2]
        assert np.max(err) < 1e-5 * np.max(np.abs(a.values))
