import itertools
import math

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
from uwq.grid import AxisGrid, FunctionGrid, PhaseFunctionGrid, gaussian_window, inner
from uwq.quant import (
    anti_wick_direct,
    anti_wick_matrix,
    apply_operator,
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
    """Band-limited and box-localized in both slots.  Kernel round trips
    need the periodic extension smooth to the target tolerance, i.e. the
    envelopes must decay at the box seams (xw, kw control the widths)."""
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
    W = window_translates(axis)
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

    def test_linearity_in_symbol(self, axis):
        a, b = X * XI, XI * XI
        lhs = kernel_from_symbol(a + 2.0 * b, 0.5, axis).entries
        rhs = kernel_from_symbol(a, 0.5, axis).entries + 2.0 * kernel_from_symbol(b, 0.5, axis).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


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

    def test_second_derivative_of_gaussian(self, axis):
        g0 = gaussian_window(axis)
        out = apply_operator(weyl(XI * XI, axis), g0)
        pts = axis.points()
        exact = -(pts**2 - 1.0) * math.pi ** (-0.25) * np.exp(-(pts**2) / 2.0)
        assert np.max(np.abs(out.values - exact)) < 1e-8


class TestSymbolFromKernel:
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

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.0])
    def test_localized_symbol_round_trip(self, axis, tau):
        a = localized_symbol(axis, 31, xw=1.8, kw=4.5)
        K = kernel_from_symbol(a, tau)
        rec = symbol_from_kernel(K, tau)
        pts = axis.points()
        inner_idx = np.abs(pts) < axis.L / 2.0
        err = np.abs(rec.values - a.values)[inner_idx, :]
        assert np.max(err) < 1e-9 * np.max(np.abs(a.values))

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
        # Anti-Wick of xi^2 equals the Weyl operator of xi^2 + 1/2 through
        # the smoothing route
        r = verify_smoothing_identity(XI * XI, axis)
        assert r["max_err"] < 1e-7
        M1 = anti_wick_matrix(XI * XI, axis).entries
        M2 = weyl(gauss_smooth(sample_symbol(XI * XI, axis))).entries
        n4 = axis.n // 4
        block = slice(n4, 3 * n4)
        assert np.max(np.abs((M1 - M2)[block, block])) < 1e-7


class TestGaussSmooth:
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
        assert verify_smoothing_identity(ONE, axis)["max_err"] < 1e-10

    def test_polynomial_corpus(self, axis):
        for sym in [X, XI * XI, X * X + XI * XI, X * X * X * X, X * XI]:
            assert verify_smoothing_identity(sym, axis)["max_err"] < 1e-5

    def test_oscillator_symbol_tight(self, axis):
        assert verify_smoothing_identity(X * X + XI * XI, axis)["max_err"] < 1e-6

    def test_random_band_limited(self, axis):
        rng = np.random.default_rng(19)
        n = axis.n
        spec = np.zeros((n, n), dtype=complex)
        spec[n // 2 - 12 : n // 2 + 12, n // 2 - 12 : n // 2 + 12] = rng.standard_normal(
            (24, 24)
        ) + 1j * rng.standard_normal((24, 24))
        vals = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(spec))).real * n * n
        a = PhaseFunctionGrid(axis, (vals / np.max(np.abs(vals))).astype(complex))
        assert verify_smoothing_identity(a)["max_err"] < 1e-5

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
    """A PolySymbol needs an axis; a sampled symbol rejects a different one."""

    ENTRY_POINTS = {
        "kernel_from_symbol": lambda a, axis: kernel_from_symbol(a, 0.5, axis),
        "anti_wick_matrix": anti_wick_matrix,
        "verify_smoothing_identity": verify_smoothing_identity,
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
        rep = verify_smoothing_identity(sym, ax2)
        assert rep["max_err"] < 1e-5

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
