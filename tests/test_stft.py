import math
import tracemalloc

import numpy as np
import pytest

from uwq.grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    _shifted_fft,
    _shifted_ifft,
    gaussian_window,
    inner,
    l2_norm,
    phase_inner,
)
from uwq.quant import hermite_function
from uwq.stft import _sign, stft, stft_adjoint, stft_norm_check, window_translates

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def axis():
    return AxisGrid(128, 10.0, 1)


def band_limited(axis, seed, half_width=20):
    rng = np.random.default_rng(seed)
    n = axis.n
    spec = np.zeros(n, dtype=complex)
    spec[n // 2 - half_width : n // 2 + half_width] = rng.standard_normal(
        2 * half_width
    ) + 1j * rng.standard_normal(2 * half_width)
    return FunctionGrid(axis, np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(spec))) * n)


def random_function(axis, seed):
    rng = np.random.default_rng(seed)
    return FunctionGrid(axis, rng.standard_normal(axis.shape) + 1j * rng.standard_normal(axis.shape))


def random_phase(axis, seed):
    rng = np.random.default_rng(seed)
    shape = axis.shape * 2
    return PhaseFunctionGrid(axis, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def dense_window(axis):
    """The (N, N) window matrix W[y, t] = G0(t - y), the tensor product of
    the per-axis table."""
    W = np.roll(window_translates(axis), axis.n // 2, axis=1)
    return W if axis.d == 1 else np.kron(W, W)


def dense_stft(u):
    """V u as N windowed shifted DFTs, one per window centre y."""
    axis, d = u.axis, u.axis.d
    windowed = dense_window(axis).reshape((axis.size,) + axis.shape) * u.values[None, ...]
    spec = _shifted_fft(windowed, tuple(range(1, d + 1)))
    return (axis.dx**d) * spec.reshape(axis.shape * 2)


def dense_stft_adjoint(F):
    axis, d, N = F.xaxis, F.xaxis.d, F.xaxis.size
    rows = F.values.reshape((N,) + axis.shape)
    back = _shifted_ifft(rows, tuple(range(1, d + 1))) / (axis.dx**d)
    out = (axis.dx**d) * np.einsum("yt,yt->t", dense_window(axis), back.reshape(N, N))
    return ((2.0 * math.pi) ** d * out).reshape(axis.shape)


def two_array_stft(u):
    """The d=2 forward that windows into a second N^2-sized array before
    its transform."""
    axis = u.axis
    G = window_translates(axis)
    v = _sign(axis) * np.fft.ifftshift(u.values)
    A = np.fft.fft(G[:, :, None] * v, axis=1)
    spec = np.fft.fft(A[:, None] * G[:, None, :], axis=-1)
    spec *= axis.dx**2
    return spec


def two_array_stft_adjoint(F):
    """The d=2 adjoint that inverse-transforms all of F into a second
    N^2-sized array before the y2 sum."""
    axis = F.xaxis
    G = window_translates(axis)
    back = np.fft.ifft(F.values, axis=-1)
    back /= axis.dx**2
    C = np.fft.ifft(np.einsum("bm,abkm->akm", G, back), axis=1)
    out = np.einsum("am,amk->mk", G, C)
    out = (2.0 * math.pi) ** 2 * ((axis.dx**2) * out)
    return np.fft.fftshift(_sign(axis) * out)


def bits(values):
    return values.view(np.uint64)


def corpus(axis):
    pts = axis.points()
    out = [gaussian_window(axis), gaussian_window(axis, y=1.5, eta=2.0)]
    out += [FunctionGrid(axis, hermite_function(k, pts).astype(complex)) for k in range(5)]
    out += [band_limited(axis, seed) for seed in range(3)]
    return out


class TestForward:
    def test_gaussian_closed_form_at_origin(self, axis):
        V = stft(gaussian_window(axis))
        assert abs(V.values[axis.n // 2, axis.n // 2] - 1.0) < 1e-13

    def test_gaussian_closed_form_pointwise(self, axis):
        # V G0 (y, eta) = exp(-y^2/4 - eta^2/4 - i y eta / 2); the 5e-11
        # allowance is the circular-window periodization at the box corner
        V = stft(gaussian_window(axis))
        y = axis.points()[:, None]
        eta = axis.dual().points()[None, :]
        exact = np.exp(-(y**2) / 4.0 - eta**2 / 4.0 - 0.5j * y * eta)
        assert np.max(np.abs(V.values - exact)) < 5e-11

    def test_zero_maps_to_zero(self, axis):
        V = stft(FunctionGrid.zero(axis))
        assert np.all(V.values == 0)

    def test_modulation_covariance(self, axis):
        u = band_limited(axis, 7)
        eta0_idx = 5
        eta0 = eta0_idx * axis.dxi
        mod = FunctionGrid(axis, np.exp(1j * axis.points() * eta0) * u.values)
        V1 = stft(mod).values
        V2 = np.roll(stft(u).values, eta0_idx, axis=1)
        assert np.max(np.abs(V1 - V2)) < 1e-12 * np.max(np.abs(V2))

    def test_linearity(self, axis):
        u, v = band_limited(axis, 8), band_limited(axis, 9)
        a, b = 1.2 - 0.3j, -0.5 + 2.0j
        lhs = stft(FunctionGrid(axis, a * u.values + b * v.values)).values
        rhs = a * stft(u).values + b * stft(v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


class TestAdjoint:
    def test_inversion_on_gaussian(self, axis):
        g0 = gaussian_window(axis)
        rec = stft_adjoint(stft(g0))
        assert np.max(np.abs(rec.values - TWO_PI * g0.values)) < 1e-10

    def test_zero(self, axis):
        F = PhaseFunctionGrid(axis, np.zeros((axis.n, axis.n), dtype=complex))
        assert np.all(stft_adjoint(F).values == 0)

    def test_adjointness(self, axis):
        rng = np.random.default_rng(11)
        u = band_limited(axis, 10)
        F = PhaseFunctionGrid(
            axis, rng.standard_normal((axis.n, axis.n)) + 1j * rng.standard_normal((axis.n, axis.n))
        )
        lhs = phase_inner(stft(u), F)
        rhs = inner(u, stft_adjoint(F))
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)

    def test_inversion_over_corpus(self, axis):
        for u in corpus(axis):
            rec = stft_adjoint(stft(u))
            err = np.max(np.abs(rec.values / TWO_PI - u.values))
            assert err < 1e-10 * max(1.0, np.max(np.abs(u.values)))


class TestNorm:
    def test_gaussian(self, axis):
        res = stft_norm_check(gaussian_window(axis))
        assert res["rhs"] == pytest.approx(math.sqrt(TWO_PI), abs=1e-12)
        assert res["lhs"] == pytest.approx(res["rhs"], rel=1e-12)

    def test_zero(self, axis):
        res = stft_norm_check(FunctionGrid.zero(axis))
        assert res["lhs"] == 0.0 and res["rhs"] == 0.0

    def test_corpus_isometry(self, axis):
        for u in corpus(axis):
            res = stft_norm_check(u)
            assert abs(res["lhs"] - res["rhs"]) < 1e-10 * res["rhs"]


class TestTwoDimensions:
    def test_inversion_and_isometry(self):
        ax2 = AxisGrid(32, 8.0, 2)
        g = gaussian_window(ax2, y=(0.5, -0.25), eta=(1.0, 0.5))
        rec = stft_adjoint(stft(g))
        assert np.max(np.abs(rec.values / TWO_PI**2 - g.values)) < 1e-10
        res = stft_norm_check(g)
        assert abs(res["lhs"] - res["rhs"]) < 1e-10 * res["rhs"]

    def test_adjointness(self):
        ax2 = AxisGrid(32, 8.0, 2)
        u, F = random_function(ax2, 12), random_phase(ax2, 13)
        lhs = phase_inner(stft(u), F)
        rhs = inner(u, stft_adjoint(F))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_axes_are_not_swapped(self):
        # a window off the diagonal: V u must keep (y1, y2, eta1, eta2) apart
        ax2 = AxisGrid(32, 8.0, 2)
        V = stft(gaussian_window(ax2, y=(1.5, 0.0), eta=(0.0, -2.0))).values
        y, eta = ax2.points(), ax2.dual().points()
        peak = np.unravel_index(np.argmax(np.abs(V)), V.shape)
        assert (y[peak[0]], y[peak[1]], eta[peak[2]], eta[peak[3]]) == pytest.approx(
            (1.5, 0.0, 0.0, -2.0), abs=0.5 * ax2.dx)


class TestDenseReference:
    """The separable transforms against the N x N window matrix."""

    def test_one_dimension_is_bitwise(self, axis):
        u, F = random_function(axis, 14), random_phase(axis, 15)
        assert np.array_equal(stft(u).values, dense_stft(u))
        assert np.array_equal(stft_adjoint(F).values, dense_stft_adjoint(F))

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_two_dimensions_match_the_two_array_formulas_bitwise(self, n):
        # the same products and transforms, in place and a y1 slab at a time
        ax2 = AxisGrid(n, 4.0, 2)
        u, F = random_function(ax2, 20 + n), random_phase(ax2, 21 + n)
        assert np.array_equal(bits(stft(u).values), bits(two_array_stft(u)))
        assert np.array_equal(bits(stft_adjoint(F).values), bits(two_array_stft_adjoint(F)))

    def test_two_dimensions(self):
        ax2 = AxisGrid(16, 4.0, 2)
        u, F = random_function(ax2, 16), random_phase(ax2, 17)
        ref, ref_adj = dense_stft(u), dense_stft_adjoint(F)
        assert np.max(np.abs(stft(u).values - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(stft_adjoint(F).values - ref_adj)) <= 1e-14 * np.max(np.abs(ref_adj))


def traced_peak_mib(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_two_dimensional_memory():
    # one N^2-sized complex array is 16 MiB here: stft holds its result and
    # n^3-sized tables of 0.5 MiB, stft_adjoint only such tables
    ax2 = AxisGrid(32, 8.0, 2)
    assert traced_peak_mib(stft, random_function(ax2, 18)) <= 17.0
    assert traced_peak_mib(stft_adjoint, random_phase(ax2, 19)) <= 2.0


@pytest.mark.parametrize("n, d", [(64, 1), (8, 2)])
def test_inputs_are_not_mutated(n, d):
    ax = AxisGrid(n, 4.0, d)
    u, F = random_function(ax, 25), random_phase(ax, 26)
    u0, F0 = u.values.copy(), F.values.copy()
    stft(u)
    stft_adjoint(F)
    assert np.array_equal(bits(u.values), bits(u0))
    assert np.array_equal(bits(F.values), bits(F0))
