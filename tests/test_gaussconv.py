import dataclasses
import math

import numpy as np
import pytest

import uwq.gaussconv as gaussconv
from uwq.errors import OverflowDomainError, UwqError
from uwq.expansion import PolySymbol
from uwq.gaussconv import (
    CompactDensity,
    SeparableSymbol,
    conv_gauss_direct,
    conv_gauss_via_laplace,
    laplace,
    oscillatory_kernel,
    smooth_cutoff,
    smoothed_gaussian_symbol,
)
from uwq.grid import AxisGrid, FunctionGrid

# The three densities of the gaussconv suite.
DENSITIES = {
    "indicator": CompactDensity.indicator(-1.0, 1.0),
    "bump": CompactDensity.gaussian_bump(-1.0, 1.0),
    "polybump": CompactDensity.poly_times_bump([1.0, 1.0, 1.0], -1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(DENSITIES))
def test_convolution_via_laplace_matches_direct(name):
    S = DENSITIES[name]
    for s in (-2.0, -1.0, -0.25):
        for x in np.linspace(-5.0, 5.0, 11):
            via = conv_gauss_via_laplace(S, s, x)
            direct = conv_gauss_direct(S, s, x)
            assert abs(via - direct) / (1.0 + abs(direct)) <= 1e-8, (s, x)


def test_gauss_legendre_rule_formed_once(monkeypatch):
    calls = []
    real = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or real(n))
    gaussconv._gl_rule.cache_clear()
    CompactDensity.indicator(-1.0, 1.0)
    CompactDensity.gaussian_bump(-1.0, 1.0)
    CompactDensity.poly_times_bump([1.0, 1.0, 1.0], -2.0, 0.5)
    assert calls == [gaussconv.GL_ORDER]
    for a in gaussconv._gl_rule():
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_laplace_route_does_not_revalidate(monkeypatch):
    # bitwise the Laplace transform of e^{s|.|^2} S built as a density, with
    # no second pass through the density's checks
    S = DENSITIES["polybump"]
    want = {}
    for s in (-2.0, -0.25):
        for x in (-3.0, 0.5, 4.0):
            gauss = np.exp(s * np.sum(S.nodes**2, axis=1))
            weighted = dataclasses.replace(S, values=S.values * gauss)
            want[s, x] = complex(math.exp(s * x * x) * laplace(weighted, 2.0 * s * x))
    monkeypatch.setattr(gaussconv, "_box", lambda lo, hi: pytest.fail("box checked again"))
    for (s, x), v in want.items():
        assert conv_gauss_via_laplace(S, s, x) == v


def test_laplace_of_indicator_closed_form():
    S = DENSITIES["indicator"]
    assert laplace(S, 0.5) == pytest.approx(4.0 * math.sinh(0.5), abs=1e-12)
    assert laplace(S, 0.0) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("zeta", [complex(math.nan, 0.0), complex(0.0, math.nan), math.nan,
                                  complex(math.inf, 0.0)])
def test_laplace_rejects_non_finite_points(zeta):
    with pytest.raises(UwqError, match="finite"):
        laplace(DENSITIES["bump"], zeta)


BAD_BOXES = [(-1.0, math.nan), (math.nan, 1.0), (-math.inf, 1.0), (-1.0, math.inf),
             (-1e308, 1e308), (1e308, 1.5e308)]


@pytest.mark.parametrize("lo, hi", BAD_BOXES)
@pytest.mark.parametrize("build", [
    CompactDensity.indicator,
    CompactDensity.gaussian_bump,
    lambda lo, hi: CompactDensity.poly_times_bump([1.0, 2.0], lo, hi),
])
def test_density_rejects_non_finite_box(build, lo, hi):
    with pytest.raises(UwqError, match="must be finite"):
        build(lo, hi)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_rejects_non_finite_weights(bad):
    S = DENSITIES["indicator"]
    weights = S.weights.copy()
    weights[3] = bad
    with pytest.raises(UwqError, match="weights must be finite"):
        CompactDensity(lo=S.lo, hi=S.hi, nodes=S.nodes, weights=weights, values=S.values)
    with pytest.raises(UwqError, match="must be finite"):
        CompactDensity(lo=S.lo, hi=np.array([bad]), nodes=S.nodes, weights=S.weights,
                       values=S.values)


@pytest.mark.parametrize("s, x", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                  (0.0, 0.0), (-1.0, math.nan), (-1.0, math.inf)])
def test_convolution_rejects_non_finite_s_and_x(s, x):
    S = DENSITIES["bump"]
    for conv in (conv_gauss_via_laplace, conv_gauss_direct):
        with pytest.raises(UwqError, match="must be finite"):
            conv(S, s, x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_exponents_raise():
    # each exponent is past exp's float range; the guards report it instead
    # of returning inf or nan
    S = DENSITIES["indicator"]
    with pytest.raises(OverflowDomainError, match="support box"):
        laplace(S, -1000.0)
    with pytest.raises(OverflowDomainError, match="at this"):
        conv_gauss_via_laplace(S, 1.0, 30.0)
    # the Gaussian factor stays bounded here; the Laplace point 2 s x does not
    with pytest.raises(OverflowDomainError, match="support box"):
        conv_gauss_via_laplace(S, -1000.0, 0.5)
    with pytest.raises(OverflowDomainError, match="at this"):
        conv_gauss_direct(S, 1.0, 30.0)


SIGMA, X0, Y0 = 0.22, 0.35, -0.15


def gaussian_chi(n, L=2.5, phase=0.0):
    """exp(-((x-x0)^2 + (y-y0)^2)/(2 sigma^2)) e^{i phase x} on the (x, y) box."""
    return FunctionGrid.from_callable(
        AxisGrid(n, L, 2),
        lambda X, Y: np.exp(-((X - X0) ** 2 + (Y - Y0) ** 2) / (2.0 * SIGMA**2)
                            + 1j * phase * X))


def test_oscillatory_kernel_of_symbol_one():
    # for the symbol 1 the regularized pairing tends to
    # integral chi(x, x) dx = sigma sqrt(pi) e^{-(x0-y0)^2/(4 sigma^2)}
    rep = oscillatory_kernel(PolySymbol.one(), gaussian_chi(256), (0.4, 0.2, 0.1, 0.05, 0.025))
    exact = SIGMA * math.sqrt(math.pi) * math.exp(-((X0 - Y0) ** 2) / (4.0 * SIGMA**2))
    assert abs(rep.extrapolated - exact) <= 1e-8 * exact
    assert all(d1 > d2 for d1, d2 in zip(rep.diffs, rep.diffs[1:]))


def test_oscillatory_kernel_of_symbol_xi():
    # for b = xi the limit is i integral d_x chi(x, y)|_{x=y} dy
    #   = i (x0-y0)/(2 sigma^2) sigma sqrt(pi) e^{-(x0-y0)^2/(4 sigma^2)}
    rep = oscillatory_kernel(PolySymbol.xi(), gaussian_chi(256), (0.4, 0.2, 0.1, 0.05, 0.025))
    exact = (1j * (X0 - Y0) / (2.0 * SIGMA**2) * SIGMA * math.sqrt(math.pi)
             * math.exp(-((X0 - Y0) ** 2) / (4.0 * SIGMA**2)))
    assert abs(rep.extrapolated - exact) <= 1e-8 * abs(exact)
    assert all(d1 > d2 for d1, d2 in zip(rep.diffs, rep.diffs[1:]))


def reference_pairing(terms, chi, deltas):
    """The pairing by explicit phase tables: T(xi) = dx^2 sum_{a,b}
    e^{i x_a xi} chi[a, b] fx(mid_ab) e^{-i y_b xi} fxi(xi) at every node of
    the lattice xi_k = 2 pi k/(M dx), M the smallest power of two >= 2n with
    step <= 0.05, then (M dx)^{-1} sum_k psi(delta xi_k) T(xi_k)."""
    n, dx = chi.axis.n, chi.axis.dx
    M = 2 * n
    while 2.0 * math.pi / (M * dx) > 0.05:
        M *= 2
    xi = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(M, dx))
    pts = chi.axis.points()
    mid = 0.5 * (pts[:, None] + pts[None, :])
    E = np.exp(1j * np.outer(pts, xi))
    T = np.zeros(M, dtype=complex)
    for fx, fxi in terms:
        T += fxi(xi) * np.einsum("ak,ak->k", E, (chi.values * fx(mid)) @ np.conj(E))
    T *= dx * dx
    return [np.sum(smooth_cutoff(dl * xi) * T) / (M * dx) for dl in deltas]


XI_TERMS = {
    "one": (PolySymbol.one(), [(np.ones_like, np.ones_like)]),
    "xi": (PolySymbol.xi(), [(np.ones_like, lambda k: k)]),
    "x xi + xi^2 + 1": (PolySymbol.x() * PolySymbol.xi() + PolySymbol.xi() * PolySymbol.xi()
                        + PolySymbol.one(),
                        [(lambda m: m, lambda k: k), (np.ones_like, lambda k: k * k),
                         (np.ones_like, np.ones_like)]),
    "separable": (SeparableSymbol(fx=lambda m: np.exp(0.5 * m**2), fxi=lambda k: k**2 + 0.5),
                  [(lambda m: np.exp(0.5 * m**2), lambda k: k**2 + 0.5)]),
}


@pytest.mark.parametrize("name", sorted(XI_TERMS))
def test_pairing_matches_phase_table_reference(name):
    b, terms = XI_TERMS[name]
    chi = gaussian_chi(64, phase=0.7)
    deltas = (0.4, 0.2, 0.1)
    rep = oscillatory_kernel(b, chi, deltas)
    ref = reference_pairing(terms, chi, deltas)
    scale = max(abs(v) for v in ref)
    assert scale > 1e-3
    for got, want in zip(rep.values, ref):
        assert abs(got - want) <= 1e-12 * scale, (name, got, want)


def test_pairing_rejects_unresolved_band():
    # pi/dx = 160.8 on the n=256, L=2.5 grid: psi(delta xi) with support
    # 2/delta must end inside it
    chi = gaussian_chi(256)
    oscillatory_kernel(PolySymbol.one(), chi, (0.1, 2.0 / 160.0))
    for deltas, psi in [((0.1, 0.005), None), ((0.1, 2.0 / 161.0), None),
                        ((0.4, 0.025), lambda u: smooth_cutoff(u, inner=2.0, outer=4.5))]:
        with pytest.raises(UwqError, match="band edge"):
            oscillatory_kernel(PolySymbol.one(), chi, deltas, psi=psi)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pairing_rejects_overflowing_integrand():
    # each factor is finite; their product, summed over the chi grid, is not
    huge = SeparableSymbol(fx=lambda m: np.full_like(m, 1e300),
                           fxi=lambda k: np.full_like(k, 1e300))
    with pytest.raises(OverflowDomainError, match="overflowed"):
        oscillatory_kernel(huge, gaussian_chi(64), (0.5, 0.25))


def test_pairing_rejects_callable_symbols():
    with pytest.raises(UwqError, match="PolySymbol or SeparableSymbol"):
        oscillatory_kernel(lambda m, k: np.ones_like(m), gaussian_chi(16), (0.5,))


def test_smoothed_gaussian_symbol_closed_form():
    # the heat flow exp(d_xi^2 / 4) takes xi^2 to xi^2 + 1/2
    l = 0.5
    sym = smoothed_gaussian_symbol(l, PolySymbol.xi() * PolySymbol.xi())
    m, k = np.linspace(-2.0, 2.0, 9), np.linspace(-3.0, 3.0, 7)
    np.testing.assert_allclose(sym.fx(m), np.exp(m**2) * math.sqrt(2.0), rtol=1e-15)
    np.testing.assert_allclose(sym.fxi(k), k**2 + 0.5, rtol=1e-15)
    for l, P in [(1.0, PolySymbol.xi()), (0.5, PolySymbol.x()),
                 (0.5, PolySymbol.xi(0, d=2))]:
        with pytest.raises(UwqError):
            smoothed_gaussian_symbol(l, P)
