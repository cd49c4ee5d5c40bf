import math

import numpy as np
import pytest

from uwq.errors import UwqError
from uwq.expansion import PolySymbol
from uwq.gaussconv import (
    CompactDensity,
    conv_gauss_direct,
    conv_gauss_via_laplace,
    laplace,
    oscillatory_kernel,
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


def test_laplace_of_indicator_closed_form():
    S = DENSITIES["indicator"]
    assert laplace(S, 0.5) == pytest.approx(4.0 * math.sinh(0.5), abs=1e-12)
    assert laplace(S, 0.0) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("zeta", [complex(math.nan, 0.0), complex(0.0, math.nan), math.nan,
                                  complex(math.inf, 0.0)])
def test_laplace_rejects_non_finite_points(zeta):
    with pytest.raises(UwqError, match="finite"):
        laplace(DENSITIES["bump"], zeta)


def test_oscillatory_kernel_of_symbol_one():
    # for the symbol 1 the regularized pairing tends to
    # integral chi(x, x) dx = sigma sqrt(pi) e^{-(x0-y0)^2/(4 sigma^2)}
    sigma, x0, y0 = 0.22, 0.35, -0.15
    chi = FunctionGrid.from_callable(
        AxisGrid(256, 2.5, 2),
        lambda X, Y: np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2.0 * sigma**2)))
    rep = oscillatory_kernel(PolySymbol.one(), chi, (0.4, 0.2, 0.1, 0.05, 0.025))
    exact = sigma * math.sqrt(math.pi) * math.exp(-((x0 - y0) ** 2) / (4.0 * sigma**2))
    assert abs(rep.extrapolated - exact) <= 1e-8 * exact
    assert all(d1 > d2 for d1, d2 in zip(rep.diffs, rep.diffs[1:]))


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
