"""Laplace transforms of compactly supported densities, the Gaussian
convolution identity, the closed-form smoothed symbol for exp(l x^2) P(xi),
and the regularized oscillatory-integral kernel pairing.

Densities are represented by Gauss-Legendre nodes and weights on their
support box; every integrand below is analytic (or endpoint-flat) there, so
quadrature error sits far below the identity tolerances.

The oscillatory pairing samples chi on an n x n grid of step dx, so its
phase e^{i(x_a - y_b) xi} depends only on the difference class a - b.  On
the lattice xi_k = 2 pi k / (M dx), k = -M/2 .. M/2 - 1, with M the smallest
power of two with M >= 2n and a step of at most MAX_XI_STEP, one inverse FFT
of the difference-class sums gives the xi transform exactly at every node:
O(n^2 + M log M) per separable term.  That transform is 2 pi/dx-periodic, so
a ladder is accepted only if psi(delta_min xi) vanishes at the lattice edge
|xi| = pi/dx (the band condition); otherwise the xi sum would alias.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import OverflowDomainError, UwqError
from .expansion import PolySymbol, heat_quarter
from .grid import FunctionGrid

__all__ = [
    "CompactDensity",
    "laplace",
    "conv_gauss_via_laplace",
    "conv_gauss_direct",
    "smooth_cutoff",
    "SeparableSymbol",
    "smoothed_gaussian_symbol",
    "oscillatory_kernel",
    "OscillatoryReport",
]

_EXP_LIMIT = 700.0  # ln(double max) with margin
MAX_XI_STEP = 0.05  # largest xi step of the oscillatory pairing's lattice
GL_ORDER = 200  # Gauss-Legendre nodes per axis of a CompactDensity


@functools.cache
def _gl_rule():
    """The GL_ORDER-node Gauss-Legendre rule on [-1, 1], a constant: formed
    once per process and read-only."""
    xs, ws = np.polynomial.legendre.leggauss(GL_ORDER)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def _gl_nodes(lo: np.ndarray, hi: np.ndarray):
    """Tensor-product Gauss-Legendre nodes/weights on the box [lo, hi]^d."""
    xs, ws = _gl_rule()
    nodes_1d = []
    weights_1d = []
    for a, b in zip(lo, hi):
        nodes_1d.append(0.5 * (b - a) * xs + 0.5 * (a + b))
        weights_1d.append(0.5 * (b - a) * ws)
    mesh = np.meshgrid(*nodes_1d, indexing="ij")
    wmesh = np.meshgrid(*weights_1d, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    weights = np.ones(nodes.shape[0])
    for w in wmesh:
        weights *= w.ravel()
    return nodes, weights


def _box(lo, hi) -> tuple:
    """The support bounds as float arrays; rejects a box that is not finite,
    whose centre or width overflows, or that has no volume."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(hi - lo) & np.isfinite(hi + lo)
    if not np.all(finite):
        raise UwqError(f"support box bounds must be finite with a finite width, "
                       f"got lo={lo.tolist()}, hi={hi.tolist()}")
    if np.any(hi <= lo):
        raise UwqError("support box must have positive volume")
    return lo, hi


@dataclass(frozen=True)
class CompactDensity:
    """An integrable density supported on the box [lo, hi]^d, held as values
    on positive-weight quadrature nodes (zero outside the box by fiat)."""

    lo: np.ndarray
    hi: np.ndarray
    nodes: np.ndarray    # (m, d)
    weights: np.ndarray  # (m,)
    values: np.ndarray   # (m,) complex

    def __post_init__(self):
        lo, hi = _box(self.lo, self.hi)
        w = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(w) & (w > 0)):
            raise UwqError("quadrature weights must be finite and positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    @property
    def d(self) -> int:
        return self.lo.size

    def _with_values(self, values: np.ndarray) -> "CompactDensity":
        """This density's box, nodes and weights, checked when it was built,
        carrying the complex ``values``: no check runs again."""
        out = object.__new__(CompactDensity)
        for name in ("lo", "hi", "nodes", "weights"):
            object.__setattr__(out, name, getattr(self, name))
        object.__setattr__(out, "values", values)
        return out

    @classmethod
    def from_callable(cls, f: Callable, lo, hi) -> "CompactDensity":
        lo, hi = _box(lo, hi)
        nodes, weights = _gl_nodes(lo, hi)
        vals = np.asarray(f(nodes), dtype=complex)
        return cls(lo=lo, hi=hi, nodes=nodes, weights=weights, values=vals)

    @classmethod
    def indicator(cls, lo, hi) -> "CompactDensity":
        return cls.from_callable(lambda y: np.ones(y.shape[0]), lo, hi)

    @classmethod
    def gaussian_bump(cls, lo, hi) -> "CompactDensity":
        """exp(1 - 1/(1 - t^2)) in centred box coordinates; all derivatives
        vanish at the boundary."""
        lo_a, hi_a = _box(lo, hi)
        mid, half = 0.5 * (lo_a + hi_a), 0.5 * (hi_a - lo_a)

        def f(y):
            t2 = np.sum(((y - mid) / half) ** 2, axis=-1)
            out = np.zeros(y.shape[0])
            ok = t2 < 1.0
            out[ok] = np.exp(1.0 - 1.0 / (1.0 - t2[ok]))
            return out

        return cls.from_callable(f, lo, hi)

    @classmethod
    def poly_times_bump(cls, coeffs: Sequence[float], lo, hi) -> "CompactDensity":
        """(sum_k c_k y^k) times the bump, dimension 1."""
        bump = cls.gaussian_bump(lo, hi)
        if bump.d != 1:
            raise UwqError("poly_times_bump is one-dimensional")
        poly = np.polynomial.polynomial.polyval(bump.nodes[:, 0], np.asarray(coeffs))
        return replace(bump, values=bump.values * poly)


def laplace(S: CompactDensity, zeta) -> complex:
    """L(S)(zeta) = integral e^{-zeta . y} S(y) dy over the support box;
    entire in zeta because the support is compact.  Overflowing exponents
    raise instead of clamping."""
    z = np.atleast_1d(np.asarray(zeta, dtype=complex))
    if z.size != S.d:
        raise UwqError("zeta dimension mismatch")
    if not np.all(np.isfinite(z)):
        raise UwqError("Laplace point must be finite")
    expo = -S.nodes @ z
    if np.max(expo.real) > _EXP_LIMIT:
        raise OverflowDomainError("e^{-zeta.y} overflows on the support box")
    return complex(np.sum(S.weights * S.values * np.exp(expo)))


def _check_s_x(S: CompactDensity, s: float, x) -> np.ndarray:
    if not math.isfinite(s) or s == 0.0:
        raise UwqError(f"s must be finite and nonzero, got {s!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != S.d:
        raise UwqError("x dimension mismatch")
    if not np.all(np.isfinite(x)):
        raise UwqError("x must be finite")
    return x


def conv_gauss_via_laplace(S: CompactDensity, s: float, x) -> complex:
    """(S * e^{s|.|^2})(x) through the Laplace route:
    e^{s|x|^2} L(e^{s|.|^2} S)(2 s x), with e^{s|.|^2} S on S's own nodes
    and weights."""
    x = _check_s_x(S, s, x)
    xsq = float(x @ x)
    gauss_weight = s * np.sum(S.nodes**2, axis=1)
    expo_bound = s * xsq + np.max(gauss_weight + np.abs(2.0 * s * (S.nodes @ x)))
    if expo_bound > _EXP_LIMIT or s * xsq > _EXP_LIMIT:
        raise OverflowDomainError("Gaussian factor overflows at this (s, x)")
    weighted = S._with_values(S.values * np.exp(gauss_weight))
    return complex(math.exp(s * xsq) * laplace(weighted, (2.0 * s * x).astype(complex)))


def conv_gauss_direct(S: CompactDensity, s: float, x) -> complex:
    """Brute-force quadrature of integral S(y) e^{s|x-y|^2} dy, the
    independent oracle for the Laplace route."""
    x = _check_s_x(S, s, x)
    expo = s * np.sum((x[None, :] - S.nodes) ** 2, axis=1)
    if np.max(expo) > _EXP_LIMIT:
        raise OverflowDomainError("Gaussian factor overflows at this (s, x)")
    return complex(np.sum(S.weights * S.values * np.exp(expo)))


def _bump_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    out = np.zeros_like(t)
    pos = t > 0
    one = t >= 1
    mid = pos & ~one
    e1 = np.exp(-1.0 / t[mid])
    e2 = np.exp(-1.0 / (1.0 - t[mid]))
    out[mid] = e1 / (e1 + e2)
    out[one] = 1.0
    return out


def smooth_cutoff(xi: np.ndarray, inner: float = 1.0, outer: float = 2.0) -> np.ndarray:
    """Smooth compactly supported plateau: 1 for |xi| <= inner, 0 for
    |xi| >= outer, C-infinity splice in between."""
    r = np.abs(np.asarray(xi, dtype=float))
    return _bump_step((outer - r) / (outer - inner))


@dataclass(frozen=True)
class SeparableSymbol:
    """b(x, xi) = fx(x) * fxi(xi), the separable fast path for the
    oscillatory pairing."""

    fx: Callable
    fxi: Callable


def smoothed_gaussian_symbol(l: float, P: PolySymbol) -> SeparableSymbol:
    """Closed-form Gaussian smoothing of the one-dimensional symbol
    exp(l x^2) P(xi):

        (1-l)^{-1/2} exp(l x^2/(1-l)) * (heat-flow of P in xi)(xi),

    the eta-integral done exactly through Gaussian moments."""
    if l >= 1.0:
        raise UwqError("need l < 1 for the Gaussian smoothing to exist")
    if P.d != 1:
        raise UwqError("the oscillatory pairing is one-dimensional")
    if P.x_degree() > 0:
        raise UwqError("P must be a polynomial in xi only")
    pref = (1.0 - l) ** -0.5
    smoothed = heat_quarter(P, +1)  # x-part of P is constant, so this is the xi heat flow
    return SeparableSymbol(fx=lambda m: pref * np.exp(l * m**2 / (1.0 - l)),
                           fxi=lambda k: smoothed.evaluate((np.zeros(1),), (k,)))


@dataclass(frozen=True)
class OscillatoryReport:
    deltas: tuple
    values: tuple
    diffs: tuple
    extrapolated: complex


def _symbol_terms(b):
    """Represent the symbol as a list of separable (fx, fxi) pairs."""
    if isinstance(b, SeparableSymbol):
        return [(b.fx, b.fxi)]
    if isinstance(b, PolySymbol):
        if b.d != 1:
            raise UwqError("oscillatory pairing is one-dimensional")
        terms = []
        for (xe, ke), c in b.sorted_terms():
            px, pk = xe[0], ke[0]
            terms.append((lambda m, p=px: m**p,
                          lambda k, p=pk, cc=c: cc * k**p))
        return terms
    raise UwqError("symbol must be a PolySymbol or SeparableSymbol")


def oscillatory_kernel(b, chi: FunctionGrid, delta_list: Sequence[float],
                       psi: Callable = None) -> OscillatoryReport:
    """Pairing of the regularized quantization kernel with a test function:

        (2 pi)^{-1} intg e^{i(x-y)xi} psi(delta xi) b((x+y)/2, xi)
                        chi(x, y) dx dy dxi

    for each delta of a strictly decreasing ladder, plus an extrapolation to
    delta -> 0 by one Aitken step on the last two differences.  ``psi`` is
    a smooth compactly supported plateau equal to 1 near 0; its support
    bounds the xi quadrature exactly, which is what makes fixed boxes sound.

    chi is sampled on a two-dimensional (x, y) grid of step dx; b is a
    PolySymbol in (x, xi) or a SeparableSymbol.  Per separable term
    fx(m) fxi(xi), the difference-class sums S[r] = sum_{a-b=r} chi[a, b]
    fx(mid_ab) give T(xi_k) = fxi(xi_k) dx^2 sum_r S[r] e^{2 pi i r k/M}, one
    inverse FFT on the lattice xi_k = 2 pi k/(M dx) (see the module
    docstring for M); the xi integral is the lattice sum, O(n^2 + M log M)
    in all.  UwqError if psi(delta_min xi) is nonzero at |xi| = pi/dx, where
    the periodic T would alias.
    """
    if chi.axis.d != 2:
        raise UwqError("chi must be sampled on a 2-d (x, y) grid")
    deltas = [float(v) for v in delta_list]
    if any(b2 >= b1 for b1, b2 in zip(deltas, deltas[1:])) or not deltas:
        raise UwqError("delta ladder must be strictly decreasing")
    if psi is None:
        psi = smooth_cutoff
    terms = _symbol_terms(b)
    n, dx = chi.axis.n, chi.axis.dx
    edge = math.pi / dx
    if np.any(psi(deltas[-1] * np.array([-edge, edge])) != 0.0):
        raise UwqError(f"psi(delta xi) at delta={deltas[-1]:g} does not vanish at the "
                       f"grid's xi band edge pi/dx = {edge:.6g}; use a larger delta or "
                       f"a finer chi grid")
    M = 2 * n  # the smallest power of two >= 2n with a step <= MAX_XI_STEP
    while M * dx * MAX_XI_STEP < 2.0 * math.pi:
        M *= 2
    xi = 2.0 * math.pi * np.fft.fftfreq(M, dx)
    pts = chi.axis.points()
    mid = 0.5 * (pts[:, None] + pts[None, :])
    ar = np.arange(n)
    cls = ((ar[:, None] - ar[None, :]) % M).ravel()

    T = np.zeros(M, dtype=complex)
    for fx, fxi in terms:
        Wt = (chi.values * fx(mid)).ravel()
        S = np.bincount(cls, Wt.real, M) + 1j * np.bincount(cls, Wt.imag, M)
        T += fxi(xi) * np.fft.ifft(S)
    T *= M * dx * dx

    if not np.all(np.isfinite(T)):
        raise OverflowDomainError("oscillatory integrand overflowed")

    values = []
    for dl in deltas:
        w = psi(dl * xi)
        values.append(complex(np.sum(w * T) / (M * dx)))
    diffs = [abs(v2 - v1) for v1, v2 in zip(values, values[1:])]
    extrap = values[-1]
    if len(diffs) >= 2 and diffs[-2] > 0 and diffs[-1] > 0:
        denom = diffs[-2] - diffs[-1]
        if abs(denom) > 1e-300:
            step = (values[-1] - values[-2]) * diffs[-1] / denom
            extrap = values[-1] + step
    return OscillatoryReport(
        deltas=tuple(deltas),
        values=tuple(values),
        diffs=tuple(diffs),
        extrapolated=extrap,
    )
