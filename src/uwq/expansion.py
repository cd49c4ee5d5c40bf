"""Exact multi-index polynomial calculus on phase space and the finite
asymptotic-expansion identities it supports.

For polynomial symbols every expansion below terminates, so the calculus is
exact: Gaussian smoothing is the nilpotent heat flow exp(Laplacian/4), the
Anti-Wick -> Weyl expansion reproduces it term by term, and the inverse
recursion inverts it.  Coefficients are complex floats; factorials and
Gaussian moments are exact (moments are dyadic rationals (k-1)!!/2^(k/2)).
Comparisons absorb float rounding at relative 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import SaturationError, UwqError
from .weights import WeightSequence, assoc_fn

__all__ = [
    "MultiIndex",
    "PolySymbol",
    "FormalExpansion",
    "ClassParams",
    "multi_factorial",
    "compositions",
    "poly_derive",
    "poly_allclose",
    "moment_coeff",
    "gaussian_moment",
    "aw_to_weyl_terms",
    "heat_quarter",
    "inverse_aw_recursion",
    "InverseAwResult",
    "tau_change_terms",
    "transpose_terms",
    "compose_terms",
    "gamma_norm_estimate",
    "expansion_partial_sum",
]

MultiIndex = Tuple[int, ...]


def _as_midx(alpha, d: int) -> MultiIndex:
    if isinstance(alpha, int):
        if d != 1:
            raise UwqError("scalar exponent only valid in dimension 1")
        alpha = (alpha,)
    t = tuple(int(a) for a in alpha)
    if len(t) != d or any(a < 0 for a in t):
        raise UwqError(f"multi-index {alpha!r} invalid for dimension {d}")
    return t


def multi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def compositions(total: int, slots: int) -> Iterable[MultiIndex]:
    """All tuples of ``slots`` non-negative ints summing to ``total``."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, slots - 1):
            yield (head,) + rest


class PolySymbol:
    """Polynomial in (x, xi) as a map (x-exponents, xi-exponents) -> coeff.

    Terms with exactly zero coefficient are never stored; iteration order is
    canonical (graded, then lexicographic) so serialization is deterministic.
    Instances are treated as immutable values.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Optional[Dict] = None):
        if d < 1:
            raise UwqError("dimension must be >= 1")
        self.d = d
        clean: Dict[Tuple[MultiIndex, MultiIndex], complex] = {}
        for (xe, ke), c in (terms or {}).items():
            xe = _as_midx(xe, d)
            ke = _as_midx(ke, d)
            c = complex(c)
            if c != 0:
                clean[(xe, ke)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, d: int = 1) -> "PolySymbol":
        return cls(d, {})

    @classmethod
    def one(cls, d: int = 1) -> "PolySymbol":
        return cls(d, {(((0,) * d), ((0,) * d)): 1.0})

    @classmethod
    def monomial(cls, d: int, xexp, kexp, coeff=1.0) -> "PolySymbol":
        return cls(d, {(_as_midx(xexp, d), _as_midx(kexp, d)): coeff})

    @classmethod
    def x(cls, i: int = 0, d: int = 1) -> "PolySymbol":
        e = [0] * d
        e[i] = 1
        return cls.monomial(d, tuple(e), (0,) * d)

    @classmethod
    def xi(cls, i: int = 0, d: int = 1) -> "PolySymbol":
        e = [0] * d
        e[i] = 1
        return cls.monomial(d, (0,) * d, tuple(e))

    # -- algebra -----------------------------------------------------------
    def _check(self, other: "PolySymbol"):
        if self.d != other.d:
            raise UwqError("dimension mismatch")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PolySymbol(self.d, {(((0,) * self.d), ((0,) * self.d)): other})
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PolySymbol(self.d, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol(self.d, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, PolySymbol) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return PolySymbol(self.d, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out: Dict = {}
        for (xa, ka), ca in self.terms.items():
            for (xb, kb), cb in other.terms.items():
                key = (
                    tuple(i + j for i, j in zip(xa, xb)),
                    tuple(i + j for i, j in zip(ka, kb)),
                )
                out[key] = out.get(key, 0.0) + ca * cb
        return PolySymbol(self.d, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, PolySymbol)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.d, tuple(self.sorted_terms())))

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(xe) + sum(ke) for xe, ke in self.terms)

    def x_degree(self) -> int:
        return max((sum(xe) for xe, _ in self.terms), default=-1)

    def xi_degree(self) -> int:
        return max((sum(ke) for _, ke in self.terms), default=-1)

    def sorted_terms(self) -> List[Tuple[Tuple[MultiIndex, MultiIndex], complex]]:
        def key(item):
            (xe, ke), _ = item
            return (sum(xe) + sum(ke), xe, ke)

        return sorted(self.terms.items(), key=key)

    def reflect_xi(self) -> "PolySymbol":
        """Substitute xi -> -xi."""
        return PolySymbol(
            self.d,
            {(xe, ke): c * (-1.0) ** sum(ke) for (xe, ke), c in self.terms.items()},
        )

    # -- evaluation --------------------------------------------------------
    def evaluate(self, xs, kss):
        """Evaluate at broadcastable coordinate arrays (xs: d of them for
        position, kss: d for frequency)."""
        xs = tuple(np.asarray(v) for v in xs)
        kss = tuple(np.asarray(v) for v in kss)
        if len(xs) != self.d or len(kss) != self.d:
            raise UwqError("coordinate count must match dimension")
        out = 0.0
        for (xe, ke), c in self.terms.items():
            term = c
            for v, e in zip(xs, xe):
                if e:
                    term = term * v**e
            for v, e in zip(kss, ke):
                if e:
                    term = term * v**e
            out = out + term
        return out + np.zeros(np.broadcast_shapes(*(v.shape for v in xs + kss)), complex)

    def __repr__(self):
        if not self.terms:
            return "PolySymbol(0)"
        bits = []
        for (xe, ke), c in self.sorted_terms():
            mono = "".join(
                [f"x{i}^{e}" for i, e in enumerate(xe) if e]
                + [f"k{i}^{e}" for i, e in enumerate(ke) if e]
            )
            bits.append(f"({c:g})*{mono or '1'}")
        return "PolySymbol[" + " + ".join(bits) + "]"


def poly_allclose(p: PolySymbol, q: PolySymbol, rtol: float = 1e-12, atol: float = 0.0) -> bool:
    """Coefficientwise comparison with relative tolerance against the
    largest coefficient of either side."""
    if p.d != q.d:
        return False
    keys = set(p.terms) | set(q.terms)
    scale = max(
        [abs(c) for c in p.terms.values()] + [abs(c) for c in q.terms.values()] + [0.0]
    )
    bound = max(atol, rtol * scale)
    return all(abs(p.terms.get(k, 0.0) - q.terms.get(k, 0.0)) <= bound for k in keys)


def poly_derive(p: PolySymbol, alpha=None, beta=None, convention: str = "partial") -> PolySymbol:
    """partial_xi^alpha partial_x^beta p, exact on monomials.

    ``convention="D"`` multiplies by i^{-(|alpha|+|beta|)}, matching
    D = -i partial.
    """
    d = p.d
    alpha = _as_midx(alpha if alpha is not None else (0,) * d, d)
    beta = _as_midx(beta if beta is not None else (0,) * d, d)
    out: Dict = {}
    for (xe, ke), c in p.terms.items():
        if any(e < a for e, a in zip(ke, alpha)) or any(e < b for e, b in zip(xe, beta)):
            continue
        coeff = c
        for e, a in zip(ke, alpha):
            for j in range(a):
                coeff *= e - j
        for e, b in zip(xe, beta):
            for j in range(b):
                coeff *= e - j
        key = (
            tuple(e - b for e, b in zip(xe, beta)),
            tuple(e - a for e, a in zip(ke, alpha)),
        )
        out[key] = out.get(key, 0.0) + coeff
    res = PolySymbol(d, out)
    if convention == "D":
        res = res * (-1j) ** (sum(alpha) + sum(beta))
    elif convention != "partial":
        raise UwqError("convention must be 'partial' or 'D'")
    return res


def gaussian_moment(k: int) -> float:
    """pi^{-1/2} integral t^k e^{-t^2} dt: 0 for odd k, (k-1)!!/2^{k/2} for
    even k, via the exact recurrence mu_k = (k-1)/2 * mu_{k-2}."""
    if k < 0:
        raise UwqError("moment order must be non-negative")
    if k % 2 == 1:
        return 0.0
    mu = 1.0
    for j in range(2, k + 1, 2):
        mu *= (j - 1) / 2.0
    return mu


def moment_coeff(alpha, beta, d: Optional[int] = None) -> float:
    """pi^{-d} integral eta^alpha y^beta e^{-|y|^2-|eta|^2} dy deta, the
    product of one-dimensional Gaussian moments; zero when any component is
    odd."""
    if d is None:
        d = len(alpha) if not isinstance(alpha, int) else 1
    alpha = _as_midx(alpha, d)
    beta = _as_midx(beta, d)
    out = 1.0
    for a in alpha + beta:
        out *= gaussian_moment(a)
        if out == 0.0:
            return 0.0
    return out


def _even_pairs(j: int, d: int) -> Iterable[Tuple[MultiIndex, MultiIndex]]:
    """All (alpha, beta) with every component even and |alpha + beta| = 2j,
    enumerated via half-indices."""
    for half in compositions(j, 2 * d):
        yield tuple(2 * a for a in half[:d]), tuple(2 * b for b in half[d:])


def _heat_slice(p: PolySymbol, l: int) -> PolySymbol:
    """sum_{|alpha+beta|=2l} c_{alpha,beta}/(alpha! beta!) d_xi^alpha d_x^beta p."""
    out = PolySymbol.zero(p.d)
    for alpha, beta in _even_pairs(l, p.d):
        c = moment_coeff(alpha, beta, p.d)
        dp = poly_derive(p, alpha, beta)
        if not dp.is_zero():
            out = out + dp * (c / (multi_factorial(alpha) * multi_factorial(beta)))
    return out


def aw_to_weyl_terms(a: PolySymbol, J: Optional[int] = None) -> "FormalExpansion":
    """Expansion terms p_0 = a and p_j = sum over derivative pairs of total
    order 2j weighted by Gaussian moments; the full list reproduces the
    Gaussian smoothing of a exactly once J >= deg(a)/2.

    Odd total orders contribute nothing because odd moments vanish, so only
    even multi-indices are enumerated.
    """
    if J is None:
        J = max(0, (a.degree() + 1) // 2)
    elif J < 0:
        raise UwqError(f"expansion order J must be >= 0, got {J}")
    return FormalExpansion([a] + [_heat_slice(a, j) for j in range(1, J + 1)])


def heat_quarter(a: PolySymbol, sign: int = +1) -> PolySymbol:
    """exp(sign * Laplacian/4) on polynomials, where the Laplacian runs over
    all 2d phase variables; terminates by nilpotency.  sign=+1 is exact
    Gaussian smoothing with kernel pi^{-d} e^{-|x|^2-|xi|^2}; sign=-1 its
    exact inverse on polynomials."""
    if sign not in (+1, -1):
        raise UwqError("sign must be +1 or -1")
    d = a.d
    ex = [0] * d
    total = PolySymbol.zero(d)
    term = a
    k = 0
    while not term.is_zero():
        total = total + term
        k += 1
        lap = PolySymbol.zero(d)
        for i in range(d):
            ax = [0] * d
            ax[i] = 2
            lap = lap + poly_derive(term, None, tuple(ax))   # d_x_i^2
            lap = lap + poly_derive(term, tuple(ax), None)   # d_xi_i^2
        term = lap * (sign / (4.0 * k))
    return total


@dataclass(frozen=True)
class InverseAwResult:
    primed: Dict[Tuple[int, int], PolySymbol]
    bj: List[PolySymbol]
    a: PolySymbol


def inverse_aw_recursion(b: PolySymbol, J: Optional[int] = None) -> InverseAwResult:
    """Triangular table p'_{k,j} with p'_{0,0} = b, built from the recursion
    p'_{k,j} = sum_{l>=1} (order-l heat slice of p'_{k-l,j-1}), then
    b_j = sum_k p'_{k,j} and a = sum_j (-1)^j b_j.

    For polynomials every sum is finite (no cutoffs needed) and the result
    equals the inverse heat flow of b exactly.
    """
    K = max(0, (b.degree() + 1) // 2)
    if J is None:
        J = K
    elif J < 0:
        raise UwqError(f"recursion order J must be >= 0, got {J}")
    primed: Dict[Tuple[int, int], PolySymbol] = {(0, 0): b}
    for k in range(1, K + 1):
        primed[(k, 0)] = PolySymbol.zero(b.d)
    for j in range(1, J + 1):
        for k in range(0, j):
            primed[(k, j)] = PolySymbol.zero(b.d)
        for k in range(j, K + 1):
            acc = PolySymbol.zero(b.d)
            for l in range(1, k - j + 2):
                prev = primed.get((k - l, j - 1))
                if prev is None or prev.is_zero():
                    continue
                acc = acc + _heat_slice(prev, l)
            primed[(k, j)] = acc
    bj = [
        sum(
            (primed[(k, j)] for k in range(j, K + 1)),
            start=PolySymbol.zero(b.d),
        )
        for j in range(0, J + 1)
    ]
    a = PolySymbol.zero(b.d)
    for j, term in enumerate(bj):
        a = a + term * ((-1.0) ** j)
    return InverseAwResult(primed=primed, bj=bj, a=a)


def _finite_tau(tau: float) -> float:
    """The ordering parameter tau of Op_tau as a float (Weyl 1/2,
    Kohn-Nirenberg 0); every quantization entry point reads tau through
    here, so a non-finite value is rejected instead of spreading NaN."""
    tv = float(tau)
    if not math.isfinite(tv):
        raise UwqError(f"tau must be finite, got {tau!r}")
    return tv


def tau_change_terms(a: PolySymbol, tau1: float, tau: float) -> PolySymbol:
    """Symbol b with Op_tau(b) = Op_tau1(a) for polynomial symbols:
    b = sum_beta (tau1 - tau)^{|beta|} / beta! * d_xi^beta D_x^beta a,
    a finite sum.  Sign convention (D = -i d/dx) is pinned by the kernel
    round-trip oracle in the quant tests."""
    t = _finite_tau(tau1) - _finite_tau(tau)
    d = a.d
    out = PolySymbol.zero(d)
    max_order = min(a.x_degree(), a.xi_degree())
    for m in range(0, max(0, max_order) + 1):
        for beta in compositions(m, d):
            dp = poly_derive(a, beta, beta, convention="partial")
            if dp.is_zero():
                continue
            coeff = (t**m if m else 1.0) * (-1j) ** m / multi_factorial(beta)
            out = out + dp * coeff
    return out


def transpose_terms(a: PolySymbol, tau: float) -> PolySymbol:
    """Symbol of the plain transpose: apply (-d_xi)^alpha D_x^alpha to a,
    weight by (1-2 tau)^{|alpha|}/alpha!, sum, then substitute xi -> -xi."""
    tv = _finite_tau(tau)
    d = a.d
    out = PolySymbol.zero(d)
    max_order = min(a.x_degree(), a.xi_degree())
    for m in range(0, max(0, max_order) + 1):
        for alpha in compositions(m, d):
            dp = poly_derive(a, alpha, alpha, convention="partial")
            if dp.is_zero():
                continue
            # (-d_xi)^alpha D_x^alpha = (-1)^{|alpha|} (-i)^{|alpha|} d^alpha d^alpha
            coeff = ((1.0 - 2.0 * tv) ** m if m else 1.0) * (1j) ** m / multi_factorial(alpha)
            out = out + dp * coeff
    return out.reflect_xi()


def compose_terms(a: PolySymbol, b: PolySymbol) -> PolySymbol:
    """Symbol f with f(x,D) = a(x,D) b(x,D) for polynomial symbols:
    f = sum_alpha (1/alpha!) d_xi^alpha a * D_x^alpha b, a finite Leibniz
    sum."""
    if a.d != b.d:
        raise UwqError("dimension mismatch")
    d = a.d
    out = PolySymbol.zero(d)
    max_order = min(a.xi_degree(), b.x_degree())
    for m in range(0, max(0, max_order) + 1):
        for alpha in compositions(m, d):
            da = poly_derive(a, alpha, None)
            if da.is_zero():
                continue
            db = poly_derive(b, None, alpha, convention="D")
            if db.is_zero():
                continue
            out = out + (da * db) * (1.0 / multi_factorial(alpha))
    return out


@dataclass(frozen=True)
class ClassParams:
    """Parameters of the weighted symbol seminorm: decay exponent rho in
    (0, 1], scale h > 0, weight argument m > 0, and the governing weight
    sequence.  The derivative-denominator sequences are M_p^rho by default
    (a documented choice, not forced by anything upstream)."""

    rho: float
    h: float
    m: float
    weight: WeightSequence

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise UwqError("rho must lie in (0, 1]")
        if self.h <= 0 or self.m <= 0:
            raise UwqError("h and m must be positive")

    def log_a(self, p: int) -> float:
        """ln A_p with A_p = M_p^rho."""
        return self.rho * float(self.weight.log_values[p])


def gamma_norm_estimate(a: PolySymbol, params: ClassParams, box: float,
                        points_per_axis: int = 121) -> float:
    """Sampled sup over derivative pairs and over [-box, box]^{2d} of

        |D_xi^alpha D_x^beta a| <(x,xi)>^{rho(|a|+|b|)} e^{-M(m|xi|)-M(m|x|)}
        / (h^{|a|+|b|} A_|a| A_|b|).

    Finite for every polynomial; saturation of the associated function
    raises (enlarge the weight truncation)."""
    d = a.d
    ax = np.linspace(-box, box, points_per_axis)
    mesh = np.meshgrid(*([ax] * (2 * d)), indexing="ij")
    xs, ks = tuple(mesh[:d]), tuple(mesh[d:])
    jap = np.sqrt(1.0 + sum(m**2 for m in mesh))
    xnorm = np.sqrt(sum(m**2 for m in xs))
    knorm = np.sqrt(sum(m**2 for m in ks))

    def m_of(r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r)
        positive = r > 0.0
        res = assoc_fn(params.weight, params.m * r[positive])
        if np.any(res.saturated):
            raise SaturationError("gamma-norm weight saturated; enlarge truncation")
        out[positive] = res.value
        return out

    damp = np.exp(-m_of(knorm) - m_of(xnorm))
    best = 0.0
    for tot_a in range(0, a.xi_degree() + 1):
        for alpha in compositions(tot_a, d):
            for tot_b in range(0, a.x_degree() + 1):
                for beta in compositions(tot_b, d):
                    dp = poly_derive(a, alpha, beta)
                    if dp.is_zero():
                        continue
                    vals = np.abs(dp.evaluate(xs, ks))
                    order = tot_a + tot_b
                    weight = (
                        jap ** (params.rho * order)
                        * damp
                        / (params.h**order
                           * math.exp(params.log_a(tot_a) + params.log_a(tot_b)))
                    )
                    best = max(best, float(np.max(vals * weight)))
    return best


@dataclass(frozen=True)
class FormalExpansion:
    """Ordered expansion terms p_0, p_1, ..., p_J."""

    terms: List[PolySymbol]

    def __post_init__(self):
        if not self.terms:
            raise UwqError("expansion needs at least one term")
        d = self.terms[0].d
        if any(t.d != d for t in self.terms):
            raise UwqError("mixed dimensions in expansion")

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, j):
        return self.terms[j]


def expansion_partial_sum(e: FormalExpansion, N: int) -> PolySymbol:
    """Exact sum of the terms with index < N."""
    if N < 0 or N > len(e.terms):
        raise UwqError(f"partial sum order {N} exceeds stored terms")
    d = e.terms[0].d
    out = PolySymbol.zero(d)
    for t in e.terms[:N]:
        out = out + t
    return out
