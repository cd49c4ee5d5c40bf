"""Exact multi-index polynomial calculus on phase space and the finite
asymptotic-expansion identities it supports.

For polynomial symbols every expansion below terminates, so the calculus is
exact: Gaussian smoothing is the nilpotent heat flow exp(Laplacian/4), the
Anti-Wick -> Weyl expansion reproduces it term by term, and the inverse
recursion inverts it.  Coefficients are complex floats; factorials and
Gaussian moments are exact (moments are dyadic rationals (k-1)!!/2^(k/2)).
Comparisons absorb float rounding at relative 1e-12.

Validation happens once, at the edge.  The public ``PolySymbol(d, terms)``
checks every key; the algebra (``+``, ``-``, ``*``, ``reflect_xi``,
``poly_derive``) builds its results from keys it made itself out of valid
ones, so it skips that check and only drops exact zeros.  The heat flow,
the heat slices, the tau-change, the composition and the gamma-norm estimate
enumerate only the derivatives inside the symbol's degree box
(``_degree_box``) and take only those that some single term survives
(``_survives``); every other one differentiates the symbol to zero.
"""

from __future__ import annotations

import math
import numbers
import operator
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
    """``alpha`` as a d-tuple of non-negative Python ints.  Only Python and
    numpy integers are exponents (a bare one in dimension 1); bools, floats,
    strings and anything else raise UwqError instead of being truncated."""
    if isinstance(alpha, (int, np.integer)):
        if d != 1:
            raise UwqError("scalar exponent only valid in dimension 1")
        alpha = (alpha,)
    try:
        alpha = tuple(alpha)
        t = tuple(map(operator.index, alpha))
    except TypeError:
        raise UwqError(f"multi-index {alpha!r} must hold integers") from None
    if len(t) != d or min(t, default=0) < 0 or bool in map(type, alpha):
        raise UwqError(f"multi-index {alpha!r} invalid for dimension {d}")
    return t


def multi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def compositions(total: int, slots: int) -> Iterable[MultiIndex]:
    """All tuples of ``slots`` non-negative ints summing to ``total``."""
    return _capped_compositions(total, (total,) * slots)


def _capped_compositions(total: int, caps: MultiIndex) -> Iterable[MultiIndex]:
    """The tuples of ``compositions(total, len(caps))`` with every part at
    most its cap, in the same (lexicographic) order."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    room = sum(caps[1:])
    for head in range(max(0, total - room), min(total, caps[0]) + 1):
        for rest in _capped_compositions(total - head, caps[1:]):
            yield (head,) + rest


def _scalar(other):
    """A scalar operand of the algebra as a Python complex, or None for a
    non-number (the operator then returns NotImplemented).  A bool, Python
    or numpy, raises ``UwqError`` as it does in the constructor."""
    if isinstance(other, (bool, np.bool_)):
        raise UwqError(f"scalar {other!r} must be a number, not a bool")
    if not isinstance(other, numbers.Number):
        return None
    return complex(other)


class PolySymbol:
    """Polynomial in (x, xi) as a map (x-exponents, xi-exponents) -> coeff.

    Terms with exactly zero coefficient are never stored.  ``terms`` keeps
    insertion order, which fixes the order of later sums; ``sorted_terms``
    gives the canonical (graded, then lexicographic) order for output.
    Instances are treated as immutable values.

    ``PolySymbol(d, terms)`` validates: d is an integer >= 1, every key
    holds two d-tuples of non-negative integers (``_as_midx``) and every
    coefficient is a number (not a bool).  Keys that name the same monomial,
    such as ``1`` and ``(1,)`` in dimension 1, have their coefficients
    summed.  Results of
    the algebra are built from keys the algebra made out of valid ones and
    go through ``_trusted``, which only drops exact zeros.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Optional[Dict] = None):
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise UwqError(f"dimension must be an integer >= 1, got {d!r}")
        d = int(d)
        self.d = d
        clean: Dict[Tuple[MultiIndex, MultiIndex], complex] = {}
        for (xe, ke), c in (terms or {}).items():
            key = (_as_midx(xe, d), _as_midx(ke, d))
            if isinstance(c, bool) or not isinstance(c, numbers.Number):
                raise UwqError(f"coefficient {c!r} of {key} must be a number")
            c = complex(c)
            clean[key] = clean[key] + c if key in clean else c
        self.terms = {k: c for k, c in clean.items() if c != 0}

    @classmethod
    def _trusted(cls, d: int, terms: Dict) -> "PolySymbol":
        """A symbol on keys the algebra made from valid keys: no check, and
        only exact zeros are dropped (insertion order is kept)."""
        self = object.__new__(cls)
        self.d = d
        self.terms = {k: c for k, c in terms.items() if c != 0}
        return self

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
        if not isinstance(other, PolySymbol):
            other = _scalar(other)
            if other is None:
                return NotImplemented
            other = PolySymbol._trusted(self.d, {(((0,) * self.d), ((0,) * self.d)): other})
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PolySymbol._trusted(self.d, out)

    __radd__ = __add__

    def __neg__(self):
        return PolySymbol._trusted(self.d, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PolySymbol):
            other = _scalar(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _scalar(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PolySymbol):
            other = _scalar(other)
            if other is None:
                return NotImplemented
            return PolySymbol._trusted(self.d, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out: Dict = {}
        add = operator.add
        for (xa, ka), ca in self.terms.items():
            for (xb, kb), cb in other.terms.items():
                key = (tuple(map(add, xa, xb)), tuple(map(add, ka, kb)))
                out[key] = out.get(key, 0.0) + ca * cb
        return PolySymbol._trusted(self.d, out)

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
        return PolySymbol._trusted(
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


def poly_derive(p: PolySymbol, alpha=None, beta=None) -> PolySymbol:
    """partial_xi^alpha partial_x^beta p, exact on monomials."""
    d = p.d
    alpha = _as_midx(alpha if alpha is not None else (0,) * d, d)
    beta = _as_midx(beta if beta is not None else (0,) * d, d)
    out: Dict = {}
    ge, sub = operator.ge, operator.sub
    for (xe, ke), c in p.terms.items():
        if not (all(map(ge, ke, alpha)) and all(map(ge, xe, beta))):
            continue
        coeff = c
        for e, a in zip(ke, alpha):
            for j in range(a):
                coeff *= e - j
        for e, b in zip(xe, beta):
            for j in range(b):
                coeff *= e - j
        key = (tuple(map(sub, xe, beta)), tuple(map(sub, ke, alpha)))
        out[key] = out.get(key, 0.0) + coeff
    return PolySymbol._trusted(d, out)


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


def _even_pairs(j: int, kcap: MultiIndex, xcap: MultiIndex
                ) -> Iterable[Tuple[MultiIndex, MultiIndex]]:
    """All (alpha, beta) with every component even, |alpha + beta| = 2j,
    alpha <= kcap and beta <= xcap componentwise, enumerated via
    half-indices in the order of ``compositions(j, 2d)``."""
    d = len(kcap)
    caps = tuple(c // 2 for c in kcap + xcap)
    for half in _capped_compositions(j, caps):
        yield tuple(2 * a for a in half[:d]), tuple(2 * b for b in half[d:])


def _degree_box(p: PolySymbol) -> Tuple[MultiIndex, MultiIndex]:
    """(kcap, xcap): the largest xi_i- and x_i-exponent of p, per axis.
    d_xi^alpha d_x^beta p is exactly zero unless alpha <= kcap and
    beta <= xcap, so enumerating only the pairs inside this box keeps every
    sum and its order.  The zero symbol has the empty box of caps -1."""
    if p.is_zero():
        return (-1,) * p.d, (-1,) * p.d
    xes, kes = zip(*p.terms)
    return tuple(map(max, zip(*kes))), tuple(map(max, zip(*xes)))


def _survives(p: PolySymbol, alpha: MultiIndex, beta: MultiIndex) -> bool:
    """Whether d_xi^alpha d_x^beta p is non-zero: some single term has
    xi-exponent >= alpha and x-exponent >= beta componentwise.  Distinct
    terms differentiate to distinct monomials, so none cancel."""
    ge = operator.ge
    return any(all(map(ge, ke, alpha)) and all(map(ge, xe, beta)) for xe, ke in p.terms)


def _heat_slice(p: PolySymbol, l: int) -> PolySymbol:
    """sum_{|alpha+beta|=2l} c_{alpha,beta}/(alpha! beta!) d_xi^alpha d_x^beta p
    over the pairs that some term of p survives."""
    d = p.d
    out = PolySymbol.zero(d)
    for alpha, beta in _even_pairs(l, *_degree_box(p)):
        if _survives(p, alpha, beta):
            c = moment_coeff(alpha, beta, d)
            dp = poly_derive(p, alpha, beta)
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
    total = PolySymbol.zero(d)
    term = a
    k = 0
    while not term.is_zero():
        total = total + term
        k += 1
        lap = PolySymbol.zero(d)
        kcap, xcap = _degree_box(term)
        for i in range(d):
            ax = tuple(2 * (j == i) for j in range(d))
            if xcap[i] >= 2:
                lap = lap + poly_derive(term, None, ax)   # d_x_i^2
            if kcap[i] >= 2:
                lap = lap + poly_derive(term, ax, None)   # d_xi_i^2
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
    out = PolySymbol.zero(a.d)
    caps = tuple(map(min, *_degree_box(a)))
    max_order = min(a.x_degree(), a.xi_degree())
    for m in range(0, max(0, max_order) + 1):
        for beta in _capped_compositions(m, caps):
            if not _survives(a, beta, beta):
                continue
            dp = poly_derive(a, beta, beta)
            coeff = (t**m if m else 1.0) * (-1j) ** m / multi_factorial(beta)
            out = out + dp * coeff
    return out


def transpose_terms(a: PolySymbol, tau: float) -> PolySymbol:
    """Symbol of the plain transpose, Op_tau(a)^T = Op_tau(b): the transpose
    is the change of ordering Op_tau(a)^T = Op_{1-tau}(a(x, -xi)), so b is
    the tau-change of a(x, -xi) from 1 - tau to tau."""
    tv = _finite_tau(tau)
    return tau_change_terms(a.reflect_xi(), 1.0 - tv, tv)


def compose_terms(a: PolySymbol, b: PolySymbol) -> PolySymbol:
    """Symbol f with f(x,D) = a(x,D) b(x,D) for polynomial symbols:
    f = sum_alpha (1/alpha!) d_xi^alpha a * D_x^alpha b, a finite Leibniz
    sum."""
    if a.d != b.d:
        raise UwqError("dimension mismatch")
    out = PolySymbol.zero(a.d)
    caps = tuple(map(min, _degree_box(a)[0], _degree_box(b)[1]))
    zero = (0,) * a.d
    max_order = min(a.xi_degree(), b.x_degree())
    for m in range(0, max(0, max_order) + 1):
        for alpha in _capped_compositions(m, caps):
            if not (_survives(a, alpha, zero) and _survives(b, zero, alpha)):
                continue
            da = poly_derive(a, alpha, None)
            db = poly_derive(b, None, alpha) * (-1j) ** m   # D_x = -i d_x
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
    kcap, xcap = _degree_box(a)
    best = 0.0
    for tot_a in range(0, a.xi_degree() + 1):
        for alpha in _capped_compositions(tot_a, kcap):
            for tot_b in range(0, a.x_degree() + 1):
                for beta in _capped_compositions(tot_b, xcap):
                    if not _survives(a, alpha, beta):
                        continue
                    dp = poly_derive(a, alpha, beta)
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
