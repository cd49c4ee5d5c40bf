"""Weight sequences M_p, their structural conditions (M.1)-(M.3), the
associated function M(rho), and truncated ultrapolynomial products with a
constant scale l.

Everything is computed in the log domain: Gevrey sequences (p!)^s overflow
doubles near p = 85, and the associated function is defined through logs
anyway.  All types are immutable; operations are pure functions.

The log of a truncated ultrapolynomial at real z, sum_j log1p(x_j) with
x_j = z^2 c_j and c_j = 1/(l m_j)^2, is an exact head plus a series tail.
The head is numpy's pairwise sum of log1p(x_j) over j < J0(|z|), the first
index past which every x_j <= theta = 1/16, rounded up to a power of two,
so that one call meets at most log2(J) + 3 distinct J0.  The tail
sum_{j >= J0} log1p(x_j) is the alternating series
sum_{k=1}^{K} (-1)^(k+1) r^k S_k / k with K = 14, sigma = max_{j >= J0} c_j,
r = z^2 sigma <= theta and power sums S_k = sum_{j >= J0} (c_j / sigma)^k;
these do not depend on z, and scaling by sigma keeps them in [1, J].
Truncation costs at most theta^K/(K+1), about 1e-18, of the tail.  A call
thus takes O(#points J0 + #distinct J0 K J) operations instead of
O(#points J) exp and log1p, with J0 a few dozen at |z| <= 50.

Error model (``error_bound`` in tests/test_weights.py): against math.fsum
of math.log1p the sum is off by an ulp of exp and of log1p per term, the
exact effect of rounding the exp arguments the tail splits, the
truncation, and the roundings of the pairwise sums and of the series,
counted as independent (four standard deviations).  That stays under
8 eps on Gevrey products; the measured error is under 3 eps.  A point's
sum depends only on the product and |z|, never on the other points of
the call, so array and pointwise evaluations agree bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .constants import (
    BOUND_FLOOR,
    BOUND_K_LADDER,
    CONDITION_C0_CAP,
    M2_H_LATTICE,
    WEIGHTS_TRUNCATION,
)
from .errors import OverflowDomainError, SaturationError, TailBoundError, UwqError

__all__ = [
    "WeightSequence",
    "Ultrapolynomial",
    "AssocResult",
    "ConditionsReport",
    "BoundReport",
    "assoc_fn",
    "check_conditions",
    "check_assoc_bound",
    "ultrapoly_eval",
    "verify_ultrapoly_bound",
    "fit_bound_scale",
    "load_weights",
    "save_weights",
]

_BLOCK_BYTES = 1 << 20  # row blocks of the ultrapolynomial factor table
_THETA = 1.0 / 16.0     # the series tail takes the factors with x_j <= theta
_SERIES_TERMS = 14      # K: truncation error <= theta^K / (K + 1) of the tail
_LOG_DBL_MAX = math.log(sys.float_info.max)  # exp is finite up to here


@dataclass(frozen=True)
class WeightSequence:
    """A normalized sequence M_0 = 1, M_1, ..., M_P of positive reals.

    ``log_values[p]`` holds ln M_p.  ``generator`` is ``("gevrey", s)`` or
    ``("explicit",)``; the Gevrey generator knows its quotients m_p = p^s in
    closed form for every p, which lets dependent code reach past the stored
    truncation.
    """

    log_values: np.ndarray
    generator: tuple = ("explicit",)

    def __post_init__(self):
        lv = np.asarray(self.log_values, dtype=float)
        if lv.ndim != 1 or lv.size < 2:
            raise UwqError("weight sequence needs at least M_0 and M_1")
        if not np.all(np.isfinite(lv)):
            raise UwqError("weight values must be strictly positive and finite")
        if abs(lv[0]) > 1e-12:
            raise UwqError("M_0 must equal 1")
        object.__setattr__(self, "log_values", lv)

    @classmethod
    def gevrey(cls, s: float, truncation: int = WEIGHTS_TRUNCATION) -> "WeightSequence":
        """M_p = (p!)^s, filled exactly in the log domain via sums of ln k."""
        if s <= 1.0:
            raise UwqError("Gevrey index must satisfy s > 1")
        lp = np.concatenate([[0.0], np.log(np.arange(1, truncation + 1, dtype=float))])
        return cls(log_values=s * np.cumsum(lp), generator=("gevrey", float(s)))

    @classmethod
    def explicit(cls, values=None, log_values=None) -> "WeightSequence":
        if (values is None) == (log_values is None):
            raise UwqError("give exactly one of values / log_values")
        if values is not None:
            values = np.asarray(values, dtype=float)
            if np.any(values <= 0):
                raise UwqError("weight values must be strictly positive")
            log_values = np.log(values)
        return cls(log_values=np.asarray(log_values, dtype=float), generator=("explicit",))

    @property
    def truncation(self) -> int:
        return self.log_values.size - 1

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_values)

    @property
    def log_quotients(self) -> np.ndarray:
        """ln m_p for p = 1..P (index 0 holds ln m_1)."""
        return np.diff(self.log_values)

    def log_quotient(self, p: int) -> float:
        """ln m_p, reaching past the stored prefix for generated sequences."""
        if p < 1:
            raise UwqError("quotients are indexed from p = 1")
        if p <= self.truncation:
            return float(self.log_values[p] - self.log_values[p - 1])
        if self.generator[0] == "gevrey":
            return self.generator[1] * math.log(p)
        raise UwqError(f"m_{p} lies beyond the stored truncation of an explicit sequence")

    def quotient(self, p: int) -> float:
        return math.exp(self.log_quotient(p))


@dataclass(frozen=True)
class AssocResult:
    """Value of an associated function together with its maximizer.

    Each field has the shape of the input rho; for a scalar rho they are
    numpy scalars (``value`` is a ``float``).  ``saturated`` flags that the
    maximizing index sits at (or the input lies beyond) the stored
    truncation, so the true supremum may be larger; the value is then only a
    lower bound and is never silently clamped.
    """

    value: np.ndarray
    argmax: np.ndarray
    saturated: np.ndarray

    def __float__(self) -> float:
        return float(self.value)


def assoc_fn(w: WeightSequence, rho) -> AssocResult:
    """M(rho) = sup_p log_+ rho^p / M_p, scanned over the stored prefix.

    rho is a positive scalar or array; the result's fields take its shape.
    The scan runs once per distinct value of rho, so its one temporary is
    (#distinct) x (P+1).  Because the quotients m_p are non-decreasing for
    log-convex sequences, the scan is exact whenever rho < m_P; otherwise
    the result is flagged saturated.
    """
    rho = np.asarray(rho, dtype=float)
    if not (np.all(rho > 0.0) and np.all(np.isfinite(rho))):
        raise UwqError("associated function needs rho > 0")
    distinct, where = np.unique(rho, return_inverse=True)
    # math.log per distinct value keeps the scan bitwise equal to a scalar one
    log_rho = np.array([math.log(r) for r in distinct])
    lv = w.log_values
    P = lv.size - 1
    terms = log_rho[:, None] * np.arange(P + 1) - lv
    k = np.argmax(terms, axis=1)
    best = terms[np.arange(distinct.size), k]
    value = np.where(best > 0.0, best, 0.0)
    saturated = ((k == P) & (value > 0.0)) | (log_rho >= lv[-1] - lv[-2])

    def spread(a):
        # back to rho's shape; [()] turns the 0-d case into a numpy scalar
        return a[where].reshape(rho.shape)[()]

    return AssocResult(value=spread(value), argmax=spread(k), saturated=spread(saturated))


@dataclass(frozen=True)
class ConditionsReport:
    """Outcome of structural condition checks on a stored prefix.

    m2 / m3 report fitted witnesses: the smallest lattice H whose exactly
    minimized c0 stays under ``CONDITION_C0_CAP``, and the minimal c0 making
    the truncated strong non-quasianalyticity sum hold for q <= P/2.  ``c0``
    consolidates both (the shared constant used by downstream inequalities).
    """

    m1_ok: bool
    m2_ok: bool
    m2_H: Optional[float]
    m2_c0: Optional[float]
    m3_ok: bool
    m3_c0: Optional[float]

    @property
    def c0(self) -> float:
        vals = [v for v in (self.m2_c0, self.m3_c0) if v is not None]
        return max([1.0] + vals)


def check_conditions(w: WeightSequence) -> ConditionsReport:
    """Check log-convexity exactly and fit witnesses for the product and
    tail-sum conditions on the stored prefix.

    The H lattice is 1.0, 1.1, ..., 8.0; for each H the optimal c0 is
    computed exactly and the smallest H with c0 <= CONDITION_C0_CAP wins.  A
    finite prefix can never refute existential constants, so the cap is what
    gives "violation" operational meaning; it is deliberately coarse.
    """
    P = w.truncation
    if P < 4:
        raise UwqError("condition checks need truncation P >= 4")
    lv = w.log_values

    # (M.1) exactly, up to float rounding of the stored logs.
    m1_ok = bool(np.all(2.0 * lv[1:-1] <= lv[:-2] + lv[2:] + 1e-9))

    # (M.2): ln c0(H) = max_p [ ln M_p - p ln H - min_q (ln M_q + ln M_{p-q}) ]
    min_split = np.empty(P + 1)
    for p in range(P + 1):
        q = np.arange(p + 1)
        min_split[p] = np.min(lv[q] + lv[p - q])
    ps = np.arange(P + 1)
    m2_H = m2_c0 = None
    for H in M2_H_LATTICE:
        log_c0 = float(np.max(lv - ps * math.log(H) - min_split))
        if math.exp(log_c0) <= CONDITION_C0_CAP:
            m2_H, m2_c0 = H, max(1.0, math.exp(log_c0))
            break
    m2_ok = m2_H is not None

    # (M.3) truncated: sum_{p=q+1}^{P} 1/m_p <= c0 * q * M_q / M_{q+1}.
    inv_m = np.exp(-w.log_quotients)          # 1/m_p for p = 1..P
    tail = np.cumsum(inv_m[::-1])[::-1]       # tail[p-1] = sum_{j>=p} 1/m_j
    m3_c0 = 0.0
    for q in range(1, P // 2 + 1):
        lhs = tail[q]                          # sum over p = q+1 .. P
        m3_c0 = max(m3_c0, lhs * math.exp(w.log_quotients[q]) / q)
    m3_ok = m3_c0 <= CONDITION_C0_CAP
    return ConditionsReport(
        m1_ok=m1_ok,
        m2_ok=m2_ok,
        m2_H=m2_H,
        m2_c0=m2_c0,
        m3_ok=m3_ok,
        m3_c0=m3_c0 if m3_c0 > 0 else None,
    )


def check_assoc_bound(
    w: WeightSequence,
    m: float,
    n_max: int,
    constants: Optional[tuple] = None,
) -> bool:
    """Check M(m * m_n) <= 2 (c0 m + 2) n ln H + ln c0 for n = 1..n_max;
    a saturated M(m * m_n) for any of these n raises.

    ``constants`` overrides the fitted (c0, H) pair, which is how the
    adversarial c0 = H = 1 case is exercised.
    """
    if m <= 0:
        raise UwqError("m must be positive")
    if constants is None:
        rep = check_conditions(w)
        if not (rep.m1_ok and rep.m2_ok):
            raise UwqError("cannot fit (c0, H): conditions fail on the prefix")
        c0, H = rep.c0, rep.m2_H
    else:
        c0, H = constants
    ns = np.arange(1, n_max + 1)
    res = assoc_fn(w, m * np.array([w.quotient(n) for n in range(1, n_max + 1)], dtype=float))
    if np.any(res.saturated):
        raise SaturationError(f"M(m*m_{ns[np.argmax(res.saturated)]}) saturated the "
                              f"truncation; enlarge the stored prefix")
    rhs = 2.0 * (c0 * m + 2.0) * ns * math.log(H) + math.log(c0)
    return bool(np.all(res.value <= rhs + 1e-12))


@dataclass(frozen=True)
class Ultrapolynomial:
    """Truncated product prod_{j=q}^{q+J-1} (1 + z^2 / (l^2 m_j^2)) with
    J = ``truncation`` factors and the constant scale l = ``scale``, a finite
    positive real.
    """

    weight: WeightSequence
    scale: float = 1.0
    q: int = 1
    truncation: int = 50

    def __post_init__(self):
        if self.q < 1:
            raise UwqError("start index q must be a positive integer")
        if self.truncation < 1:
            raise UwqError("need at least one factor")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise UwqError("scale l must be finite and positive")

    def log_m(self) -> np.ndarray:
        js = np.arange(self.q, self.q + self.truncation)
        if self.weight.generator[0] == "gevrey":
            return self.weight.generator[1] * np.log(js)
        if js[-1] > self.weight.truncation:
            raise UwqError("factor range exceeds stored truncation of explicit weights")
        return self.weight.log_quotients[js - 1]

    def log_scales(self) -> np.ndarray:
        return np.full(self.truncation, math.log(self.scale))


def _square(v: float) -> float:
    """v**2, and inf where that exceeds doubles (float ** raises there)."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def _tail_log_bound(P: Ultrapolynomial, abs_z: float) -> float:
    """Upper bound on sum_{j > q+J-1} |z|^2 / (l^2 m_j^2) for the dropped tail."""
    if abs_z == 0.0:
        return 0.0
    j_end = P.q + P.truncation - 1
    if P.weight.generator[0] == "gevrey":
        s = P.weight.generator[1]
        l = P.scale
        # sum_{j>J} j^(-2s) <= integral_J^inf t^(-2s) dt = J^(1-2s)/(2s-1)
        return _square(abs_z) / (l * l) * j_end ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
    raise TailBoundError(
        "cannot certify the dropped tail beyond the truncation of explicit weights"
    )


def _log_factor_sums(P: Ultrapolynomial, abs_z) -> np.ndarray:
    """sum_j log1p(|z|^2 / (l m_j)^2) for each entry of the 1-d array |z|,
    the log of the truncated product at real z; 0 where |z| = 0.

    The head j < J0(|z|) is numpy's pairwise sum of
    log1p(exp(2 (ln(|z|/l) - ln m_j))), in row blocks of at most
    _BLOCK_BYTES; the tail j >= J0 is the K-term power-sum series of the
    module docstring, its coefficients formed once per distinct J0 in the
    call.  A |z| whose J0 reaches J, as any |z| > l m_j / 4 at the last
    factor does, is all head.  A head term whose exp argument u exceeds
    ln(DBL_MAX) is u itself, which log1p(e^u) is to rounding there, so the
    sum stays finite up to |z| = DBL_MAX.  Each entry depends on |z| alone,
    so it is bitwise the sum that a call at that point by itself returns;
    its error follows the module docstring's model, under 8 eps.
    """
    abs_z = np.asarray(abs_z, dtype=float)
    log_m = P.log_m()
    J = log_m.size
    out = np.zeros(abs_z.size)
    nonzero = np.flatnonzero(abs_z)
    # ln(|z|/l) with math.log per point: np.log may differ from it in the last bit
    log_l = math.log(P.scale)
    dz = np.array([math.log(v) - log_l for v in abs_z[nonzero].tolist()])
    heads = _head_sizes(log_m, dz)
    for h in np.unique(heads).tolist():
        rows = np.flatnonzero(heads == h)
        sums = np.zeros(rows.size)
        if h:
            step = max(1, _BLOCK_BYTES // (8 * h))
            for start in range(0, rows.size, step):
                u = 2.0 * (dz[rows[start:start + step], None] - log_m[:h])
                t = np.log1p(np.exp(np.minimum(u, _LOG_DBL_MAX)))
                sums[start:start + step] = np.sum(np.where(u > _LOG_DBL_MAX, u, t), axis=1)
        if h < J:
            top, coeffs = _tail_series(log_m[h:])
            r = np.exp(2.0 * (dz[rows] - top))
            acc = np.full(rows.size, coeffs[-1])
            for c in coeffs[-2::-1]:
                acc = c + r * acc
            sums = sums + r * acc
        out[nonzero[rows]] = sums
    return out


def _head_sizes(log_m: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """J0 for each ln(|z|/l) in ``dz``: the first index past which every
    x_j <= theta, i.e. ln m_j >= ln(|z|/l) - ln(theta)/2, rounded up to a
    power of two and capped at J.  The suffix minimum of ln m_j makes this
    hold for weights whose quotients are not monotone."""
    floor = np.minimum.accumulate(log_m[::-1])[::-1]
    first = np.searchsorted(floor, dz - 0.5 * math.log(_THETA))
    # 2^ceil(log2 first): frexp(first - 1) returns bit_length(first - 1)
    return np.minimum(np.where(first > 0, 1 << np.frexp(first - 1)[1], 0), log_m.size)


def _tail_series(log_m: np.ndarray) -> Tuple[float, np.ndarray]:
    """(min ln m_j, coefficients (-1)^(k+1) S_k / k for k = 1..K) of the
    tail over the factors ``log_m``, with S_k = sum_j (m_min / m_j)^(2k).
    The largest ratio, exactly 1, is added after the pairwise sum of the
    others, which is all of S_k when one factor dominates the tail."""
    top_index = int(np.argmin(log_m))
    top = float(log_m[top_index])
    u = np.exp(2.0 * (top - log_m))  # c_j / sigma, in (0, 1]
    u[top_index] = 0.0
    power = u.copy()
    coeffs = np.empty(_SERIES_TERMS)
    for k in range(_SERIES_TERMS):
        coeffs[k] = (-1.0) ** k * (1.0 + np.sum(power)) / (k + 1)
        power *= u
    return top, coeffs


def ultrapoly_eval(P: Ultrapolynomial, z: complex, strict: bool = True,
                   tail_correction: bool = False) -> complex:
    """Product of the first J factors at the point z, which must be finite;
    OverflowDomainError where the product exceeds doubles.

    With ``strict`` the dropped tail must satisfy the 1e-12 bound, otherwise
    TailBoundError.  ``tail_correction`` (real z only) adds the analytic
    integral estimate of the dropped log-tail, turning the truncated product
    into an estimate of the full one; its own second-order error is checked
    against 1e-12.

    At real z the product is exp of ``_log_factor_sums``: the exact head
    over j < J0(|z|) plus the power-sum series of the factors with
    x_j <= theta = 1/16, truncated after K = 14 terms, whose log is within
    the module docstring's error model, under 8 eps.  It is bitwise the
    value the array paths compute at that point.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UwqError(f"ultrapolynomial needs a finite z, got {z!r}")
    try:
        abs_z = abs(z)
    except OverflowError:
        raise OverflowDomainError(f"|z| exceeds doubles at z = {z!r}") from None
    if strict and not tail_correction:
        if _tail_log_bound(P, abs_z) >= 1e-12:
            raise TailBoundError(
                "dropped tail exceeds 1e-12 for this z; increase the factor count"
            )
    if z.imag == 0.0:
        # real z: every factor >= 1; sum logs for stability at large J
        total = float(_log_factor_sums(P, [abs_z])[0])
        if tail_correction:
            total += _tail_log_correction(P, abs_z)
        if total > _LOG_DBL_MAX:
            raise OverflowDomainError(f"ultrapolynomial exceeds doubles at |z| = {abs_z:g}: "
                                      f"its log is {total:.6g}")
        return complex(math.exp(total))
    if tail_correction:
        raise UwqError("tail correction is only defined for real arguments")
    with np.errstate(over="ignore", invalid="ignore"):
        prod = complex(np.prod(1.0 + (z * z) * np.exp(-2.0 * (P.log_scales() + P.log_m()))))
    if not (math.isfinite(prod.real) and math.isfinite(prod.imag)):
        raise OverflowDomainError(f"ultrapolynomial exceeds doubles at z = {z!r}")
    return prod


def _tail_log_correction(P: Ultrapolynomial, abs_z: float) -> float:
    """Integral estimate of sum_{j>q+J-1} log1p(|z|^2/(l^2 j^(2s))).

    Valid for generated sequences; the ignored second-order term is bounded
    by sum (z^2/(l^2 j^(2s)))^2 / 2 and must stay under 1e-12.
    """
    if abs_z == 0.0:
        return 0.0
    if P.weight.generator[0] != "gevrey":
        raise TailBoundError("tail correction needs a generated sequence")
    s = P.weight.generator[1]
    l = P.scale
    j0 = P.q + P.truncation - 0.5  # midpoint rule start
    c = _square(abs_z) / (l * l)
    first = c * j0 ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)
    second = 0.5 * c * c * j0 ** (1.0 - 4.0 * s) / (4.0 * s - 1.0)
    if second >= 1e-12:
        raise TailBoundError("tail correction not accurate enough; increase factors")
    return first


@dataclass(frozen=True)
class BoundReport:
    C_tilde: float
    ok: bool
    argmin: int


def verify_ultrapoly_bound(P: Ultrapolynomial, k: float, grid: Sequence[float]) -> BoundReport:
    """Empirical check of the lower bound |P(x)| >= C e^{M(|x|/k)} on a grid.

    Returns the minimum of |P(x)| e^{-M(|x|/k)} as the empirical constant.
    In floats that minimum is always positive, so "bounded away from zero"
    is operationalized as C >= BOUND_FLOOR.  Saturated associated-function
    values raise; callers must store a prefix long enough for the grid.
    """
    if k <= 0:
        raise UwqError("k must be positive")
    ax = _abs_grid(grid)
    return _bound_report(P, k, ax, _log_factor_sums(P, ax))


def _abs_grid(grid) -> np.ndarray:
    """|x| on a bound-check grid, rejected before any table is built unless
    every point is finite."""
    ax = np.abs(np.asarray(grid, dtype=float))
    if not np.all(np.isfinite(ax)):
        raise UwqError("bound-check grid must hold finite points only")
    return ax


def _bound_report(P: Ultrapolynomial, k: float, ax: np.ndarray,
                  log_sums: np.ndarray) -> BoundReport:
    """``verify_ultrapoly_bound`` at k on the points |x| = ``ax``, given
    their k-independent ``_log_factor_sums``."""
    m_val = np.zeros(ax.shape)  # the associated function vanishes as rho -> 0+
    nonzero = ax != 0.0
    res = assoc_fn(P.weight, ax[nonzero] / k)
    if np.any(res.saturated):
        raise SaturationError("associated function saturated on the bound-check grid")
    m_val[nonzero] = res.value
    best = math.inf
    arg = 0
    for i, x in enumerate(ax.tolist()):
        # the scalar steps of log|ultrapoly_eval(P, x)| with tail correction,
        # so the check agrees with the pointwise product bit for bit
        total = float(log_sums[i]) + _tail_log_correction(P, x)
        log_ratio = math.log(math.exp(total)) - m_val[i]
        ratio = math.exp(log_ratio) if log_ratio > -700 else 0.0
        if ratio < best:
            best, arg = ratio, i
    return BoundReport(C_tilde=best, ok=bool(best >= BOUND_FLOOR), argmin=arg)


def fit_bound_scale(P: Ultrapolynomial, grid: Sequence[float]) -> Optional[float]:
    """Smallest k on ``BOUND_K_LADDER`` for which the lower bound check
    passes.  The log factor sums do not depend on k, so every rung reuses
    one table."""
    ax = _abs_grid(grid)
    log_sums = _log_factor_sums(P, ax)
    for k in BOUND_K_LADDER:
        if _bound_report(P, k, ax, log_sums).ok:
            return k
    return None


def load_weights(path) -> WeightSequence:
    """Plain-text format: header ``gevrey s=<real>`` or ``explicit``; for
    explicit sequences one ln M_p per following line, starting with p = 0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise UwqError(f"{path}: {exc}") from None
    if not lines:
        raise UwqError(f"empty weight file: {path}")
    head = lines[0].split()

    def number(tok):
        try:
            return float(tok)
        except ValueError:
            raise UwqError(f"{path}: {tok!r} is not a number") from None

    if head[0] == "gevrey":
        if len(head) != 2 or not head[1].startswith("s="):
            raise UwqError("gevrey header must read: gevrey s=<real>")
        return WeightSequence.gevrey(number(head[1][2:]))
    if head[0] == "explicit":
        logs = np.array([number(v) for v in lines[1:]])
        return WeightSequence.explicit(log_values=logs)
    raise UwqError(f"unknown weight header {lines[0]!r}")


def save_weights(w: WeightSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if w.generator[0] == "gevrey":
            fh.write(f"gevrey s={w.generator[1]:.17g}\n")
        else:
            fh.write("explicit\n")
            for v in w.log_values:
                fh.write(f"{v:.17g}\n")
