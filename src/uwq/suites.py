"""Named verification suites: every identity the toolkit promises, run at
its pinned tolerance with a deterministic corpus, one report per criterion.

Suite map (each criterion is reachable through exactly one suite):
  stft      - inversion, isometry
  quant245  - Anti-Wick vs smoothed-Weyl identity, positivity, norm bound,
              oscillator spectrum
  expansion - smoothing expansion exactness, inverse recursion
  tau       - ordering change, transpose
  compose   - operator composition
  gaussconv - Laplace convolution identity, oscillatory kernel limit
  weights   - structural conditions, quotient growth bound,
              ultrapolynomial lower bound

The ordering-change and composition checks apply their operators
matrix-free (``quant.apply_symbol``); transpose and the quant245 and
expansion checks compare dense matrices.

A criterion only measures: ``run_suite`` times each call and sets its
``runtime_ms``.  The fields of ``Report`` are the ``verify --json`` record,
and the run header is ``CONSTANTS_VERSION`` followed by the fields of
``SuiteParams``, so a field added to ``Report`` reaches the JSON record and
one added to ``SuiteParams`` the JSON and text headers with no other edit.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import List, Optional

import numpy as np

from . import constants
from .errors import UwqError
from .expansion import (
    PolySymbol,
    aw_to_weyl_terms,
    compose_terms,
    expansion_partial_sum,
    heat_quarter,
    inverse_aw_recursion,
    poly_allclose,
    tau_change_terms,
)
from .gaussconv import (
    CompactDensity,
    SeparableSymbol,
    conv_gauss_direct,
    conv_gauss_via_laplace,
    oscillatory_kernel,
    smooth_cutoff,
)
from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    _shifted_ifft,
    gaussian_window,
)
from .quant import (
    anti_wick_matrix,
    apply_operator,
    apply_symbol,
    hermite_function,
    kernel_from_symbol,
    operator_matrix,
    sample_symbol,
    verify_smoothing_identity,
    weyl,
)
from .stft import stft, stft_adjoint, stft_norm_check
from .weights import (
    Ultrapolynomial,
    WeightSequence,
    check_assoc_bound,
    check_conditions,
    fit_bound_scale,
)

__all__ = ["Report", "SuiteParams", "SUITES", "run_suite", "report_header"]

# Coarsest grid the criteria accept.  At n = 16 the STFT identities miss
# their 1e-10 tolerance by a factor of 300 (L = 4) to 4e7 (L = 10), and the
# quantization, inverse-expansion, tau and composition checks miss theirs by
# 1e3 or more: such a grid does not resolve the Hermite/Gaussian corpus.
MIN_N = 32


@dataclass(frozen=True)
class Report:
    """One criterion outcome; passes iff measured <= tolerance.  Its fields
    are the ``verify --json`` record; ``run_suite`` sets ``runtime_ms``."""

    name: str
    status: str
    measured: float
    tolerance: float
    runtime_ms: float
    detail: str = ""

    @classmethod
    def from_measurement(cls, name, measured, tolerance, detail=""):
        status = "pass" if measured <= tolerance else "fail"
        return cls(name=name, status=status, measured=float(measured),
                   tolerance=float(tolerance), runtime_ms=0.0, detail=detail)


@dataclass(frozen=True)
class SuiteParams:
    n: int = constants.DEFAULT_N_1D
    L: float = constants.DEFAULT_L_1D
    quant_L: float = constants.QUANT_L
    d: int = 1
    seed: int = 12345


def report_header(params: SuiteParams) -> dict:
    return {"constants_version": constants.CONSTANTS_VERSION, **asdict(params)}


def _half_band(n: int, cap: int) -> int:
    """Half-width in bins of a random band: ``cap`` (a fixed frequency band
    at a fixed box) while that covers at most 3/4 of the n bins."""
    return min(cap, 3 * n // 8)


def _band_limited(n: int, ndim: int, cap: int, rng) -> np.ndarray:
    """Random spectrum on the central ``2 * _half_band(n, cap)`` bins of each
    of ``ndim`` axes, transformed back and scaled to sup 1: complex on a 1-d
    grid, real part only on a phase grid (ndim 2, a real symbol)."""
    half_width = _half_band(n, cap)
    band = (slice(n // 2 - half_width, n // 2 + half_width),) * ndim
    draw = (2 * half_width,) * ndim
    spec = np.zeros((n,) * ndim, dtype=complex)
    spec[band] = rng.standard_normal(draw) + 1j * rng.standard_normal(draw)
    vals = _shifted_ifft(spec, tuple(range(ndim)))
    if ndim == 2:
        vals = vals.real
    for _ in range(ndim):   # n per axis in turn: the corpus is pinned to its last bit
        vals = vals * n
    return vals / np.max(np.abs(vals))


def _stft_corpus(axis: AxisGrid, rng) -> List[FunctionGrid]:
    pts = axis.points()
    corpus = [gaussian_window(axis), gaussian_window(axis, y=1.5, eta=2.0)]
    corpus += [FunctionGrid(axis, hermite_function(k, pts).astype(complex)) for k in range(5)]
    corpus += [FunctionGrid(axis, _band_limited(axis.n, 1, 20, rng)) for _ in range(3)]
    return corpus


def _decaying_corpus(axis: AxisGrid) -> List[FunctionGrid]:
    """Band-limited inputs that also decay at the box edge, the class the
    quantization identities act on."""
    pts = axis.points()
    out = [FunctionGrid(axis, hermite_function(k, pts).astype(complex)) for k in range(4)]
    out.append(FunctionGrid(axis, np.exp(1j * 2.0 * pts - 0.5 * (pts - 1.0) ** 2)))
    return out


# ---------------------------------------------------------------------------
# stft suite
# ---------------------------------------------------------------------------

def criterion_stft_inversion(params: SuiteParams) -> Report:
    rng = np.random.default_rng(params.seed)
    axis = AxisGrid(params.n, params.L, 1)
    worst = 0.0
    for u in _stft_corpus(axis, rng):
        rec = stft_adjoint(stft(u))
        err = np.max(np.abs(rec.values / (2.0 * math.pi) ** axis.d - u.values))
        worst = max(worst, err / max(1e-300, float(np.max(np.abs(u.values)))))
    # two-dimensional spot check
    ax2 = AxisGrid(constants.DEFAULT_N_2D, constants.DEFAULT_L_2D, 2)
    g2 = gaussian_window(ax2, y=(0.5, -0.25), eta=(1.0, 0.5))
    rec2 = stft_adjoint(stft(g2))
    worst = max(worst, float(np.max(np.abs(rec2.values / (2.0 * math.pi) ** 2 - g2.values))))
    return Report.from_measurement("stft_inversion", worst, 1e-10,
                                   "relative inversion defect over the corpus")


def criterion_stft_isometry(params: SuiteParams) -> Report:
    rng = np.random.default_rng(params.seed)
    axis = AxisGrid(params.n, params.L, 1)
    worst = 0.0
    for u in _stft_corpus(axis, rng):
        res = stft_norm_check(u)
        worst = max(worst, abs(res["lhs"] - res["rhs"]) / res["rhs"])
    return Report.from_measurement("stft_isometry", worst, 1e-10,
                                   "relative norm defect over the corpus")


# ---------------------------------------------------------------------------
# quant245 suite
# ---------------------------------------------------------------------------

def _quant_axis(params: SuiteParams) -> AxisGrid:
    return AxisGrid(params.n, params.quant_L, 1)


def criterion_smoothing_identity(params: SuiteParams) -> Report:
    axis = _quant_axis(params)
    x, xi = PolySymbol.x(), PolySymbol.xi()
    symbols = [PolySymbol.one(), x, xi * xi, x * x + xi * xi, x * x * x * x, x * xi]
    worst = 0.0
    for sym in symbols:
        worst = max(worst, verify_smoothing_identity(sym, axis)["max_err"])
    rng = np.random.default_rng(params.seed + 1)
    a = PhaseFunctionGrid(axis, _band_limited(axis.n, 2, 12, rng))
    worst = max(worst, verify_smoothing_identity(a)["max_err"])
    return Report.from_measurement("antiwick_weyl_smoothing", worst, 1e-5,
                                   "max entrywise discrepancy on the half-box block")


def criterion_positivity(params: SuiteParams) -> Report:
    axis = _quant_axis(params)
    x, xi = PolySymbol.x(), PolySymbol.xi()
    worst = 0.0
    for sym in [PolySymbol.one(), x * x, xi * xi, x * x + xi * xi, x * x * x * x + 1]:
        grid = sample_symbol(sym, axis)
        amax = float(np.max(grid.values.real))
        A = anti_wick_matrix(grid).entries
        mineig = float(np.linalg.eigvalsh((A + A.conj().T) / 2.0)[0])
        worst = max(worst, -mineig / (1e-7 * (1.0 + amax)))
    return Report.from_measurement("antiwick_positivity", worst, 1.0,
                                   "most negative eigenvalue over its allowance")


def criterion_norm_bound(params: SuiteParams) -> Report:
    axis = _quant_axis(params)
    rng = np.random.default_rng(params.seed + 2)
    worst = 0.0
    for _ in range(5):
        a = PhaseFunctionGrid(axis, _band_limited(axis.n, 2, 12, rng))
        sup = float(np.max(np.abs(a.values)))
        nrm = float(np.linalg.norm(anti_wick_matrix(a).entries, 2))
        worst = max(worst, nrm / (sup * (1.0 + 1e-6)))
    return Report.from_measurement("antiwick_norm_bound", worst, 1.0,
                                   "operator norm over its sup-norm allowance")


def criterion_oscillator(params: SuiteParams) -> Report:
    axis = _quant_axis(params)
    x, xi = PolySymbol.x(), PolySymbol.xi()
    H = weyl(x * x + xi * xi, axis).entries
    evals = np.linalg.eigvalsh((H + H.conj().T) / 2.0)
    worst = float(np.max(np.abs(evals[:8] - np.arange(1, 16, 2))))
    return Report.from_measurement("oscillator_spectrum", worst, 1e-6,
                                   "lowest eight eigenvalues vs odd integers")


# ---------------------------------------------------------------------------
# expansion suite
# ---------------------------------------------------------------------------

def _poly_corpus_1d(max_degree: int = 8) -> List[PolySymbol]:
    out = []
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            out.append(PolySymbol.monomial(1, (i,), (j,)))
    return out


def _poly_corpus_2d(rng, count: int = 6, max_degree: int = 5) -> List[PolySymbol]:
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(4):
            xe = tuple(int(v) for v in rng.integers(0, 3, size=2))
            ke = tuple(int(v) for v in rng.integers(0, 3, size=2))
            if sum(xe) + sum(ke) <= max_degree:
                terms[(xe, ke)] = complex(rng.standard_normal(), rng.standard_normal())
        if terms:
            out.append(PolySymbol(2, terms))
    return out


def criterion_smoothing_expansion(params: SuiteParams) -> Report:
    rng = np.random.default_rng(params.seed + 3)
    bad = 0
    total = 0
    for a in _poly_corpus_1d() + _poly_corpus_2d(rng):
        e = aw_to_weyl_terms(a)
        total += 1
        if not poly_allclose(expansion_partial_sum(e, len(e)), heat_quarter(a, +1), rtol=1e-12):
            bad += 1
    return Report.from_measurement("smoothing_expansion_exact", float(bad), 0.0,
                                   f"coefficientwise mismatches out of {total} polynomials")


def criterion_inverse_expansion(params: SuiteParams) -> Report:
    rng = np.random.default_rng(params.seed + 4)
    bad = 0
    total = 0
    for b in _poly_corpus_1d() + _poly_corpus_2d(rng):
        res = inverse_aw_recursion(b)
        total += 1
        ok = poly_allclose(heat_quarter(res.a, +1), b, rtol=1e-12)
        ok = ok and poly_allclose(res.a, heat_quarter(b, -1), rtol=1e-12)
        if not ok:
            bad += 1
    # matrix form on the corpus the operators act on
    axis = _quant_axis(params)
    corpus = _decaying_corpus(axis)
    x, xi = PolySymbol.x(), PolySymbol.xi()
    worst = 0.0
    for b in [xi * xi, x * x, x * xi, x * x + xi * xi]:
        a = inverse_aw_recursion(b).a
        MA = anti_wick_matrix(a, axis)
        MW = weyl(b, axis)
        for u in corpus:
            va, vw = apply_operator(MA, u), apply_operator(MW, u)
            worst = max(worst, _action_defect(vw.values, va.values))
    measured = float(bad) + (0.0 if worst < 1e-5 else worst)
    return Report.from_measurement("inverse_expansion", measured, 0.0,
                                   f"{bad} symbolic mismatches; worst matrix action {worst:.2e}")


# ---------------------------------------------------------------------------
# tau suite
# ---------------------------------------------------------------------------

def _action_defect(ref: np.ndarray, other: np.ndarray) -> float:
    """max|ref - other| / max(1, max|ref|): the defect of one operator
    action against a reference action, relative once that exceeds 1."""
    return float(np.max(np.abs(ref - other))) / max(1.0, float(np.max(np.abs(ref))))


def _tau_polys() -> List[PolySymbol]:
    x, xi = PolySymbol.x(), PolySymbol.xi()
    return [x * xi, x * x + xi * xi, x * x * xi * xi, x * x * x * xi, xi * xi * xi * xi]


def criterion_tau_change(params: SuiteParams) -> Report:
    axis = AxisGrid(params.n, params.L, 1)
    corpus = _decaying_corpus(axis)
    worst = 0.0
    for a in _tau_polys():
        for t1, t in itertools.product([0.0, 0.5, 1.0], repeat=2):
            b = tau_change_terms(a, t1, t)
            for u in corpus:
                v1, v2 = apply_symbol(a, t1, u), apply_symbol(b, t, u)
                worst = max(worst, _action_defect(v1.values, v2.values))
    return Report.from_measurement("tau_change", worst, 1e-8,
                                   "worst relative action defect on band-limited inputs")


def criterion_transpose(params: SuiteParams) -> Report:
    axis = AxisGrid(params.n, params.L, 1)
    worst = 0.0
    for a in _tau_polys():
        refl = a.reflect_xi()
        for tau in [0.0, 0.25, 0.5, 1.0]:
            M = operator_matrix(kernel_from_symbol(a, tau, axis))
            M2 = operator_matrix(kernel_from_symbol(refl, 1.0 - tau, axis))
            worst = max(worst, float(np.max(np.abs(M.entries.T - M2.entries))))
    return Report.from_measurement("transpose", worst, 1e-9,
                                   "plain matrix transpose identity, entrywise")


# ---------------------------------------------------------------------------
# compose suite
# ---------------------------------------------------------------------------

def criterion_composition(params: SuiteParams) -> Report:
    axis = AxisGrid(params.n, params.L, 1)
    corpus = _decaying_corpus(axis)[:3]
    monos = [PolySymbol.monomial(1, (i,), (j,))
             for i in range(4) for j in range(4) if 1 <= i + j <= 3]
    worst = 0.0
    for a, b in itertools.product(monos, monos):
        f = compose_terms(a, b)
        for u in corpus:
            v1 = apply_symbol(a, 0.0, apply_symbol(b, 0.0, u)).values
            v2 = apply_symbol(f, 0.0, u).values
            worst = max(worst, _action_defect(v1, v2))
    return Report.from_measurement("composition", worst, 1e-8,
                                   "worst relative action defect, monomial pairs")


# ---------------------------------------------------------------------------
# gaussconv suite
# ---------------------------------------------------------------------------

def criterion_laplace_convolution(params: SuiteParams) -> Report:
    densities = [
        CompactDensity.indicator(-1.0, 1.0),
        CompactDensity.gaussian_bump(-1.0, 1.0),
        CompactDensity.poly_times_bump([1.0, 1.0, 1.0], -1.0, 1.0),
    ]
    worst = 0.0
    for S in densities:
        for s in (-2.0, -1.0, -0.25):
            for xv in np.linspace(-5.0, 5.0, 21):
                via = conv_gauss_via_laplace(S, s, xv)
                direct = conv_gauss_direct(S, s, xv)
                worst = max(worst, abs(via - direct) / (1.0 + abs(direct)))
    return Report.from_measurement("laplace_convolution", worst, 1e-8,
                                   "via-Laplace vs direct quadrature, relative")


def criterion_oscillatory(params: SuiteParams) -> Report:
    axc = AxisGrid(256, 2.5, 2)
    sigma, x0, y0 = 0.22, 0.35, -0.15
    chi = FunctionGrid.from_callable(
        axc, lambda X, Y: np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2.0 * sigma**2))
    )
    psi2 = lambda u: smooth_cutoff(u, inner=1.2, outer=2.5)
    symbols = [
        PolySymbol.one(),
        PolySymbol.xi(),
        SeparableSymbol(fx=lambda m: math.sqrt(2.0) * np.exp(m**2),
                        fxi=lambda k: k**2 + 0.5),
    ]
    worst = 0.0
    for b in symbols:
        rep = oscillatory_kernel(b, chi, constants.OSC_DELTA_LADDER)
        rep2 = oscillatory_kernel(b, chi, constants.OSC_DELTA_LADDER, psi=psi2)
        monotone = all(d1 > d2 for d1, d2 in zip(rep.diffs, rep.diffs[1:]))
        if not monotone:
            worst = max(worst, 1.0)
        worst = max(worst, rep.diffs[-1] / 1e-5)
        worst = max(worst, abs(rep.extrapolated - rep2.extrapolated) / 1e-5)
    return Report.from_measurement("oscillatory_kernel", worst, 1.0,
                                   "max of final Cauchy diff and cutoff dependence, "
                                   "scaled to their 1e-5 allowances")


# ---------------------------------------------------------------------------
# weights suite
# ---------------------------------------------------------------------------

def criterion_weights(params: SuiteParams) -> Report:
    failures = []
    for s in (1.5, 2.0, 3.0):
        w = WeightSequence.gevrey(s)
        rep = check_conditions(w)
        if not (rep.m1_ok and rep.m2_ok and rep.m3_ok):
            failures.append(f"conditions s={s}")
        # the growth bound needs the (c0, H) that (M.1) and (M.2) fit
        if not (rep.m1_ok and rep.m2_ok
                and check_assoc_bound(w, 1.0, 20, constants=(rep.c0, rep.m2_H))):
            failures.append(f"growth bound s={s}")
        wide = WeightSequence.gevrey(s, truncation=192)
        P = Ultrapolynomial(weight=wide, scale=1.0, q=1, truncation=20000)
        grid = np.linspace(0.0, 50.0, 200)
        # fit_bound_scale returns a k only once the bound check passed there
        if fit_bound_scale(P, grid) is None:
            failures.append(f"lower bound s={s}")
    return Report.from_measurement("weights_conditions", float(len(failures)), 0.0,
                                   "; ".join(failures) if failures else
                                   "conditions, growth bound, and lower bound all hold")


SUITES = {
    "stft": [criterion_stft_inversion, criterion_stft_isometry],
    "quant245": [criterion_smoothing_identity, criterion_positivity,
                 criterion_norm_bound, criterion_oscillator],
    "expansion": [criterion_smoothing_expansion, criterion_inverse_expansion],
    "tau": [criterion_tau_change, criterion_transpose],
    "compose": [criterion_composition],
    "gaussconv": [criterion_laplace_convolution, criterion_oscillatory],
    "weights": [criterion_weights],
}


def run_suite(name: str, params: Optional[SuiteParams] = None) -> List[Report]:
    params = params or SuiteParams()
    if params.d != 1:
        raise UwqError(
            f"verify criteria run in d=1 only, got d={params.d}; two dimensions "
            f"are covered by the 2-d spot checks inside stft_inversion "
            f"(n={constants.DEFAULT_N_2D}) and oscillatory_kernel (n=256)")
    if params.n < MIN_N:
        raise UwqError(f"verify criteria need n >= {MIN_N}, got n={params.n}; "
                       f"a coarser grid does not resolve their corpus")
    if name == "all":
        fns = [fn for suite in SUITES.values() for fn in suite]
    elif name in SUITES:
        fns = SUITES[name]
    else:
        raise UwqError(f"unknown suite {name!r}; choose from "
                       f"{['all', *SUITES]}")
    reports = []
    for fn in fns:
        start = time.perf_counter()
        report = fn(params)
        reports.append(replace(report, runtime_ms=1000.0 * (time.perf_counter() - start)))
    return sorted(reports, key=lambda r: r.name)
