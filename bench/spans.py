"""Span tracing of uwq's public functions, from outside the package.

``TRACED`` is the single list of functions the traced run wraps.  Installing
a tracer replaces, in every loaded ``uwq.*`` module, each attribute bound to
a listed function object, so callers that imported the name directly
(``suites``, ``cli``) are traced too.  A listed name that no longer exists is
reported as absent, not raised.

Spans (name, start, end, parent) are kept in memory; ``collect`` turns the
spans of one pass into per-name calls, self time, total time and peak
allocation, then clears them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass

# (span name, module, attribute, extra metrics).  "total" marks functions
# that call other listed functions, so their total time differs from their
# self time; "peak_mb" adds the peak traced allocation inside the span.
# Allocation tracing starts and stops with a peak_mb span, so these spans
# must not nest; none of the listed ones calls another.
TRACED = [
    ("grid.fft", "uwq.grid", "_shifted_fft", ()),
    ("grid.fft", "uwq.grid", "_shifted_ifft", ()),
    ("grid.save_function", "uwq.grid", "save_function", ()),
    ("grid.save_phase", "uwq.grid", "save_phase", ()),
    ("grid.load_function", "uwq.grid", "load_function", ()),
    ("grid.load_phase", "uwq.grid", "load_phase", ()),
    ("stft.stft", "uwq.stft", "stft", ("total", "peak_mb")),
    ("stft.stft_adjoint", "uwq.stft", "stft_adjoint", ("total", "peak_mb")),
    ("stft.window_translates", "uwq.stft", "window_translates", ()),
    ("quant.kernel_from_symbol", "uwq.quant", "kernel_from_symbol", ("total", "split")),
    ("quant.symbol_from_kernel", "uwq.quant", "symbol_from_kernel", ("total",)),
    ("quant.anti_wick_matrix", "uwq.quant", "anti_wick_matrix", ("total", "peak_mb")),
    ("quant.anti_wick_direct", "uwq.quant", "anti_wick_direct", ("total",)),
    ("quant.gauss_smooth", "uwq.quant", "gauss_smooth", ()),
    ("quant.sample_symbol", "uwq.quant", "sample_symbol", ()),
    ("quant.operator_matrix", "uwq.quant", "operator_matrix", ()),
    ("quant.apply_operator", "uwq.quant", "apply_operator", ()),
    ("expansion.compose_terms", "uwq.expansion", "compose_terms", ("total", "terms")),
    ("expansion.heat_quarter", "uwq.expansion", "heat_quarter", ("total", "terms")),
    ("expansion.aw_to_weyl_terms", "uwq.expansion", "aw_to_weyl_terms", ("total", "terms")),
    ("expansion.inverse_aw_recursion", "uwq.expansion", "inverse_aw_recursion", ("total", "terms")),
    ("expansion.tau_change_terms", "uwq.expansion", "tau_change_terms", ("total", "terms")),
    ("expansion.transpose_terms", "uwq.expansion", "transpose_terms", ("total", "terms")),
    ("expansion.gamma_norm_estimate", "uwq.expansion", "gamma_norm_estimate", ("total",)),
    ("expansion.poly_derive", "uwq.expansion", "poly_derive", ()),
    ("weights.assoc_fn", "uwq.weights", "assoc_fn", ()),
    ("weights.check_conditions", "uwq.weights", "check_conditions", ()),
    ("weights.check_assoc_bound", "uwq.weights", "check_assoc_bound", ("total",)),
    ("weights.fit_bound_scale", "uwq.weights", "fit_bound_scale", ("total",)),
    ("weights.verify_ultrapoly_bound", "uwq.weights", "verify_ultrapoly_bound", ("total",)),
    ("weights.ultrapoly_eval", "uwq.weights", "ultrapoly_eval", ()),
    ("gaussconv.oscillatory_kernel", "uwq.gaussconv", "oscillatory_kernel", ()),
    ("gaussconv.conv_gauss_via_laplace", "uwq.gaussconv", "conv_gauss_via_laplace", ("total",)),
    ("gaussconv.conv_gauss_direct", "uwq.gaussconv", "conv_gauss_direct", ()),
    ("gaussconv.laplace", "uwq.gaussconv", "laplace", ()),
    ("cli.main", "uwq.cli", "main", ("total",)),
]

# Span names of a "split" entry: one per argument type.
SPLIT_KINDS = ("poly", "grid")

# The 14 criteria of run_suite("all"); their Report.runtime_ms is the
# suites layer.
CRITERIA = (
    "antiwick_norm_bound", "antiwick_positivity", "antiwick_weyl_smoothing",
    "composition", "inverse_expansion", "laplace_convolution",
    "oscillator_spectrum", "oscillatory_kernel", "smoothing_expansion_exact",
    "stft_inversion", "stft_isometry", "tau_change", "transpose",
    "weights_conditions",
)


def span_names() -> list:
    """Every span name the tracer can report, in TRACED order."""
    out = []
    for name, _, _, extras in TRACED:
        names = [f"{name}.{k}" for k in SPLIT_KINDS] if "split" in extras else [name]
        out += [n for n in names if n not in out]
    return out


def _extras(span: str) -> tuple:
    for name, _, _, extras in TRACED:
        if span == name or span.startswith(name + "."):
            return extras
    return ()


def layer_metrics() -> list:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for span in span_names():
        extras = _extras(span)
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if "total" in extras:
            out.append((f"{span}.total_s", "s"))
        if "peak_mb" in extras:
            out.append((f"{span}.peak_mb", "MB"))
    out.append(("expansion.terms_out", "count"))
    out += [(f"suites.{c}.ms", "ms") for c in CRITERIA]
    out += [("cli.bytes_written", "bytes"), ("cli.bytes_read", "bytes")]
    out += [("process.cpu_s", "s"), ("process.trace_overhead", "ratio")]
    return out


def count_terms(result) -> int:
    """Monomials in an expansion-layer result."""
    if hasattr(result, "a") and hasattr(result, "bj"):  # InverseAwResult
        result = result.a
    if hasattr(result, "terms"):
        terms = result.terms
        if isinstance(terms, dict):  # PolySymbol
            return len(terms)
        return sum(len(t.terms) for t in terms)  # FormalExpansion
    return 0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    peak_bytes: int = 0
    terms: int = 0


class Tracer:
    """Wraps the TRACED functions and records one span per call while
    enabled.  ``absent`` lists the span names that could not be wrapped."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.enabled = False
        self.absent: list = []
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, peak: bool = False) -> int:
        if peak:
            if tracemalloc.is_tracing():
                raise RuntimeError(f"peak_mb span {name} opened inside another")
            tracemalloc.start()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, peak: bool = False, terms: int = 0) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.terms = terms
        self._stack.pop()
        if peak:
            # tracing started with the span, so it counts only the span's blocks
            span.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    def _wrap(self, span: str, fn, extras: tuple):
        peak = "peak_mb" in extras
        terms = "terms" in extras
        split = "split" in extras

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            name = span
            if split:
                name = f"{span}.{_split_kind(args[0] if args else kwargs.get('a'))}"
            idx = self.begin(name, peak)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.end(idx, peak, count_terms(out) if terms and out is not None else 0)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every TRACED function found; record the rest as absent."""
        for span, modname, attr, extras in TRACED:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                names = [f"{span}.{k}" for k in SPLIT_KINDS] if "split" in extras else [span]
                self.absent += [n for n in names if n not in self.absent]
                continue
            wrapped = self._wrap(span, fn, extras)
            for m in list(sys.modules.values()):
                name = getattr(m, "__name__", "")
                if name != "uwq" and not name.startswith("uwq."):
                    continue
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, fn))
        return self

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._restore):
            setattr(m, key, fn)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def collect(self) -> dict:
        """Aggregate and clear the recorded spans; see ``aggregate``."""
        out = aggregate(self.spans)
        self.spans = []
        return out


def _split_kind(a) -> str:
    # PolySymbol has a ``terms`` dict; sampled symbols carry ``values``.
    return "poly" if isinstance(getattr(a, "terms", None), dict) else "grid"


def aggregate(spans: list) -> dict:
    """Per span name: calls, self_s (duration minus the durations of its
    direct child spans), total_s (duration of spans not nested in a span of
    the same name), peak_mb (largest) and terms (sum)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                      "peak_mb": 0.0, "terms": 0})
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        agg["terms"] += s.terms
        agg["peak_mb"] = max(agg["peak_mb"], s.peak_bytes / 2**20)
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            agg["total_s"] += dur
    return out
