"""Command-line interface: one subcommand per module plus a ``verify``
driver for the full identity suite.

A symbol file (``--symbol``, ``compose:PATH``) is JSON when its first
non-blank character is ``{``, TOML 1.0 otherwise.  Its string field ``kind`` fixes the other
fields, all required:

- ``poly``: an integer ``d >= 1`` and ``terms``, a non-empty array of rows:
  d xi exponents, d x exponents, then re and im of the coefficient.
- ``grid``: a string ``path`` to a phase-grid CSV, which fixes the grid.
- ``example5``: ``d``, a finite ``l < 1`` and ``terms`` rows of d xi
  exponents, re and im: exp(l |x|^2) P(xi), read by ``osc-kernel`` only.

Exponents are non-negative integers and coefficients finite numbers, never
booleans or strings.  Anything else is a ``SchemaError``, never a default.

Each subcommand declares only the options it reads.  An option that applies
on one path only is rejected with ``UwqError`` (exit status 2) on the other.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tomllib
from typing import List, Optional

import numpy as np

from . import constants
from .errors import SchemaError, UwqError
from .expansion import (
    PolySymbol,
    aw_to_weyl_terms,
    compose_terms,
    inverse_aw_recursion,
    tau_change_terms,
    transpose_terms,
)
from .gaussconv import (
    CompactDensity,
    SeparableSymbol,
    conv_gauss_direct,
    conv_gauss_via_laplace,
    laplace,
    oscillatory_kernel,
    smoothed_gaussian_symbol,
)
from .grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    load_function,
    load_phase,
    save_function,
    save_grid,
    save_phase,
)
from .quant import (
    anti_wick_matrix,
    kernel_from_symbol,
    operator_matrix,
    verify_smoothing_identity,
)
from .stft import stft, stft_adjoint
from .suites import Report, SuiteParams, run_suite, report_header
from .weights import WeightSequence, assoc_fn, check_conditions, load_weights

__all__ = ["load_symbol", "emit_report", "build_parser", "main"]


_ALLOWED_KEYS = {
    "poly": {"kind", "d", "terms"},
    "grid": {"kind", "path"},
    "example5": {"kind", "d", "terms", "l"},
}


def _schema_int(v, what: str) -> int:
    # bool is an int subclass, so true/false would read as 1/0
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise SchemaError(f"{what} must be an integer, got {v!r}")


def _schema_float(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{what} must be a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise SchemaError(f"{what} must be finite, got {v!r}")
    return f


def _symbol_from_dict(data: dict):
    """The symbol a parsed symbol file describes, after the schema checks of
    the module docstring."""
    if "kind" not in data:
        raise SchemaError("missing required field 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _ALLOWED_KEYS:
        raise SchemaError(f"unknown kind {kind!r}; expected poly, grid, or example5")
    extra = set(data) - _ALLOWED_KEYS[kind]
    if extra:
        raise SchemaError(f"unexpected fields for kind={kind}: {sorted(extra)}")
    missing = _ALLOWED_KEYS[kind] - set(data)
    if missing:
        raise SchemaError(f"missing fields for kind={kind}: {sorted(missing)}")
    if kind == "grid":
        if not isinstance(data["path"], str):
            raise SchemaError(f"path must be a string, got {data['path']!r}")
        return load_phase(data["path"])
    d = _schema_int(data["d"], "d")
    if d < 1:
        raise SchemaError("d must be a positive integer")
    terms = data["terms"]
    if not isinstance(terms, list) or not terms:
        raise SchemaError("terms must be a non-empty array of rows")
    width = (2 * d if kind == "poly" else d) + 2
    coeffs = {}
    for row in terms:
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"each term row needs {width} entries "
                              f"({'2d' if kind == 'poly' else 'd'} exponents, re, im)")
        exps = [_schema_int(v, "each exponent") for v in row[:-2]]
        if any(e < 0 for e in exps):
            raise SchemaError("exponents must be non-negative integers")
        re, im = (_schema_float(v, "coefficients") for v in row[-2:])
        # a row lists the xi exponents first, then (poly only) the x exponents
        key = (tuple(exps[d:]) if kind == "poly" else (0,) * d, tuple(exps[:d]))
        coeffs[key] = coeffs.get(key, 0.0) + complex(re, im)
    P = PolySymbol(d, coeffs)
    if kind == "example5":
        l = _schema_float(data["l"], "l")
        if l >= 1.0:
            raise SchemaError("example5 requires l < 1")
        return smoothed_gaussian_symbol(l, P)
    return P


def load_symbol(path):
    """The symbol of a symbol file: a ``PolySymbol`` (poly), the
    ``PhaseFunctionGrid`` it points to (grid), or the ``SeparableSymbol`` of
    the Gaussian smoothing of exp(l x^2) P(xi) (example5)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text) if text.lstrip().startswith("{") else tomllib.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, tomllib.TOMLDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return _symbol_from_dict(data)


def emit_report(reports: List[Report], header: dict) -> bytes:
    """The ``verify --json`` document: the run header and one record per
    criterion."""
    doc = {
        "header": header,
        "reports": [
            {"name": r.name, "status": r.status, "measured": r.measured,
             "tolerance": r.tolerance, "runtime_ms": r.runtime_ms,
             "detail": r.detail}
            for r in reports
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _poly_of(a) -> PolySymbol:
    """A loaded symbol that must be polynomial; example5 carries an
    exp(l|x|^2) factor that only osc-kernel reads, so it is rejected rather
    than dropped."""
    if isinstance(a, SeparableSymbol):
        raise UwqError("an example5 symbol is not polynomial; only osc-kernel reads it")
    if not isinstance(a, PolySymbol):
        raise UwqError("a grid symbol has no polynomial form; only quantize and antiwick read it")
    return a


def _operator_symbol(args):
    """Symbol and grid of ``quantize``/``antiwick``.  A polynomial symbol is
    laid on the grid of --n/--L (defaults by its dimension); a sampled grid
    symbol carries its own grid, so --n/--L are rejected there."""
    a = load_symbol(args.symbol)
    if isinstance(a, PhaseFunctionGrid):
        if args.n is not None or args.L is not None:
            raise UwqError("--n/--L do not apply to a grid symbol; its file fixes the grid")
        return a, None
    a = _poly_of(a)
    d = a.d
    n = args.n if args.n is not None else (constants.DEFAULT_N_1D if d == 1 else constants.DEFAULT_N_2D)
    L = args.L if args.L is not None else (constants.DEFAULT_L_1D if d == 1 else constants.DEFAULT_L_2D)
    return a, AxisGrid(n, L, d)


def _numbers(parts: List[str], what: str, count: Optional[int] = None) -> List[float]:
    """The floats of a split option value; a wrong count or a malformed
    number is a ``UwqError``, not a traceback."""
    if count is not None and len(parts) != count:
        raise UwqError(f"{what}: expected {count} number{'s' * (count != 1)}, got {len(parts)}")
    out = []
    for p in parts:
        try:
            out.append(float(p))
        except ValueError:
            raise UwqError(f"{what}: {p!r} is not a number") from None
    return out


def _write_out(data: bytes, out: Optional[str]):
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _cmd_weights(args) -> int:
    if (args.gevrey is None) == (args.weights_file is None):
        raise UwqError("give exactly one of --gevrey S or --weights-file PATH")
    if args.weights_file is not None:
        if args.truncation is not None:
            raise UwqError("--truncation applies to --gevrey only; a weight file fixes its own length")
        w = load_weights(args.weights_file)
    else:
        trunc = constants.WEIGHTS_TRUNCATION if args.truncation is None else args.truncation
        w = WeightSequence.gevrey(args.gevrey, truncation=trunc)
    lines = []
    if args.check:
        rep = check_conditions(w)
        lines.append(f"# m1_ok={rep.m1_ok} m2_H={rep.m2_H} m2_c0={rep.m2_c0} "
                     f"m3_ok={rep.m3_ok} m3_c0={rep.m3_c0}")
    lines.append("rho,M,saturated")
    rhos = _numbers([tok for tok in args.rho.split(",") if tok], "--rho")
    res = assoc_fn(w, np.array(rhos, dtype=float))
    for rho, value, saturated in zip(rhos, res.value, res.saturated):
        lines.append(f"{rho:.17g},{value:.17g},{int(saturated)}")
    _write_out(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_stft(args) -> int:
    if args.inverse:
        F = load_phase(getattr(args, "in"))
        u = stft_adjoint(F)
        d = F.xaxis.d
        out = FunctionGrid(F.xaxis, u.values / (2.0 * math.pi) ** d)
        save_function(out, args.out)
    else:
        u = load_function(getattr(args, "in"))
        save_phase(stft(u), args.out)
    return 0


def _cmd_quantize(args) -> int:
    a, axis = _operator_symbol(args)
    M = operator_matrix(kernel_from_symbol(a, args.tau, axis))
    save_grid(M.axis, M.entries, args.out, "operator")
    return 0


def _cmd_antiwick(args) -> int:
    if not (args.verify_smoothing or args.out):
        raise UwqError("--out is required for operator output")
    a, axis = _operator_symbol(args)
    if args.verify_smoothing:
        rep = verify_smoothing_identity(a, axis)
        _write_out(f"max_err {rep['max_err']:.6e} (full matrix {rep['max_err_full']:.6e})\n".encode(),
                   args.out)
        return 0
    M = anti_wick_matrix(a, axis)
    save_grid(M.axis, M.entries, args.out, "operator")
    return 0


def _print_poly_table(polys, out):
    lines = ["order,monomial,re,im"]
    for order, p in enumerate(polys):
        if p.is_zero():
            continue
        for (xe, ke), c in p.sorted_terms():
            mono = "".join([f"x{i}^{e}" for i, e in enumerate(xe) if e]
                           + [f"xi{i}^{e}" for i, e in enumerate(ke) if e]) or "1"
            lines.append(f"{order},{mono},{c.real:.17g},{c.imag:.17g}")
    _write_out(("\n".join(lines) + "\n").encode(), out)


def _cmd_expand(args) -> int:
    a = _poly_of(load_symbol(args.symbol))
    theorem = args.theorem
    if args.max_order is not None and theorem not in ("aw", "inverse"):
        raise UwqError("--max-order applies to the aw and inverse theorems only")
    if theorem == "aw":
        e = aw_to_weyl_terms(a, args.max_order)
        _print_poly_table(e.terms, args.out)
    elif theorem == "inverse":
        res = inverse_aw_recursion(a, args.max_order)
        _print_poly_table([res.a], args.out)
    elif theorem.startswith("tau:"):
        t1, t = _numbers(theorem.split(":")[1:], "--theorem tau:T1:T", 2)
        _print_poly_table([tau_change_terms(a, t1, t)], args.out)
    elif theorem.startswith("transpose:"):
        (t,) = _numbers(theorem.split(":")[1:], "--theorem transpose:T", 1)
        _print_poly_table([transpose_terms(a, t)], args.out)
    elif theorem.startswith("compose:"):
        other = _poly_of(load_symbol(theorem.split(":", 1)[1]))
        _print_poly_table([compose_terms(a, other)], args.out)
    else:
        raise UwqError("theorem must be aw, inverse, tau:T1:T, transpose:T, or compose:PATH")
    return 0


def _parse_density(spec: str) -> CompactDensity:
    parts = spec.split(":")
    if parts[0] == "indicator" and len(parts) == 3:
        return CompactDensity.indicator(*_numbers(parts[1:], "--density bounds"))
    if parts[0] == "bump" and len(parts) == 3:
        return CompactDensity.gaussian_bump(*_numbers(parts[1:], "--density bounds"))
    if parts[0] == "polybump" and len(parts) == 4:
        coeffs = _numbers(parts[1].split(","), "--density coefficients")
        return CompactDensity.poly_times_bump(coeffs, *_numbers(parts[2:], "--density bounds"))
    raise UwqError("density must be indicator:lo:hi, bump:lo:hi, or polybump:c0,c1,..:lo:hi")


def _cmd_gaussconv(args) -> int:
    S = _parse_density(args.density)
    a, b, step = _numbers(args.x.split(":"), "--x a:b:step", 3)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step) and step > 0.0):
        raise UwqError("--x a:b:step needs finite a, b and a step > 0")
    xs = np.arange(a, b + 0.5 * step, step)
    lines = ["x,via_laplace,direct,relerr"]
    for xv in xs:
        via = conv_gauss_via_laplace(S, args.s, xv)
        if args.compare:
            direct = conv_gauss_direct(S, args.s, xv)
            rel = abs(via - direct) / (1.0 + abs(direct))
            lines.append(f"{xv:.17g},{via.real:.17g},{direct.real:.17g},{rel:.6e}")
        else:
            lines.append(f"{xv:.17g},{via.real:.17g},,")
    _write_out(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_laplace(args) -> int:
    S = _parse_density(args.density)
    re, im = _numbers(args.zeta.split(":"), "--zeta re:im", 2)
    val = laplace(S, complex(re, im))
    _write_out(f"{val.real:.17g}{val.imag:+.17g}j\n".encode(), args.out)
    return 0


def _cmd_osc_kernel(args) -> int:
    sym = load_symbol(args.symbol)
    chi = load_function(args.chi)
    deltas = _numbers(args.deltas.split(","), "--deltas")
    rep = oscillatory_kernel(sym, chi, deltas)
    lines = ["delta,re,im,cauchy_diff"]
    for i, (dl, v) in enumerate(zip(rep.deltas, rep.values)):
        dstr = f"{rep.diffs[i-1]:.6e}" if i > 0 else ""
        lines.append(f"{dl:.17g},{v.real:.17g},{v.imag:.17g},{dstr}")
    lines.append(f"extrapolated,{rep.extrapolated.real:.17g},{rep.extrapolated.imag:.17g},")
    _write_out(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_verify(args) -> int:
    params = SuiteParams(n=args.n, L=args.L, d=args.d)
    reports = run_suite(args.suite, params)
    header = report_header(params)
    if args.json:
        _write_out(emit_report(reports, header), args.out)
    else:
        lines = [f"# {k}={v}" for k, v in header.items()]
        lines.append(f"{'criterion':34s} {'status':6s} {'measured':>12s} {'tolerance':>12s} {'ms':>8s}")
        for r in reports:
            lines.append(f"{r.name:34s} {r.status:6s} {r.measured:12.4e} "
                         f"{r.tolerance:12.4e} {r.runtime_ms:8.1f}")
        _write_out(("\n".join(lines) + "\n").encode(), args.out)
    return 0 if all(r.status == "pass" for r in reports) else 1


_STDOUT = "output file (default stdout)"


def build_parser() -> argparse.ArgumentParser:
    """The ``uwq`` parser: each subcommand declares only the options it
    reads."""
    ap = argparse.ArgumentParser(prog="uwq",
                                 description="quantization toolkit on discretized phase space")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        # no prefix matching, so an option a subcommand lacks (--d) cannot
        # stand in for one it has (--deltas, --density)
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p = command("weights", _cmd_weights, "weight-sequence table and checks")
    p.add_argument("--gevrey", type=float, default=None)
    p.add_argument("--weights-file", default=None)
    p.add_argument("--truncation", type=int, default=None,
                   help=f"Gevrey prefix length (default {constants.WEIGHTS_TRUNCATION})")
    p.add_argument("--check", action="store_true")
    p.add_argument("--rho", default="")
    p.add_argument("--out", default=None, help=_STDOUT)

    p = command("stft", _cmd_stft, "short-time Fourier transform")
    p.add_argument("--in", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out", required=True)

    p = command("quantize", _cmd_quantize, "tau-quantization operator matrix")
    p.add_argument("--symbol", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n", type=int, default=None, help="grid points per axis (polynomial symbols)")
    p.add_argument("--L", type=float, default=None, help="box half-width (polynomial symbols)")
    p.add_argument("--out", required=True)

    p = command("antiwick", _cmd_antiwick, "Anti-Wick operator matrix")
    p.add_argument("--symbol", required=True)
    p.add_argument("--verify-smoothing", action="store_true",
                   help="report the discrepancy against the smoothed Weyl matrix")
    p.add_argument("--n", type=int, default=None, help="grid points per axis (polynomial symbols)")
    p.add_argument("--L", type=float, default=None, help="box half-width (polynomial symbols)")
    p.add_argument("--out", default=None,
                   help="output file (required unless --verify-smoothing)")

    p = command("expand", _cmd_expand, "symbol expansion tables")
    p.add_argument("--symbol", required=True)
    p.add_argument("--theorem", required=True,
                   help="aw | inverse | tau:T1:T | transpose:T | compose:PATH")
    p.add_argument("--max-order", type=int, default=None, help="aw and inverse only")
    p.add_argument("--out", default=None, help=_STDOUT)

    p = command("gaussconv", _cmd_gaussconv, "Gaussian convolution identity")
    p.add_argument("--density", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", required=True, help="a:b:step evaluation grid")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--out", default=None, help=_STDOUT)

    p = command("laplace", _cmd_laplace, "Laplace transform of a density")
    p.add_argument("--density", required=True)
    p.add_argument("--zeta", required=True, help="re:im")
    p.add_argument("--out", default=None, help=_STDOUT)

    p = command("osc-kernel", _cmd_osc_kernel, "regularized kernel pairing")
    p.add_argument("--symbol", required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--deltas", required=True)
    p.add_argument("--out", default=None, help=_STDOUT)

    p = command("verify", _cmd_verify, "run identity suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--n", type=int, default=constants.DEFAULT_N_1D, help="grid points per axis")
    p.add_argument("--L", type=float, default=constants.DEFAULT_L_1D, help="box half-width")
    p.add_argument("--d", type=int, default=1, help="dimension (only 1 runs)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", default=None, help=_STDOUT)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UwqError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
