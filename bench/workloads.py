"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor (set-up),
runs one pass in ``run`` (timed), and checks a pass's outputs in ``check``
(untimed) against identities that hold for every seed.  ``check`` returns
(name, ok) pairs; each pair counts as one attempted check.

uwq functions are looked up through their modules at call time, so a
tracer that replaces module attributes sees every call a pass makes.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os

import numpy as np

TAUS = (0.0, 0.5, 1.0)
REL_TOL = 1e-10     # dense identities that hold to rounding (measured <= 1e-14)
POLY_TOL = 1e-12    # exact polynomial laws, relative to the largest coefficient seen
CONV_TOL = 1e-8     # via-Laplace vs direct quadrature (the suite's tolerance)


def _uwq(name):
    return importlib.import_module(f"uwq.{name}")


def _rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(1e-300, float(np.max(np.abs(want)))))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def band_limited(rng, shape, half_width: int) -> np.ndarray:
    """Complex samples with a random spectrum on the central
    (2 half_width)^k block, scaled to max modulus 1."""
    spec = np.zeros(shape, dtype=complex)
    block = tuple(slice(n // 2 - half_width, n // 2 + half_width) for n in shape)
    size = (2 * half_width,) * len(shape)
    spec[block] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(spec)))
    return vals / np.max(np.abs(vals))


def band_limited_symbol(rng, axis, half_width: int):
    grid = _uwq("grid")
    return grid.PhaseFunctionGrid(axis, band_limited(rng, axis.shape * 2, half_width))


def band_limited_function(rng, axis, half_width: int):
    grid = _uwq("grid")
    return grid.FunctionGrid(axis, band_limited(rng, axis.shape, half_width))


def random_poly(rng, d: int, degree: int, n_terms: int, real: bool = False,
                monomial_rng=None):
    """n_terms distinct monomials of total degree <= degree, the first of
    degree exactly ``degree``, with standard normal coefficients.  The
    monomials are drawn from ``monomial_rng`` (default ``rng``)."""
    ex = _uwq("expansion")
    shape = rng if monomial_rng is None else monomial_rng
    terms = {}
    while len(terms) < n_terms:
        total = degree if not terms else int(shape.integers(0, degree + 1))
        e = shape.multinomial(total, [1.0 / (2 * d)] * (2 * d))
        key = (tuple(int(v) for v in e[:d]), tuple(int(v) for v in e[d:]))
        if key in terms:
            continue
        c = rng.standard_normal()
        terms[key] = complex(c) if real else complex(c, rng.standard_normal())
    return ex.PolySymbol(d, terms)


def _scale(*polys) -> float:
    return max([abs(c) for p in polys for c in p.terms.values()] + [1e-300])


def poly_close(p, q, *seen) -> bool:
    """p == q coefficientwise up to POLY_TOL times the largest coefficient of
    p, q and any intermediate in ``seen``: cancellation from the largest
    intermediate sets the rounding floor."""
    bound = POLY_TOL * _scale(p, q, *seen)
    keys = set(p.terms) | set(q.terms)
    return all(abs(p.terms.get(k, 0.0) - q.terms.get(k, 0.0)) <= bound for k in keys)


# ---------------------------------------------------------------------------
# verify: the full identity suite, as users run it
# ---------------------------------------------------------------------------

class Verify:
    """run_suite("all") at the defaults with the benchmark's seed."""

    def __init__(self, seed: int, workdir: str):
        self.suites = _uwq("suites")
        self.params = self.suites.SuiteParams(seed=seed)

    def run(self):
        return self.suites.run_suite("all", self.params)

    def pass_metrics(self, reports) -> dict:
        return {f"suites.{r.name}.ms": r.runtime_ms for r in reports}

    def check(self, reports):
        return [(r.name, r.status == "pass") for r in reports]


# ---------------------------------------------------------------------------
# operators: in-process assembly on dense grids, no file I/O
# ---------------------------------------------------------------------------

class Operators:
    """1-d n=512 L=8 matrices and transforms; 2-d matrices at n=16 and the
    2-d STFT at n=32."""

    N, L, N2_MAT, N2_STFT, L2 = 512, 8.0, 16, 32, 8.0

    def __init__(self, seed: int, workdir: str):
        grid = _uwq("grid")
        rng = np.random.default_rng(seed)
        self.axis = grid.AxisGrid(self.N, self.L, 1)
        self.a = band_limited_symbol(rng, self.axis, 12)
        self.p = random_poly(rng, 1, 4, 6, real=True)
        self.u = band_limited_function(rng, self.axis, 20)
        self.axis2 = grid.AxisGrid(self.N2_MAT, self.L2, 2)
        self.a2 = band_limited_symbol(rng, self.axis2, 3)
        self.p2 = random_poly(rng, 2, 4, 4, real=True)
        self.u2 = band_limited_function(rng, self.axis2, 3)
        self.axis2s = grid.AxisGrid(self.N2_STFT, self.L2, 2)
        self.u2s = band_limited_function(rng, self.axis2s, 6)

    def run(self):
        q, st = _uwq("quant"), _uwq("stft")
        a, p, u = self.a, self.p, self.u
        out = {}
        aw = q.anti_wick_matrix(a)
        out["aw_u"] = q.apply_operator(aw, u).values
        out["aw_direct"] = q.anti_wick_direct(a, u).values
        out["weyl_poly"] = q.weyl(p, self.axis).entries
        out["kn_poly"] = q.kohn_nirenberg(p, self.axis).entries
        out["weyl_grid"] = q.weyl(a).entries
        out["kn_grid"] = q.kohn_nirenberg(a).entries
        out["roundtrip"] = [q.symbol_from_kernel(q.kernel_from_symbol(a, t), t).values
                            for t in TAUS]
        out["smooth"] = q.gauss_smooth(a).values
        out["u_back"] = st.stft_adjoint(st.stft(u)).values
        # 2-d: Anti-Wick from the polynomial path (samples the symbol), Weyl
        # on both paths, and the STFT at n=32, which sets the peak memory.
        aw2 = q.anti_wick_matrix(self.p2, self.axis2)
        out["aw2_u"] = q.apply_operator(aw2, self.u2).values
        out["aw2_direct"] = q.anti_wick_direct(q.sample_symbol(self.p2, self.axis2),
                                               self.u2).values
        out["weyl2_poly"] = q.weyl(self.p2, self.axis2).entries
        out["weyl2_grid"] = q.weyl(self.a2).entries
        out["u2s_back"] = st.stft_adjoint(st.stft(self.u2s)).values
        return out

    def check(self, out):
        half = np.abs(self.axis.points()) <= self.axis.L / 2.0
        a = self.a.values
        checks = [
            ("antiwick_matrix_vs_direct", _rel_err(out["aw_u"], out["aw_direct"]) <= REL_TOL),
            ("antiwick_matrix_vs_direct_2d",
             _rel_err(out["aw2_u"], out["aw2_direct"]) <= REL_TOL),
        ]
        for t, rec in zip(TAUS, out["roundtrip"]):
            checks.append((f"symbol_kernel_roundtrip_tau{t}",
                           _rel_err(rec[half], a[half]) <= REL_TOL))
        checks += [
            ("stft_inversion", _rel_err(out["u_back"] / (2.0 * math.pi), self.u.values)
             <= REL_TOL),
            ("stft_inversion_2d",
             _rel_err(out["u2s_back"] / (2.0 * math.pi) ** 2, self.u2s.values) <= REL_TOL),
            # the smoothing kernel has unit mass on the grid to rounding
            ("gauss_smooth_mass",
             abs(out["smooth"].sum() - a.sum()) <= REL_TOL * np.abs(a).sum()),
            # real polynomial symbols have Hermitian Weyl matrices
            ("weyl_poly_hermitian",
             _rel_err(out["weyl_poly"], out["weyl_poly"].conj().T) <= REL_TOL),
            ("weyl2_poly_hermitian",
             _rel_err(out["weyl2_poly"], out["weyl2_poly"].conj().T) <= REL_TOL),
        ]
        finite = all(np.all(np.isfinite(out[k]))
                     for k in ("kn_poly", "weyl_grid", "kn_grid", "weyl2_grid"))
        checks.append(("matrices_finite", finite))
        return checks


# ---------------------------------------------------------------------------
# cli-io: the one-shot CLI writing and reading grid and operator CSVs
# ---------------------------------------------------------------------------

class CliIo:
    """uwq quantize (poly and grid symbol), stft and stft --inverse at
    n=512, L=8, through cli.main."""

    N, L, TAU = 512, 8.0, 0.5

    def __init__(self, seed: int, workdir: str):
        grid = _uwq("grid")
        rng = np.random.default_rng(seed)
        self.dir = workdir
        self.axis = grid.AxisGrid(self.N, self.L, 1)
        self.p = random_poly(rng, 1, 4, 6)
        self.a = band_limited_symbol(rng, self.axis, 12)
        self.u = band_limited_function(rng, self.axis, 20)
        f = self.path
        rows = ", ".join(f"[{ke[0]}, {xe[0]}, {c.real!r}, {c.imag!r}]"
                         for (xe, ke), c in self.p.terms.items())
        with open(f("poly.toml"), "w", encoding="utf-8") as fh:
            fh.write(f'kind = "poly"\nd = 1\nterms = [{rows}]\n')
        grid.save_phase(self.a, f("symbol.csv"))
        with open(f("grid.toml"), "w", encoding="utf-8") as fh:
            fh.write(f'kind = "grid"\npath = "{f("symbol.csv")}"\n')
        grid.save_function(self.u, f("u.csv"))
        self.expected = None
        self.verified = {}
        n, L = str(self.N), repr(self.L)
        tau = repr(self.TAU)
        self.commands = [
            (["quantize", "--symbol", f("poly.toml"), "--tau", tau, "--n", n, "--L", L,
              "--out", f("op_poly.csv")], ["poly.toml"], "op_poly.csv"),
            (["quantize", "--symbol", f("grid.toml"), "--tau", tau, "--out", f("op_grid.csv")],
             ["grid.toml", "symbol.csv"], "op_grid.csv"),
            (["stft", "--in", f("u.csv"), "--out", f("stft.csv")], ["u.csv"], "stft.csv"),
            (["stft", "--inverse", "--in", f("stft.csv"), "--out", f("u_back.csv")],
             ["stft.csv"], "u_back.csv"),
        ]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def run(self):
        cli = _uwq("cli")
        return [cli.main(argv) for argv, _, _ in self.commands]

    def pass_metrics(self, codes) -> dict:
        """Bytes the CLI wrote and read in one pass, from the file sizes."""
        def size(name):
            return os.path.getsize(name) if os.path.exists(name) else 0

        return {
            "cli.bytes_written": sum(size(self.path(out)) for _, _, out in self.commands),
            "cli.bytes_read": sum(size(self.path(i)) for _, ins, _ in self.commands
                                  for i in ins),
        }

    def _expect(self):
        q, st = _uwq("quant"), _uwq("stft")
        V = st.stft(self.u)
        return {
            "op_poly.csv": q.operator_matrix(
                q.kernel_from_symbol(self.p, self.TAU, self.axis)).entries,
            "op_grid.csv": q.operator_matrix(q.kernel_from_symbol(self.a, self.TAU)).entries,
            "stft.csv": V.values,
            "u_back.csv": st.stft_adjoint(V).values / (2.0 * math.pi),
        }

    def read_back(self, name: str) -> np.ndarray:
        """Values of a CLI CSV (operator rows r,c,re,im; grid rows i,re,im)."""
        data = np.loadtxt(self.path(name), delimiter=",", comments="#", ndmin=2)
        vals = data[:, -2] + 1j * data[:, -1]
        if data.shape[1] == 4:
            N = self.axis.size
            out = np.full((N, N), np.nan, dtype=complex)
            out[data[:, 0].astype(int), data[:, 1].astype(int)] = vals
            return out
        out = np.full(data.shape[0], np.nan, dtype=complex)
        out[data[:, 0].astype(int)] = vals
        return out

    def _matches(self, name: str) -> bool:
        """The first time, parse the file and compare it exactly with the
        in-memory result; later passes must write the same bytes as that
        verified file (same inputs in this process)."""
        digest = hashlib.sha256()
        with open(self.path(name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        if name in self.verified:
            return digest.digest() == self.verified[name]
        if self.expected is None:
            self.expected = self._expect()
        got, want = self.read_back(name), self.expected[name]
        ok = got.size == want.size and np.array_equal(got, want.reshape(got.shape))
        if ok:
            self.verified[name] = digest.digest()
        return bool(ok)

    def check(self, codes):
        return [(f"{argv[0]}:{out}", code == 0 and self._matches(out))
                for (argv, _, out), code in zip(self.commands, codes)]


# ---------------------------------------------------------------------------
# calculus: exact polynomial calculus and scalar weight loops
# ---------------------------------------------------------------------------

class Calculus:
    """Random polynomials (d=1 degree 12, d=2 degree 8) through the
    expansion calculus; Gevrey weight checks; Gaussian-convolution sweeps."""

    GEVREY = (1.5, 2.0, 3.0)
    SWEEP_S = (-2.0, -1.0, -0.25)
    MONOMIAL_SEED = 0

    def __init__(self, seed: int, workdir: str):
        ex, wt, gc, grid = (_uwq(m) for m in ("expansion", "weights", "gaussconv", "grid"))
        rng = np.random.default_rng(seed)
        # the expansion calculus costs what the monomials and the taus
        # dictate, so they are the same for every seed; the seed draws the
        # coefficients
        shapes = np.random.default_rng(self.MONOMIAL_SEED)
        self.polys = ([random_poly(rng, 1, 12, 8, monomial_rng=shapes) for _ in range(6)]
                      + [random_poly(rng, 2, 8, 6, monomial_rng=shapes) for _ in range(6)])
        self.taus = [float(t) for t in shapes.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=3)]
        # gamma-norm symbols: fixed monomials, seeded coefficients, so every
        # seed evaluates the same derivative pairs
        monomials = ([(2, 2), (1, 0), (0, 0)],
                     [(4, 2), (2, 4), (3, 0), (0, 1), (0, 0)])
        self.gamma_symbols = [
            ex.PolySymbol(1, {((i,), (j,)): float(rng.uniform(0.5, 1.5)) for i, j in group})
            for group in monomials]
        self.class_params = ex.ClassParams(rho=1.0, h=1.0, m=1.0,
                                           weight=wt.WeightSequence.gevrey(2.0))
        self.weights = [(wt.WeightSequence.gevrey(s),
                         wt.Ultrapolynomial(weight=wt.WeightSequence.gevrey(s, truncation=192),
                                            scale=1.0, q=1, truncation=20000))
                        for s in self.GEVREY]
        self.bound_grid = np.sort(rng.uniform(0.0, 50.0, 200))
        self.densities = [gc.CompactDensity.indicator(-1.0, 1.0),
                          gc.CompactDensity.gaussian_bump(-1.0, 1.0),
                          gc.CompactDensity.poly_times_bump(list(rng.uniform(-1, 1, 3)),
                                                            -1.0, 1.0)]
        self.sweep_x = rng.uniform(-5.0, 5.0, 21)
        # Gaussian test function on the (x, y) box; for the symbol 1 the
        # regularized pairing tends to sigma sqrt(pi) e^{-(x0-y0)^2/(4 sigma^2)}
        self.chi_params = (*rng.uniform(-0.4, 0.4, 2), rng.uniform(0.18, 0.26))
        x0, y0, sig = self.chi_params
        self.chi = grid.FunctionGrid.from_callable(
            grid.AxisGrid(256, 2.5, 2),
            lambda X, Y: np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2.0 * sig**2)))

    def run(self):
        ex, wt, gc = (_uwq(m) for m in ("expansion", "weights", "gaussconv"))
        out = {"heat": [], "inverse": [], "transpose": [], "tau": [], "aw": []}
        t1, t2, tt = self.taus
        for a in self.polys:
            smoothed = ex.heat_quarter(a, +1)
            out["heat"].append((a, smoothed, ex.heat_quarter(smoothed, -1)))
            out["aw"].append(ex.aw_to_weyl_terms(a))
            out["inverse"].append((a, ex.inverse_aw_recursion(a).a))
            out["tau"].append(ex.tau_change_terms(a, t1, t2))
            once = ex.transpose_terms(a, tt)
            out["transpose"].append((a, once, ex.transpose_terms(once, tt)))
        d1 = [p for p in self.polys if p.d == 1][:3]
        d2 = [p for p in self.polys if p.d == 2][:3]
        out["compose"] = [ex.compose_terms(a, b) for group in (d1, d2)
                          for a in group for b in group]
        out["gamma"] = [ex.gamma_norm_estimate(a, self.class_params, 10.0)
                        for a in self.gamma_symbols]
        out["weights"] = []
        for w, P in self.weights:
            rep = wt.check_conditions(w)
            bound = wt.check_assoc_bound(w, 1.0, 20)
            k = wt.fit_bound_scale(P, self.bound_grid)
            ok = k is not None and wt.verify_ultrapoly_bound(P, k, self.bound_grid).ok
            out["weights"].append((rep.m1_ok and rep.m2_ok and rep.m3_ok, bound, ok))
        out["conv"] = [(gc.conv_gauss_via_laplace(S, s, x), gc.conv_gauss_direct(S, s, x))
                       for S in self.densities for s in self.SWEEP_S for x in self.sweep_x]
        out["osc"] = gc.oscillatory_kernel(ex.PolySymbol.one(), self.chi,
                                           (0.4, 0.2, 0.1, 0.05, 0.025)).extrapolated
        return out

    def expansion_checks(self, out):
        """The exact calculus laws, each on every polynomial."""
        ex = _uwq("expansion")
        checks = []
        for i, (a, smoothed, back) in enumerate(out["heat"]):
            checks.append((f"heat_inverse_{i}", poly_close(back, a, smoothed)))
        for i, (b, a) in enumerate(out["inverse"]):
            smoothed = ex.heat_quarter(a, +1)
            checks.append((f"inverse_aw_smooths_back_{i}", poly_close(smoothed, b, a)))
        for i, (a, once, twice) in enumerate(out["transpose"]):
            checks.append((f"transpose_involution_{i}", poly_close(twice, a, once)))
        for i, (a, e) in enumerate(zip(self.polys, out["aw"])):
            total = ex.expansion_partial_sum(e, len(e))
            checks.append((f"aw_expansion_is_smoothing_{i}",
                           poly_close(total, out["heat"][i][1], *e.terms)))
        return checks

    def check(self, out):
        checks = self.expansion_checks(out)
        checks += [(f"gamma_norm_{i}", bool(math.isfinite(g) and g > 0.0))
                   for i, g in enumerate(out["gamma"])]
        for s, (cond, bound, lower) in zip(self.GEVREY, out["weights"]):
            checks += [(f"gevrey{s}_conditions", bool(cond)),
                       (f"gevrey{s}_assoc_bound", bool(bound)),
                       (f"gevrey{s}_lower_bound", bool(lower))]
        for i, (via, direct) in enumerate(out["conv"]):
            checks.append((f"conv_{i}", abs(via - direct) / (1.0 + abs(direct)) <= CONV_TOL))
        x0, y0, sig = self.chi_params
        exact = sig * math.sqrt(math.pi) * math.exp(-((x0 - y0) ** 2) / (4.0 * sig**2))
        checks.append(("oscillatory_limit", abs(out["osc"] - exact) <= CONV_TOL * exact))
        return checks


WORKLOADS = {
    "verify": Verify,
    "operators": Operators,
    "cli-io": CliIo,
    "calculus": Calculus,
}
