import io
import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from uwq import grid
from uwq.cli import main
from uwq.errors import UwqError
from uwq.grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    fourier,
    gaussian_window,
    inner,
    inverse_fourier,
    l2_norm,
    load_function,
    load_phase,
    quadrature,
    save_function,
    save_grid,
    save_phase,
    _BLOCK_ROWS,
    _CELLS,
    _load_grid,
)


@pytest.fixture(scope="module")
def axis():
    return AxisGrid(128, 10.0, 1)


def band_limited(axis, seed, half_width=20):
    rng = np.random.default_rng(seed)
    n = axis.n
    spec = np.zeros(n, dtype=complex)
    spec[n // 2 - half_width : n // 2 + half_width] = rng.standard_normal(
        2 * half_width
    ) + 1j * rng.standard_normal(2 * half_width)
    return FunctionGrid(axis, np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(spec))) * n)


class TestAxisGrid:
    def test_duality_relation(self):
        for n, L in [(128, 10.0), (64, 8.0), (32, 2.5)]:
            ax = AxisGrid(n, L, 1)
            assert ax.dx * ax.dxi * ax.n == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_dual_is_involutive(self, axis):
        assert axis.dual().dual() == axis

    def test_validation(self):
        with pytest.raises(UwqError):
            AxisGrid(100, 10.0, 1)  # not a power of two
        with pytest.raises(UwqError):
            AxisGrid(64, -1.0, 1)
        with pytest.raises(UwqError):
            AxisGrid(64, 8.0, 3)
        # inf and 1e308 overflow dx = 2L/n, 1e-320 overflows dxi = pi/L
        for L in (math.inf, 1e308, 1e-320, math.nan):
            with pytest.raises(UwqError, match="L"):
                AxisGrid(64, L, 1)


class TestFourier:
    def test_gaussian_closed_form(self, axis):
        g0 = gaussian_window(axis)
        F = fourier(g0)
        xi = axis.dual().points()
        exact = math.pi ** (-0.25) * math.sqrt(2.0 * math.pi) * np.exp(-(xi**2) / 2.0)
        assert np.max(np.abs(F.values - exact)) < 1e-12

    def test_constant_gives_delta_column(self, axis):
        F = fourier(FunctionGrid(axis, np.ones(axis.n, dtype=complex)))
        expected = np.zeros(axis.n)
        expected[axis.n // 2] = 2.0 * axis.L
        assert np.max(np.abs(F.values - expected)) < 1e-11

    def test_linearity(self, axis):
        u, v = band_limited(axis, 0), band_limited(axis, 1)
        a, b = 0.7 - 0.2j, 1.3 + 0.4j
        lhs = fourier(FunctionGrid(axis, a * u.values + b * v.values)).values
        rhs = a * fourier(u).values + b * fourier(v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-14 * np.max(np.abs(rhs))

    def test_round_trip(self, axis):
        u = band_limited(axis, 2)
        back = inverse_fourier(fourier(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-13 * np.max(np.abs(u.values))

    def test_gaussian_round_trip(self, axis):
        g0 = gaussian_window(axis)
        back = inverse_fourier(fourier(g0))
        assert np.max(np.abs(back.values - g0.values)) < 1e-12

    def test_inverse_of_constant_is_delta(self, axis):
        F = FunctionGrid(axis.dual(), np.ones(axis.n, dtype=complex))
        u = inverse_fourier(F)
        expected = np.zeros(axis.n)
        expected[axis.n // 2] = 1.0 / axis.dx
        assert np.max(np.abs(u.values - expected)) < 1e-10

    def test_parseval(self, axis):
        for seed in range(3):
            u = band_limited(axis, seed)
            F = fourier(u)
            lhs = axis.dxi * np.sum(np.abs(F.values) ** 2)
            rhs = 2.0 * math.pi * axis.dx * np.sum(np.abs(u.values) ** 2)
            assert abs(lhs - rhs) < 1e-12 * rhs

    def test_double_fourier_reflects(self, axis):
        # F F u = 2 pi * u(-x), with reflection taken on the periodic grid
        g0 = gaussian_window(axis)
        FF = fourier(fourier(g0))
        assert FF.axis == axis
        n = axis.n
        reflected = g0.values[(n - np.arange(n)) % n]
        assert np.max(np.abs(FF.values - 2.0 * math.pi * reflected)) < 1e-12


class TestGaussianWindow:
    def test_peak_value(self, axis):
        g0 = gaussian_window(axis)
        assert g0.values[axis.n // 2].real == pytest.approx(math.pi ** (-0.25), abs=1e-15)

    def test_unit_norm(self, axis):
        g0 = gaussian_window(axis)
        sq = quadrature(FunctionGrid(axis, np.abs(g0.values) ** 2))
        assert abs(sq - 1.0) < 1e-12

    def test_modulation_identity(self, axis):
        eta0 = 3.0 * axis.dxi
        g = gaussian_window(axis, y=1.0, eta=eta0)
        base = gaussian_window(axis, y=1.0)
        phase = np.exp(1j * axis.points() * eta0)
        assert np.max(np.abs(g.values - phase * base.values)) < 1e-14

    def test_norm_invariance(self, axis):
        ref = l2_norm(gaussian_window(axis))
        for y, eta in [(2.0, 0.0), (-3.5, 4.0), (4.9, -7.0)]:
            assert l2_norm(gaussian_window(axis, y=y, eta=eta)) == pytest.approx(ref, abs=1e-12)

    def test_off_box_center_warns(self, axis):
        with pytest.warns(UserWarning):
            gaussian_window(axis, y=0.9 * axis.L)


class TestQuadrature:
    def test_gaussian_square(self, axis):
        g0 = gaussian_window(axis)
        assert abs(quadrature(FunctionGrid(axis, np.abs(g0.values) ** 2)) - 1.0) < 1e-12

    def test_zero(self, axis):
        assert quadrature(FunctionGrid.zero(axis)) == 0.0

    def test_odd_function_cancels(self, axis):
        # odd and vanishing at -L, so the half-open grid has full mirrors
        pts = axis.points()
        u = FunctionGrid(axis, pts * np.exp(-(pts**2)))
        assert abs(quadrature(u)) < 1e-13


class TestSerialization:
    def test_function_round_trip(self, axis, tmp_path):
        u = band_limited(axis, 5)
        path = tmp_path / "u.csv"
        save_function(u, path)
        back = load_function(path)
        assert back.axis == axis
        np.testing.assert_allclose(back.values, u.values, rtol=0, atol=1e-16)

    @pytest.mark.parametrize("name", ["u.gz", "u.bz2", "u.xz", "u.lzma"])
    def test_compressor_suffix_is_plain_text(self, tmp_path, name):
        # the files are plain text whatever their name; a reader that hands
        # np.loadtxt the path would open these through a decompressor
        ax = AxisGrid(16, 4.0, 1)
        u = band_limited(ax, 3, half_width=4)
        path = tmp_path / name
        save_function(u, path)
        back = load_function(path)
        assert back.axis == ax
        np.testing.assert_array_equal(back.values, u.values)

    def test_phase_round_trip(self, tmp_path):
        ax = AxisGrid(16, 4.0, 1)
        rng = np.random.default_rng(0)
        a = PhaseFunctionGrid(ax, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        path = tmp_path / "a.csv"
        save_phase(a, path)
        back = load_phase(path)
        assert back.xaxis == ax
        np.testing.assert_allclose(back.values, a.values, rtol=0, atol=1e-16)

    def test_header_required(self, tmp_path, capsys):
        rows = "0,1,0\n1,1,0\n"
        for text in [
            rows,
            "# L=1 d=1\n" + rows,
            "# n=2 d=1\n" + rows,
            "# n=2 L=1\n" + rows,
            "# n=two L=1 d=1\n" + rows,
            "# n=2.0 L=1 d=1\n" + rows,
            "# n=2 L=abc d=1\n" + rows,
            "# n=2 L=inf d=1\n" + rows,
            "# n=2 L=1 d=x\n" + rows,
            "# n=2 L=1 d=1 n=4\n" + rows,
            "# n=2 L=1 d=1 m=3\n" + rows,
            "# n=2 L=1 d=1 junk\n" + rows,
        ]:
            assert_rejected(tmp_path, capsys, text, load_function, ["stft"])

    def test_phase_kind_enforced(self, axis, tmp_path, capsys):
        u = band_limited(axis, 6)
        path = tmp_path / "u.csv"
        save_function(u, path)
        assert_rejected(tmp_path, capsys, path.read_text(), load_phase, ["stft", "--inverse"])
        # a phase grid and an operator where a function is expected; the
        # n=2 operator has N^2 = 4 rows, as many as a phase grid
        phase = "# n=2 L=1 d=1 kind=phase\n" + "".join(f"{i},1,0\n" for i in range(4))
        operator = "# n=2 L=1 d=1 kind=operator\n0,0,1,0\n0,1,0,0\n1,0,0,0\n1,1,1,0\n"
        for text in [phase, operator, "# n=2 L=1 d=1 kind=\n0,1,0\n1,1,0\n"]:
            assert_rejected(tmp_path, capsys, text, load_function, ["stft"])
        assert_rejected(tmp_path, capsys, operator, load_phase, ["stft", "--inverse"])

    def test_malformed_rows_rejected(self, tmp_path, capsys):
        head = "# n=2 L=1 d=1\n"
        for body in [
            "",
            "0,1,0\n",
            "0,1,0\n1,1,0\n2,1,0\n",
            "0,1,0\n1,abc,0\n",
            "0,1,0\n1,1\n",
            "0,1,0,0\n1,1,0,0\n",
            "0;1;0\n1;1;0\n",
            "0,1,0\n0.5,1,0\n",
            "0,1,0\nnan,1,0\n",
            "0,1,0\n-1,1,0\n",
            "0,1,0\n2,1,0\n",
            "0,1,0\ninf,1,0\n",
            "0,1,0\n0,1,0\n",
            "# comment\n0,1,0\n",
            # each a decimal the parser's grammar nearly takes
            "0,1,0\n1,1.2.3,0\n",
            "0,1,0\n1,1-2,0\n",
            "0,1,0\n1,-,0\n",
            "0,1,0\n1,.,0\n",
            "0,1,0\n1,e+05,0\n",
            "0,1,0\n1,1e,0\n",
            "0,1,0\n1,--1,0\n",
            "0,1,0\n1,1e+0x,0\n",
            "0,1,0\n1,1_0,0\n",
            "0,1,0\n1,,0\n",
            "0,1,0\n1,1,0,\n",
            "0,1,0\n1/2,1,0\n",
            # a non-digit where a three-digit exponent's hundreds go
            "0,1,0\n1,1e+.00,0\n",
            "0,1,0\n1,1e+z00,0\n",
            "0,1,0\n1,1e-z00,0\n",
        ]:
            assert_rejected(tmp_path, capsys, head + body, load_function, ["stft"])

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("# n=2 L=1 d=1\n1,-0,5e-324\n0,1.5,-2\n")
        u = load_function(path)
        assert u.axis == AxisGrid(2, 1.0, 1)
        assert [float.hex(v) for z in u.values for v in (z.real, z.imag)] == [
            float.hex(1.5), float.hex(-2.0), float.hex(-0.0), float.hex(5e-324)]

    def test_operator_rows(self, tmp_path):
        ax = AxisGrid(4, 2.0, 1)
        rng = np.random.default_rng(4)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "op.csv"
        save_grid(ax, M, path, "operator")
        lines = path.read_text().splitlines()
        assert lines[0] == "# n=4 L=2 d=1 kind=operator"
        assert lines[1 + 4 * 2 + 3] == f"2,3,{M[2, 3].real:.17g},{M[2, 3].imag:.17g}"
        back_axis, back = _load_grid(path, "operator")
        assert back_axis == ax and np.array_equal(back, M)

    def test_blocks_join_seamlessly(self, tmp_path):
        # many formatting blocks; the small files elsewhere fill part of one
        ax = AxisGrid(128, 5.0, 1)
        rng = np.random.default_rng(5)
        a = PhaseFunctionGrid(ax, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
        path = tmp_path / "a.csv"
        save_phase(a, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 128 * 128
        flat = a.values.ravel()
        assert all(line == f"{i},{flat[i].real:.17g},{flat[i].imag:.17g}"
                   for i, line in enumerate(lines[1:]))
        assert np.array_equal(load_phase(path).values, a.values)


def reference_save_grid(axis, values, path, kind=None):
    """The grid writer as it was before the vectorized one: Python's
    %-formatting of 1024-row blocks.  It pins the bytes save_grid writes."""
    shape = values.shape
    flat = values.reshape(-1)
    row = ",".join(["%d"] * len(shape) + ["%.17g", "%.17g"]) + "\n"
    tail = f" kind={kind}" if kind else ""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={axis.n} L={axis.L:.17g} d={axis.d}{tail}\n")
        for start in range(0, flat.size, 1024):
            block = flat[start:start + 1024]
            index = np.unravel_index(np.arange(start, start + block.size), shape)
            cols = [i.tolist() for i in index] + [block.real.tolist(), block.imag.tolist()]
            fh.write((row * block.size) % tuple(itertools.chain.from_iterable(zip(*cols))))


def assert_reference_bytes(tmp_path, axis, values, kind=None):
    """save_grid writes the reference writer's bytes; returns the path."""
    path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_grid(axis, values, path, kind)
    reference_save_grid(axis, values, ref, kind)
    assert path.read_bytes() == ref.read_bytes()
    return path


def hexes(values):
    """The doubles of a complex array, bit for bit (every NaN as 'nan')."""
    return [(z.real.hex(), z.imag.hex()) for z in values.reshape(-1)]


def padded(values):
    """``values`` as a complex array padded with zeros to a power-of-two
    length, with the AxisGrid of a function of that length."""
    n = 2
    while n < len(values):
        n *= 2
    out = np.zeros(n, dtype=complex)
    out[:len(values)] = values
    return AxisGrid(n, 1.0, 1), out


def edge_doubles():
    """Doubles at the edges of %.17g: zeros, subnormals, the extremes,
    every power of ten and of two with the neighbours of each power of ten,
    the switch to and from exponent notation, integers past 2^53, and
    values whose 18th significant digit is an exact tie."""
    xs = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4,
          1e16, 1e17, 99999999999999999.0, 1e20, 1e23]
    for k in range(-323, 309):
        x = float(f"1e{k}")
        xs += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    xs += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    xs += [float(2**53 + i) for i in (0, 1, 2, 3, 5, 10**6)] + [float(2**63), float(10**22 + 2**23)]
    return xs + TIES


def tie_distance(x: float) -> Fraction:
    """|frac(y) - 1/2| for y = |x| 10^(16 - k), x's 17 digits scaled to an
    integer; 0 is an exact tie."""
    k = int(f"{abs(x):.16e}".split("e")[1])
    y = Fraction(abs(x)) * Fraction(10) ** (16 - k)
    return abs(y - math.floor(y) - Fraction(1, 2))


# 18 significant digits, the last a 5: %.17g rounds an exact tie, e.g.
# 2^-25 = 2.98023223876953125e-08; these take the Python path
TIES = [1e15 + 0.25, 1e15 + 0.75, 3 * 2.0**-24, 2.0**-25, 3 * 2.0**-25]
# 3.9e-7 of a unit in the 17th digit from a tie, so it takes the Python path
NEAR_TIE = 1.5304951539331137


class TestWriterBytes:
    def test_edge_values(self, tmp_path):
        xs = edge_doubles() + [math.inf, NEAR_TIE]
        xs += [-x for x in xs] + [math.nan]
        axis, values = padded([complex(x, y) for x, y in zip(xs, xs[1:] + xs[:1])])
        path = assert_reference_bytes(tmp_path, axis, values)
        assert hexes(load_function(path).values) == hexes(values)

    def test_ties_are_ties(self):
        assert 0 < tie_distance(NEAR_TIE) < Fraction(1, 10**6)
        assert all(tie_distance(x) == 0 for x in TIES)

    @pytest.mark.parametrize("kind", [None, "phase", "operator"])
    def test_fallback_rows_at_block_edges(self, tmp_path, kind):
        # values off the vectorized path in the first row, the last row and
        # on both sides of a block boundary, as real and imaginary parts
        axis = AxisGrid(4096 if kind is None else 64, 3.0, 1)
        shape = _CELLS[kind](axis)
        rng = np.random.default_rng(9)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert base.size > _BLOCK_ROWS
        read = {None: lambda p: load_function(p).values,
                "phase": lambda p: load_phase(p).values,
                "operator": lambda p: _load_grid(p, "operator")[1]}[kind]
        for x in (math.nan, math.inf, -math.inf, -0.0, NEAR_TIE, 2.0**-25):
            values = base.copy()
            flat = values.reshape(-1)
            for row in (0, _BLOCK_ROWS - 1, _BLOCK_ROWS, flat.size - 1):
                flat[row] = complex(x, -x)
            path = assert_reference_bytes(tmp_path, axis, values, kind)
            assert hexes(read(path)) == hexes(values)

    def test_random_files(self, tmp_path):
        # spread over many decades, as operator and STFT files are
        rng = np.random.default_rng(12)
        axis = AxisGrid(64, 8.0, 1)
        scale = 10.0 ** rng.uniform(-40, 40, (64, 64))
        values = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) * scale
        assert_reference_bytes(tmp_path, axis, values, "operator")
        assert_reference_bytes(tmp_path, AxisGrid(16, 2.0, 2), values.reshape(-1)[:256])
        assert_reference_bytes(tmp_path, AxisGrid(8, 2.0, 2), values.reshape(-1), "phase")

    def test_peak_memory(self, tmp_path):
        # the writer's working set is one block, whatever the file's size
        rng = np.random.default_rng(13)
        save_grid(AxisGrid(2, 1.0, 1), np.zeros(2, dtype=complex), tmp_path / "warm.csv")
        for n in (256, 512):
            M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            tracemalloc.start()
            try:
                save_grid(AxisGrid(n, 8.0, 1), M, tmp_path / "op.csv", "operator")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (n, peak)

    def test_text_module_loaded_on_first_write(self, tmp_path):
        # importing uwq.grid neither compiles the formatter nor builds its tables
        code = ("import sys, uwq.grid as g; assert 'uwq.gridtext' not in sys.modules; "
                "g.save_grid(g.AxisGrid(2, 1.0), g.np.zeros(2), sys.argv[1]); "
                "assert 'uwq.gridtext' in sys.modules")
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "u.csv")], check=True)
        # nor does a read until it parses the body
        (tmp_path / "v.csv").write_text("# n=2 L=1 d=1\n0,1.5,0\n1,0,-2e-05\n")
        code = ("import sys, uwq.grid as g; assert 'uwq.gridtext' not in sys.modules; "
                "u = g.load_function(sys.argv[1]); assert 'uwq.gridtext' in sys.modules; "
                "assert u.values.tolist() == [1.5, -2e-05j]")
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "v.csv")], check=True)


def parsed_only(monkeypatch):
    """Make the reader's fallback fail the test: every block must parse."""
    def refuse(lines):
        raise AssertionError(f"fallback for {bytes(lines[:60])!r}...")
    monkeypatch.setattr(grid, "_loadtxt_rows", refuse)


def loadtxt_reference(path):
    """The values a grid file without a kind holds, as the reader built on
    ``np.loadtxt`` of a text-mode file made them."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    values = np.empty(len(data), dtype=complex)
    values.real[data[:, 0].astype(int)] = data[:, 1]
    values.imag[data[:, 0].astype(int)] = data[:, 2]
    return values


def normal_doubles(xs):
    return [x for x in xs if x == 0 or sys.float_info.min <= abs(x) < math.inf]


class TestReader:
    def test_writer_text_parses_exactly(self, tmp_path, monkeypatch):
        # every finite double the writer prints that is zero or normal
        # reads back bit for bit without the fallback
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2**64, 6000, dtype=np.uint64, endpoint=False)
        xs = normal_doubles(edge_doubles() + TIES + [NEAR_TIE] + bits.view(np.float64).tolist())
        xs += [-x for x in xs]
        axis, values = padded([complex(x, y) for x, y in zip(xs, xs[1:] + xs[:1])])
        path = tmp_path / "u.csv"
        save_grid(axis, values, path)
        parsed_only(monkeypatch)
        assert hexes(load_function(path).values) == hexes(values)

    @pytest.mark.parametrize("kind", ["phase", "operator"])
    def test_index_columns(self, tmp_path, monkeypatch, kind):
        ax = AxisGrid(32, 2.0, 1)
        shape = _CELLS[kind](ax)
        rng = np.random.default_rng(22)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        path = tmp_path / "g.csv"
        save_grid(ax, values, path, kind)
        parsed_only(monkeypatch)
        assert hexes(_load_grid(path, kind)[1]) == hexes(values)

    @pytest.mark.parametrize("body", [
        "0,1E5,0\n1,2,0\n",
        "0,+1,0\n1,2,0\n",
        "0, 1.5,0\n1,2 ,0\n",
        "0,.5,0\n1,5.,-.25\n",
        "0,1234567890123456789012345,0\n1,0.1234567890123456789012345,0\n",
        "0,1.5,-2\r\n1,2,0\r\n",
        "0,1.5,-2\r1,2,0\r",
        "0,1.5,-2\n1,2,0",
        "0,nan,inf\n1,-inf,-nan\n",
        "0,1e5,1e+5\n1,1e-0005,1e-5\n",
        "0,1e-400,1e400\n1,5e-324,2.2250738585072011e-308\n",
        "0,1,0\n\n1,2,0\n",
        "0,0e-999,-0.0e+999\n1,00012,-0\n",
        "0.0,1,0\n1e0,2,0\n",
        "0,9007199254740993,0\n1,9007199254740993e-300,0\n",
    ])
    def test_noncanonical_text_reads_as_loadtxt(self, tmp_path, body):
        # text the writer never makes reads exactly as np.loadtxt reads it
        path = tmp_path / "u.csv"
        path.write_bytes(("# n=2 L=1 d=1\n" + body).encode())
        assert hexes(load_function(path).values) == hexes(loadtxt_reference(path))

    def test_header_line_ends(self, tmp_path):
        # a text-mode read ends the header at '\r\n' and at a lone '\r'
        for text in ("# n=2 L=1 d=1\r\n0,1,0\r\n1,2,0\r\n", "# n=2 L=1 d=1\r0,1,0\r1,2,0\r"):
            path = tmp_path / "u.csv"
            path.write_bytes(text.encode())
            assert load_function(path).values.tolist() == [1, 2]

    def test_fallback_rows(self, tmp_path, monkeypatch):
        # rows the parser hands on in the first and the last block and on
        # both sides of a block edge, and a block whose line ends are not
        # the grammar's; "nan" and "inf" print as long as "0.5", so the
        # blocks of the all-0.5 file hold the same rows
        monkeypatch.setattr(grid, "_BODY_BYTES", 512)
        axis = AxisGrid(256, 3.0, 1)
        path = tmp_path / "u.csv"
        save_grid(axis, np.full(256, 0.5 + 0.5j), path)

        def block_ends():
            with open(path, "rb") as fh:
                fh.readline()
                return np.cumsum([text.count(b"\n") for text in grid._body_blocks(fh, b"", b"")])

        ends = block_ends()
        assert len(ends) > 5
        taken = []

        def loadtxt(lines):
            taken.extend(int(line.split(b",")[0]) for line in bytes(lines).splitlines())
            return np.loadtxt(io.BytesIO(lines), delimiter=",", ndmin=2)

        monkeypatch.setattr(grid, "_loadtxt_rows", loadtxt)
        rows = [0, ends[2] - 1, ends[2], 255]
        for x in (math.nan, math.inf):
            values = np.full(256, 0.5 + 0.5j)
            values[rows] = complex(x, 0.5)
            taken.clear()
            save_grid(axis, values, path)
            assert hexes(load_function(path).values) == hexes(values)
            assert taken == rows
        lines = path.read_bytes().split(b"\n")
        lines[1 + ends[3]] += b"\r"  # the first row of block 4
        path.write_bytes(b"\n".join(lines))
        taken.clear()
        assert hexes(load_function(path).values) == hexes(values)
        assert taken == [*rows[:3], *range(ends[3], block_ends()[4]), 255]

    def test_blank_lines_in_a_block_of_their_own(self, tmp_path, monkeypatch):
        # np.loadtxt skips blank lines, also where a block holds nothing else
        rows = "0,1.5,0\n1,2,-0.25\n"
        monkeypatch.setattr(grid, "_BODY_BYTES", len(rows))
        path = tmp_path / "u.csv"
        for body in (rows + "\n", rows + "\n\n", "\n" * len(rows) + rows):
            path.write_text("# n=2 L=1 d=1\n" + body)
            with open(path, "rb") as fh:
                fh.readline()
                assert any(set(text) == {10} for text in grid._body_blocks(fh, b"", b""))
            assert hexes(load_function(path).values) == hexes(loadtxt_reference(path))

    def test_peak_memory(self, tmp_path):
        # the body is read a block at a time: the peak is the checks' after
        # the parse, as with np.loadtxt
        ax = AxisGrid(512, 8.0, 1)
        rng = np.random.default_rng(23)
        a = PhaseFunctionGrid(ax, rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
        path = tmp_path / "a.csv"
        save_phase(a, path)
        tracemalloc.start()
        try:
            back = load_phase(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, a.values)
        assert peak <= 12.3 * 2**20, peak


class TestWriterRefuses:
    @pytest.mark.parametrize("values, kind", [
        (np.zeros(5), None),            # 5 rows, the header needs 4
        (np.zeros(4), "phsae"),         # no reader accepts the kind
        (np.zeros((4, 4)), None),       # r,c rows under a function header
        (np.zeros((4, 4)), "phase"),
        (np.zeros(16), "operator"),
        (np.zeros(4), ""),
    ])
    def test_refused_before_open(self, tmp_path, values, kind):
        path = tmp_path / "g.csv"
        with pytest.raises(UwqError):
            save_grid(AxisGrid(4, 2.0), values, path, kind)
        assert not path.exists()


def assert_rejected(tmp_path, capsys, text, load, command):
    """``load`` raises UwqError on a file holding ``text``, and the CLI
    command reading it exits 2 with a one-line error and writes nothing."""
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(UwqError):
        load(path)
    out = tmp_path / "out.csv"
    assert main(command + ["--in", str(path), "--out", str(out)]) == 2, text
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestTwoDimensions:
    def test_round_trip_2d(self):
        ax = AxisGrid(32, 8.0, 2)
        rng = np.random.default_rng(3)
        u = FunctionGrid(ax, rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
        back = inverse_fourier(fourier(u))
        assert np.max(np.abs(back.values - u.values)) < 1e-13 * np.max(np.abs(u.values))

    def test_gaussian_norm_2d(self):
        ax = AxisGrid(32, 8.0, 2)
        g = gaussian_window(ax)
        assert abs(quadrature(FunctionGrid(ax, np.abs(g.values) ** 2)) - 1.0) < 1e-12
