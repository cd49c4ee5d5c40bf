import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from uwq.cli import build_parser, main
from uwq.expansion import PolySymbol
from uwq.grid import (
    AxisGrid,
    FunctionGrid,
    PhaseFunctionGrid,
    _load_grid,
    load_function,
    load_phase,
    save_function,
    save_phase,
)
from uwq.quant import anti_wick_matrix, kernel_from_symbol, operator_matrix, weyl
from uwq.stft import stft
from uwq.weights import WeightSequence, save_weights

# The options each subcommand declares; every one of them is read.
OPTIONS = {
    "weights": {"--gevrey", "--weights-file", "--truncation", "--check", "--rho", "--out"},
    "stft": {"--in", "--inverse", "--out"},
    "quantize": {"--symbol", "--tau", "--n", "--L", "--out"},
    "antiwick": {"--symbol", "--verify-smoothing", "--n", "--L", "--out"},
    "expand": {"--symbol", "--theorem", "--max-order", "--out"},
    "gaussconv": {"--density", "--s", "--x", "--compare", "--out"},
    "laplace": {"--density", "--zeta", "--out"},
    "osc-kernel": {"--symbol", "--chi", "--deltas", "--out"},
    "verify": {"--suite", "--n", "--L", "--d", "--json", "--out"},
}

# Options some subcommand used to accept without reading them.
DROPPED = ["--n", "--L", "--d", "--json", "--out", "--parallel"]

N, L = 16, 4.0
AXIS = AxisGrid(N, L, 1)
POLY = PolySymbol.x() * PolySymbol.xi() + PolySymbol.xi() * PolySymbol.xi()


def run(argv):
    """Exit status of ``uwq argv``; argparse errors exit through SystemExit."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def read_operator(path, size):
    axis, entries = _load_grid(path, "operator")
    assert axis.size == size
    return entries


@pytest.fixture
def files(tmp_path):
    """Input files on the n=16 grid and a path helper."""
    f = lambda name: str(tmp_path / name)  # noqa: E731
    with open(f("p.toml"), "w", encoding="utf-8") as fh:
        fh.write('kind = "poly"\nd = 1\nterms = [[1, 1, 1.0, 0.0], [2, 0, 1.0, 0.0]]\n')
    a = PhaseFunctionGrid.from_callable(AxisGrid(8, L, 1),
                                        lambda x, k: np.exp(-x**2 - 0.1 * k**2))
    save_phase(a, f("symbol.csv"))
    with open(f("grid.toml"), "w", encoding="utf-8") as fh:
        fh.write(f'kind = "grid"\npath = "{f("symbol.csv")}"\n')
    save_function(FunctionGrid.from_callable(AXIS, lambda x: np.exp(-x**2 + 1j * x)), f("u.csv"))
    ax2 = AxisGrid(N, 2.5, 2)
    save_function(FunctionGrid.from_callable(ax2, lambda x, y: np.exp(-4.0 * (x**2 + y**2))),
                  f("chi.csv"))
    save_weights(WeightSequence.gevrey(2.0), f("w.txt"))
    with open(f("e5.toml"), "w", encoding="utf-8") as fh:
        fh.write('kind = "example5"\nd = 1\nl = 0.5\nterms = [[2, 1.0, 0.0]]\n')
    return f


def valid_commands(f):
    """One working invocation per subcommand."""
    return {
        "weights": ["weights", "--gevrey", 2, "--check", "--rho", "1,10", "--out", f("w.csv")],
        "stft": ["stft", "--in", f("u.csv"), "--out", f("V.csv")],
        "quantize": ["quantize", "--symbol", f("p.toml"), "--tau", 0.5, "--n", N, "--L", L,
                     "--out", f("op.csv")],
        "antiwick": ["antiwick", "--symbol", f("p.toml"), "--n", N, "--L", L,
                     "--out", f("aw.csv")],
        "expand": ["expand", "--symbol", f("p.toml"), "--theorem", "aw", "--out", f("e.csv")],
        "gaussconv": ["gaussconv", "--density", "bump:-1:1", "--s=-1", "--x=-1:1:0.5",
                      "--compare", "--out", f("g.csv")],
        "laplace": ["laplace", "--density", "indicator:-1:1", "--zeta", "0.5:0",
                    "--out", f("lap.txt")],
        "osc-kernel": ["osc-kernel", "--symbol", f("p.toml"), "--chi", f("chi.csv"),
                       "--deltas", "0.5,0.25", "--out", f("osc.csv")],
        "verify": ["verify", "--suite", "tau", "--json", "--out", f("v.json")],
    }


def parser_options():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for act in p._actions for s in act.option_strings
                   if s not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def test_option_table():
    table = parser_options()
    assert table == OPTIONS
    assert sum(len(v) for v in table.values()) == 41


def test_every_subcommand_runs(files):
    f = files
    cmds = valid_commands(f)
    assert set(cmds) == set(OPTIONS)
    for name, argv in cmds.items():
        assert run(argv) == 0, name

    lines = Path(f("w.csv")).read_text().splitlines()
    assert lines[0].startswith("# m1_ok=True") and lines[1] == "rho,M,saturated"
    assert [float(v) for v in lines[2].split(",")][0] == 1.0

    assert np.array_equal(load_phase(f("V.csv")).values,
                          stft(load_function(f("u.csv"))).values)

    assert np.array_equal(read_operator(f("op.csv"), N), weyl(POLY, AXIS).entries)
    assert np.array_equal(read_operator(f("aw.csv"), N), anti_wick_matrix(POLY, AXIS).entries)

    rows = Path(f("e.csv")).read_text().splitlines()
    assert rows[0] == "order,monomial,re,im" and "0,x0^1xi0^1,1,0" in rows

    g = np.loadtxt(f("g.csv"), delimiter=",", skiprows=1)
    assert g.shape == (5, 4) and np.all(g[:, 3] < 1e-8)

    lap = complex(Path(f("lap.txt")).read_text().strip())
    assert abs(lap - 4.0 * math.sinh(0.5)) < 1e-12

    osc = Path(f("osc.csv")).read_text().splitlines()
    assert osc[0] == "delta,re,im,cauchy_diff" and osc[-1].startswith("extrapolated,")
    assert run(["osc-kernel", "--symbol", f("e5.toml"), "--chi", f("chi.csv"),
                "--deltas", "0.5,0.25", "--out", f("osc5.csv")]) == 0

    doc = json.loads(Path(f("v.json")).read_text())
    assert doc["header"]["n"] == 128
    assert sorted(r["name"] for r in doc["reports"]) == ["tau_change", "transpose"]


def test_grid_symbol_quantize_and_inverse_stft(files):
    f = files
    assert run(["quantize", "--symbol", f("grid.toml"), "--tau", 0, "--out", f("opg.csv")]) == 0
    a = load_phase(f("symbol.csv"))
    assert np.array_equal(read_operator(f("opg.csv"), 8),
                          operator_matrix(kernel_from_symbol(a, 0.0)).entries)
    assert run(["stft", "--in", f("u.csv"), "--out", f("V.csv")]) == 0
    assert run(["stft", "--inverse", "--in", f("V.csv"), "--out", f("u2.csv")]) == 0
    u, back = load_function(f("u.csv")), load_function(f("u2.csv"))
    assert np.max(np.abs(back.values - u.values)) < 1e-3


def test_two_dimensional_stft_round_trip(tmp_path):
    f = lambda name: str(tmp_path / name)  # noqa: E731
    # V*V = (2 pi)^d (dx sum_z G0(z)^2)^d; at L=5 that sum is 1 to 1.6e-11
    ax2 = AxisGrid(16, 5.0, 2)
    u = FunctionGrid.from_callable(ax2, lambda x, y: np.exp(-(x - 0.5)**2 - y**2 + 1j * x * y))
    save_function(u, f("u2.csv"))
    assert run(["stft", "--in", f("u2.csv"), "--out", f("V2.csv")]) == 0
    assert Path(f("V2.csv")).read_text().splitlines()[0] == "# n=16 L=5 d=2 kind=phase"
    assert np.array_equal(load_phase(f("V2.csv")).values, stft(u).values)
    assert run(["stft", "--inverse", "--in", f("V2.csv"), "--out", f("back2.csv")]) == 0
    back = load_function(f("back2.csv"))
    assert back.axis == ax2
    assert np.max(np.abs(back.values - u.values)) < 1e-10


def test_out_goes_to_file(files, capsys):
    f = files
    assert run(["antiwick", "--symbol", f("p.toml"), "--n", N, "--L", L,
                "--verify-smoothing", "--out", f("vs.txt")]) == 0
    assert run(["laplace", "--density", "indicator:-1:1", "--zeta", "0:0",
                "--out", f("lap0.txt")]) == 0
    assert capsys.readouterr().out == ""
    assert Path(f("vs.txt")).read_text().startswith("max_err ")
    assert complex(Path(f("lap0.txt")).read_text().strip()) == pytest.approx(2.0)


def test_verify_smoothing_writes_one_line(files):
    f = files
    assert run(["antiwick", "--symbol", f("p.toml"), "--verify-smoothing", "--out", f("vs.txt")]) == 0
    (line,) = Path(f("vs.txt")).read_text().splitlines()
    key, value = line.split()
    assert key == "max_err" and float(value) < 1e-5


def test_huge_tau_quantizes_mod_n(files):
    # the grid symbol has n=8, and 1e20 = 0 mod 8
    f = files
    assert run(["quantize", "--symbol", f("grid.toml"), "--tau", 1e20, "--out", f("big.csv")]) == 0
    assert run(["quantize", "--symbol", f("grid.toml"), "--tau", 0, "--out", f("zero.csv")]) == 0
    assert Path(f("big.csv")).read_bytes() == Path(f("zero.csv")).read_bytes()


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_dropped_options_rejected(files, command, capsys):
    argv = valid_commands(files)[command]
    for opt in DROPPED:
        if opt in OPTIONS[command]:
            continue
        assert run(argv + [opt, 1]) == 2, (command, opt)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_out_required(files):
    f = files
    assert run(["stft", "--in", f("u.csv")]) == 2
    assert run(["quantize", "--symbol", f("p.toml"), "--tau", 0.5]) == 2
    assert run(["antiwick", "--symbol", f("p.toml")]) == 2


def test_path_inapplicable_options_rejected(files, capsys):
    f = files
    cases = [
        ["quantize", "--symbol", f("grid.toml"), "--tau", 0.5, "--n", 64, "--out", f("x.csv")],
        ["quantize", "--symbol", f("grid.toml"), "--tau", 0.5, "--L", 3, "--out", f("x.csv")],
        ["antiwick", "--symbol", f("grid.toml"), "--n", 64, "--out", f("x.csv")],
        ["expand", "--symbol", f("p.toml"), "--theorem", "tau:0:0.5", "--max-order", 2],
        ["expand", "--symbol", f("p.toml"), "--theorem", "transpose:0", "--max-order", 2],
        ["expand", "--symbol", f("p.toml"), "--theorem", f"compose:{f('p.toml')}",
         "--max-order", 2],
        ["weights", "--weights-file", f("w.txt"), "--truncation", 10],
        ["weights", "--weights-file", f("w.txt"), "--gevrey", 2],
        ["weights"],
        # example5's exp(l x^2) factor is read by osc-kernel only
        ["quantize", "--symbol", f("e5.toml"), "--tau", 0.5, "--out", f("x.csv")],
        ["antiwick", "--symbol", f("e5.toml"), "--out", f("x.csv")],
        ["expand", "--symbol", f("e5.toml"), "--theorem", "aw"],
        ["expand", "--symbol", f("p.toml"), "--theorem", f"compose:{f('e5.toml')}"],
        # a sampled grid symbol has no polynomial form
        ["expand", "--symbol", f("grid.toml"), "--theorem", "aw"],
        ["osc-kernel", "--symbol", f("grid.toml"), "--chi", f("chi.csv"), "--deltas", "0.5"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
    assert not Path(f("x.csv")).exists()


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_non_finite_tau_exits_2(files, bad, capsys):
    f = files
    cases = [
        ["quantize", "--symbol", f("p.toml"), f"--tau={bad}", "--n", N, "--L", L,
         "--out", f("bad.csv")],
        ["quantize", "--symbol", f("grid.toml"), f"--tau={bad}", "--out", f("bad.csv")],
        ["expand", "--symbol", f("p.toml"), "--theorem", f"tau:{bad}:0"],
        ["expand", "--symbol", f("p.toml"), "--theorem", f"tau:0:{bad}"],
        ["expand", "--symbol", f("p.toml"), "--theorem", f"transpose:{bad}"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        assert "tau must be finite" in capsys.readouterr().err
    assert not Path(f("bad.csv")).exists()


def test_non_finite_laplace_point_exits_2():
    assert run(["laplace", "--density", "indicator:-1:1", "--zeta", "nan:0"]) == 2


def test_gaussconv_and_laplace_inputs_rejected(capsys):
    box = "error: support box bounds must be finite"
    cases = []
    for bounds in ("-1:nan", "nan:1", "-inf:1", "-1:inf", "-1e308:1e308"):
        cases += [
            (["laplace", "--density", f"bump:{bounds}", "--zeta", "0:0"], box),
            (["laplace", "--density", f"indicator:{bounds}", "--zeta", "0:0"], box),
            (["gaussconv", "--density", f"polybump:1,1:{bounds}", "--s=-1", "--x", "0:1:0.5"],
             box),
        ]
    cases += [
        (["gaussconv", "--density", "bump:-1:1", "--s=-1", "--x", "1:0:0.5"],
         "error: --x a:b:step needs finite a <= b"),
        (["gaussconv", "--density", "bump:-1:1", "--s", "nan", "--x", "0:1:0.5"],
         "error: s must be finite and nonzero"),
        (["gaussconv", "--density", "bump:-1:1", "--s", "inf", "--x", "0:1:0.5"],
         "error: s must be finite and nonzero"),
    ]
    for argv, message in cases:
        assert run(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1, argv
        assert out.err.startswith(message), (argv, out.err)
    # a one-point range is legal
    assert run(["gaussconv", "--density", "bump:-1:1", "--s=-1", "--x", "1:1:0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_malformed_numbers_exit_2(files, capsys):
    f = files
    cases = [
        ["weights", "--gevrey", 2, "--rho", "abc"],
        ["weights", "--gevrey", 2, "--rho", "1,x,10"],
        ["expand", "--symbol", f("p.toml"), "--theorem", "tau:1"],
        ["expand", "--symbol", f("p.toml"), "--theorem", "tau:0:b"],
        ["expand", "--symbol", f("p.toml"), "--theorem", "transpose:"],
        ["expand", "--symbol", f("p.toml"), "--theorem", "transpose:x"],
        ["laplace", "--density", "indicator:-1:1", "--zeta", "1"],
        ["laplace", "--density", "indicator:-1:1", "--zeta", "a:0"],
        ["laplace", "--density", "indicator:-1:z", "--zeta", "0:0"],
        ["laplace", "--density", "bump:q:1", "--zeta", "0:0"],
        ["laplace", "--density", "polybump:1,c:-1:1", "--zeta", "0:0"],
        ["gaussconv", "--density", "bump:-1:1", "--s=-1", "--x", "0:1"],
        ["gaussconv", "--density", "bump:-1:1", "--s=-1", "--x", "0:1:h"],
        ["gaussconv", "--density", "bump:-1:1", "--s=-1", "--x", "0:1:0"],
        ["osc-kernel", "--symbol", f("p.toml"), "--chi", f("chi.csv"), "--deltas", "0.5,d"],
    ]
    # box half-widths whose grid steps 2L/n or pi/L overflow
    for bad in ("inf", "1e308", "1e-320"):
        cases += [
            ["verify", "--suite", "stft", f"--L={bad}"],
            ["quantize", "--symbol", f("p.toml"), "--tau", 0.5, "--n", N, f"--L={bad}",
             "--out", f("bad.csv")],
        ]
    for argv in cases:
        assert run(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1, argv
    assert not Path(f("bad.csv")).exists()


def test_weights_rho_list_in_one_table(files):
    f = files
    assert run(["weights", "--gevrey", 2, "--rho", "1,10,100,1e6", "--out", f("w.csv")]) == 0
    lines = Path(f("w.csv")).read_text().splitlines()
    assert lines == ["rho,M,saturated", "1,0,0", "10,3.3242363405260278,0",
                     "100,15.842876713729886,0", lines[-1]]
    assert lines[-1].startswith("1000000,") and lines[-1].endswith(",1")
    assert run(["weights", "--gevrey", 2, "--rho", "1,0", "--out", f("w0.csv")]) == 2


@pytest.mark.parametrize("theorem", ["aw", "inverse"])
def test_negative_max_order_exits_2(files, theorem, capsys):
    f = files
    assert run(["expand", "--symbol", f("p.toml"), "--theorem", theorem, "--max-order", -1,
                "--out", f("neg.csv")]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not Path(f("neg.csv")).exists()


def test_missing_files_exit_2(files, capsys):
    f = files
    missing = f("missing.toml")
    cases = [
        ["expand", "--symbol", missing, "--theorem", "aw"],
        ["osc-kernel", "--symbol", missing, "--chi", f("chi.csv"), "--deltas", "0.5"],
        ["osc-kernel", "--symbol", f("p.toml"), "--chi", f("missing.csv"), "--deltas", "0.5"],
        ["stft", "--in", f("missing.csv"), "--out", f("x.csv")],
        ["weights", "--weights-file", f("missing.txt")],
        ["expand", "--symbol", f("p.toml"), "--theorem", f"compose:{missing}"],
        ["quantize", "--symbol", f("p.toml"), "--tau", 0.5, "--n", N, "--L", L,
         "--out", f("no/such/dir/op.csv")],
        ["expand", "--symbol", f("p.toml"), "--theorem", "aw", "--out", f("no/such/dir/e.csv")],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err, argv
    assert not Path(f("x.csv")).exists()


def test_non_utf8_files_exit_2(files, capsys):
    f = files
    Path(f("bad.csv")).write_bytes(b"\xff")
    cases = [
        ["stft", "--in", f("bad.csv"), "--out", f("x.csv")],
        ["weights", "--weights-file", f("bad.csv")],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "can't decode byte 0xff" in err, argv
    assert not Path(f("x.csv")).exists()


def test_malformed_symbol_files_exit_2(files, capsys):
    f = files
    bad = {
        "d_abc.toml": 'kind = "poly"\nd = "abc"\nterms = [[1, 1, 1.0, 0.0]]\n',
        "d_frac.toml": 'kind = "poly"\nd = 1.5\nterms = [[1, 1, 1.0, 0.0]]\n',
        "exp_a.toml": 'kind = "poly"\nd = 1\nterms = [["a", 1, 1.0, 0.0]]\n',
        "coef_x.toml": 'kind = "poly"\nd = 1\nterms = [[1, 1, "x", 0.0]]\n',
        "l_q.toml": 'kind = "example5"\nd = 1\nl = "q"\nterms = [[2, 1.0, 0.0]]\n',
        "l_inf.toml": 'kind = "example5"\nd = 1\nl = -1e999\nterms = [[2, 1.0, 0.0]]\n',
        "l_nan.json": '{"kind": "example5", "d": 1, "l": NaN, "terms": [[2, 1.0, 0.0]]}\n',
        # a non-string kind or path, and booleans where numbers belong
        "kind_list.toml": 'kind = [1]\nd = 1\nterms = [[1, 1, 1.0, 0.0]]\n',
        "path_int.json": '{"kind": "grid", "path": 5}\n',
        "d_true.toml": 'kind = "poly"\nd = true\nterms = [[1, 1, 1.0, 0.0]]\n',
        "exp_true.toml": 'kind = "poly"\nd = 1\nterms = [[true, 1, 1.0, 0.0]]\n',
        "coef_true.toml": 'kind = "poly"\nd = 1\nterms = [[1, 1, true, 0.0]]\n',
        "coef_false.json": '{"kind": "poly", "d": 1, "terms": [[1, 1, 1.0, false]]}\n',
        "l_true.toml": 'kind = "example5"\nd = 1\nl = true\nterms = [[2, 1.0, 0.0]]\n',
        "coef_str.toml": 'kind = "poly"\nd = 1\nterms = [[1, 1, "1.5", 0.0]]\n',
        "coef_big.json": '{"kind": "poly", "d": 1, "terms": [[1, 1, 1%s, 0.0]]}\n' % ("0" * 400),
        # numbers TOML 1.0 does not allow, and files that do not parse
        "coef_dot.toml": 'kind = "poly"\nd = 1\nterms = [[1, 1, 1., 0.0]]\n',
        "coef_lead_dot.toml": 'kind = "poly"\nd = 1\nterms = [[1, 1, .5, 0.0]]\n',
        "d_zero_pad.toml": 'kind = "poly"\nd = 01\nterms = [[1, 1, 1.0, 0.0]]\n',
        "dup.toml": 'kind = "poly"\nd = 1\nd = 1\nterms = [[1, 1, 1.0, 0.0]]\n',
        "open.json": '{"kind": "poly"\n',
        "latin1.toml": 'kind = "poly"  # d\xe9j\xe0 vu\nd = 1\nterms = [[1, 1, 1.0, 0.0]]\n',
    }
    for name, text in bad.items():
        # the others are ASCII, so only latin1.toml is not valid UTF-8
        Path(f(name)).write_bytes(text.encode("latin-1"))
        for argv in (["expand", "--symbol", f(name), "--theorem", "aw"],
                     ["osc-kernel", "--symbol", f(name), "--chi", f("chi.csv"),
                      "--deltas", "0.5,0.25"]):
            assert run(argv) == 2, (name, argv)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, (name, err)
    # open(5) would read file descriptor 5, so the path must fail its type check
    assert run(["expand", "--symbol", f("path_int.json"), "--theorem", "aw"]) == 2
    assert "path must be a string" in capsys.readouterr().err


def test_toml_strings_comments_and_hex(files, tmp_path):
    # a quoted '#' or ',' is part of the string, not a comment or separator
    f = files
    sub = tmp_path / "h#dir,1"
    sub.mkdir()
    Path(f("symbol.csv")).rename(sub / "s.csv")
    Path(f("hash.toml")).write_text(f'kind = "grid"  # sampled\npath = "{sub / "s.csv"}"\n')
    Path(f("hex.toml")).write_text('kind = "poly"\nd = 0x1  # hex\n'
                                   'terms = [\n  [0x1, 1, 1.0, 0.0],  # x xi\n  [2, 0, 1.0, 0.0],\n]\n')
    assert run(["quantize", "--symbol", f("hash.toml"), "--tau", 0, "--out", f("opg.csv")]) == 0
    assert np.array_equal(read_operator(f("opg.csv"), 8),
                          operator_matrix(kernel_from_symbol(load_phase(sub / "s.csv"), 0.0)).entries)
    assert run(["quantize", "--symbol", f("hex.toml"), "--tau", 0.5, "--n", N, "--L", L,
                "--out", f("op.csv")]) == 0
    assert np.array_equal(read_operator(f("op.csv"), N), weyl(POLY, AXIS).entries)


@pytest.mark.parametrize("s, H", [(1.5, "2.6"), (2, "3.6"), (3, "7.0")])
def test_weights_check_prints_lattice_H_exactly(files, s, H):
    f = files
    assert run(["weights", "--gevrey", s, "--check", "--out", f("w.csv")]) == 0
    assert f" m2_H={H} " in Path(f("w.csv")).read_text().splitlines()[0]


def test_overflow_exits_2(capsys):
    for argv in (["laplace", "--density", "indicator:-1:1", "--zeta=-1000:0"],
                 ["gaussconv", "--density", "indicator:-1:1", "--s", 1, "--x", "30:30:1"]):
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_overflowing_operator_exits_2(tmp_path, capsys):
    # a finite grid symbol whose class sums over xi overflow float64
    f = lambda name: str(tmp_path / name)  # noqa: E731
    save_phase(PhaseFunctionGrid(AXIS, np.full((N, N), 1e308)), f("big.csv"))
    with open(f("big.toml"), "w", encoding="utf-8") as fh:
        fh.write(f'kind = "grid"\npath = "{f("big.csv")}"\n')
    for argv in (["antiwick", "--symbol", f("big.toml"), "--out", f("aw.csv")],
                 ["antiwick", "--symbol", f("big.toml"), "--verify-smoothing"],
                 ["quantize", "--symbol", f("big.toml"), "--tau", 0.5, "--out", f("q.csv")]):
        assert run(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1, (argv, out.err)
        assert "overflows float64" in out.err
    assert not Path(f("aw.csv")).exists() and not Path(f("q.csv")).exists()


def test_large_symbol_verifies_smoothing(tmp_path):
    # N^2 max|a| passes the float64 range, the smoothing and both matrices
    # do not
    f = lambda name: str(tmp_path / name)  # noqa: E731
    save_phase(PhaseFunctionGrid(AXIS, np.full((N, N), 1e306)), f("big.csv"))
    with open(f("big.toml"), "w", encoding="utf-8") as fh:
        fh.write(f'kind = "grid"\npath = "{f("big.csv")}"\n')
    assert run(["antiwick", "--symbol", f("big.toml"), "--verify-smoothing", "--out", f("vs.txt")]) == 0
    key, value = Path(f("vs.txt")).read_text().split()
    assert key == "max_err" and math.isfinite(float(value))


def test_osc_kernel_rejects_unresolved_band(files, capsys):
    # chi.csv has n=16, L=2.5: the band edge pi/dx = 10.05 lies inside the
    # support 2/delta = 40 of psi(0.05 xi)
    f = files
    assert run(["osc-kernel", "--symbol", f("p.toml"), "--chi", f("chi.csv"),
                "--deltas", "0.5,0.05", "--out", f("osc.csv")]) == 2
    assert "band edge" in capsys.readouterr().err
    assert not Path(f("osc.csv")).exists()


GOLDEN = Path(__file__).parent / "golden" / "expand"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name,theorem", [
    ("aw", "aw"), ("inverse", "inverse"), ("tau", "tau:0.3:0.7"),
    ("transpose", "transpose:0.25"), ("compose", "compose:{b}")])
def test_expand_output_is_golden(tmp_path, d, name, theorem):
    """``uwq expand`` writes exactly the bytes recorded in tests/golden/expand
    (a{d}_{name}.csv), for a d=1 and a d=2 symbol a{d}.toml; compose takes
    b{d}.toml as its right factor."""
    out = tmp_path / "e.csv"
    theorem = theorem.format(b=GOLDEN / f"b{d}.toml")
    assert run(["expand", "--symbol", GOLDEN / f"a{d}.toml", "--theorem", theorem,
                "--out", out]) == 0
    assert out.read_bytes() == (GOLDEN / f"a{d}_{name}.csv").read_bytes()
