"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 8].
    tr = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    a = tr.begin("A")
    b = tr.begin("B")
    tr.end(b)
    c = tr.begin("C")
    d = tr.begin("D")
    tr.end(d)
    tr.end(c)
    tr.end(a)
    agg = tr.collect()
    assert agg["A"]["self_s"] == 10 - 3 - 4
    assert agg["A"]["total_s"] == 10
    assert agg["B"]["self_s"] == 3
    assert agg["C"]["self_s"] == 4 - 2
    assert agg["C"]["total_s"] == 4
    assert agg["D"]["self_s"] == 2
    assert sum(v["self_s"] for v in agg.values()) == 10
    assert tr.spans == []


def test_total_time_counts_outermost_span_of_a_name_once():
    # F [0, 10] calls G [2, 8], which calls F again [3, 5].
    tr = spans.Tracer(clock=FakeClock([0, 2, 3, 5, 8, 10]))
    f = tr.begin("F")
    g = tr.begin("G")
    f2 = tr.begin("F")
    tr.end(f2)
    tr.end(g)
    tr.end(f)
    agg = tr.collect()
    assert agg["F"]["calls"] == 2
    assert agg["F"]["total_s"] == 10
    assert agg["F"]["self_s"] == (10 - 6) + 2
    assert agg["G"]["self_s"] == 6 - 2


def test_peak_allocation_is_measured_inside_the_span():
    kept = np.ones(2**20)  # 8 MiB allocated before the span does not count
    tr = spans.Tracer()
    i = tr.begin("peak", peak=True)
    buf = np.ones(2**21)  # 16 MiB
    del buf
    with pytest.raises(RuntimeError):
        tr.begin("nested", peak=True)
    tr.end(i, peak=True)
    agg = tr.collect()
    assert 16.0 <= agg["peak"]["peak_mb"] < 17.0
    del kept


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

def test_install_patches_every_module_binding_and_uninstall_restores():
    # the package re-exports the function ``stft`` under the module's name
    cli, grid, quant, st, suites, ex = (importlib.import_module(f"uwq.{m}") for m in (
        "cli", "grid", "quant", "stft", "suites", "expansion"))
    original = st.stft
    tr = spans.Tracer().install()
    try:
        assert tr.absent == []
        assert st.stft is not original
        assert quant.stft is st.stft
        assert suites.stft is st.stft
        assert cli.stft is st.stft
        ax = grid.AxisGrid(16, 4.0, 1)
        tr.enabled = True
        quant.anti_wick_matrix(quant.sample_symbol(ex.PolySymbol.one(), ax))
        quant.weyl(ex.PolySymbol.x(), ax)
        tr.enabled = False
        agg = tr.collect()
    finally:
        tr.uninstall()
    assert st.stft is original
    assert agg["quant.anti_wick_matrix"]["calls"] == 1
    assert agg["stft.window_translates"]["calls"] == 1
    assert agg["quant.kernel_from_symbol.poly"]["calls"] == 1
    assert "quant.kernel_from_symbol.grid" not in agg
    assert agg["quant.anti_wick_matrix"]["total_s"] >= agg["quant.anti_wick_matrix"]["self_s"]


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + [
        ("stft.gone", "uwq.stft", "no_such_function", ()),
        ("nomodule.f", "uwq.no_such_module", "f", ()),
    ])
    tr = spans.Tracer().install()
    tr.uninstall()
    assert tr.absent == ["stft.gone", "nomodule.f"]


# ---------------------------------------------------------------------------
# names and BENCHMARK.json
# ---------------------------------------------------------------------------

def test_metric_and_workload_names_are_well_formed():
    names = ([n for n, _ in spans.layer_metrics()] + [n for n, _ in run.END_TO_END]
             + list(run.WORKLOADS))
    for name in names:
        assert NAME.fullmatch(name), name
    for _, unit in spans.layer_metrics() + list(run.END_TO_END):
        assert UNIT.fullmatch(unit), unit
    assert len(names) == len(set(names))
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.layer_metrics()
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert doc["paths"] == ["bench"]
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert len(json.dumps(doc)) <= 64 * 1024


# ---------------------------------------------------------------------------
# output checks catch corrupted results (small grids keep this fast)
# ---------------------------------------------------------------------------

class SmallOperators(workloads.Operators):
    N = 256  # the tau=1/2 round trip holds to rounding from n=256 at L=8


class SmallCliIo(workloads.CliIo):
    N = 64


def _failed(checks):
    return [name for name, ok in checks if not ok]


def test_operators_check_catches_corruption():
    w = SmallOperators(7, "")
    out = w.run()
    assert _failed(w.check(out)) == []
    out["aw_u"] = out["aw_u"].copy()
    out["aw_u"][3] += 1e-6
    out["roundtrip"][1] = out["roundtrip"][1] * (1 + 1e-6)
    assert _failed(w.check(out)) == ["antiwick_matrix_vs_direct",
                                     "symbol_kernel_roundtrip_tau0.5"]


def test_cli_io_check_catches_corrupted_file(tmp_path):
    w = SmallCliIo(7, str(tmp_path))
    codes = w.run()
    assert codes == [0, 0, 0, 0]
    assert _failed(w.check(codes)) == []
    path = w.path("op_grid.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    r, c, re_, im = lines[5].strip().split(",")
    lines[5] = f"{r},{c},{float(re_) * (1 + 1e-12) + 1e-12!r},{im}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    # after a verified pass the bytes must repeat; before it the values must match
    assert _failed(w.check(codes)) == ["quantize:op_grid.csv"]
    fresh = SmallCliIo(7, str(tmp_path))
    assert _failed(fresh.check(codes)) == ["quantize:op_grid.csv"]
    assert _failed(w.check([0, 2, 0, 0])) == ["quantize:op_grid.csv"]
    metrics = w.pass_metrics(codes)
    assert metrics["cli.bytes_written"] > 0 and metrics["cli.bytes_read"] > 0


def test_calculus_check_catches_corruption():
    w = workloads.Calculus(7, "")
    out = w.run()
    assert _failed(w.check(out)) == []
    a, once, twice = out["transpose"][0]
    key = next(iter(twice.terms))
    bad = dict(twice.terms)
    bad[key] += 1e-6 * workloads._scale(a, once)
    out["transpose"][0] = (a, once, type(twice)(twice.d, bad))
    out["conv"][0] = (out["conv"][0][0] * 1.001, out["conv"][0][1])
    assert _failed(w.check(out)) == ["transpose_involution_0", "conv_0"]


def test_verify_check_counts_every_criterion():
    w = workloads.Verify(7, "")
    Report = w.suites.Report
    reports = [Report("a", "pass", 0.0, 1.0, 1.0), Report("b", "fail", 2.0, 1.0, 1.0)]
    assert w.check(reports) == [("a", True), ("b", False)]
    assert w.pass_metrics(reports) == {"suites.a.ms": 1.0, "suites.b.ms": 1.0}


# ---------------------------------------------------------------------------
# the command refuses to run without the program
# ---------------------------------------------------------------------------

def test_run_without_sources_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", [0, 12345])
def test_seeded_inputs_repeat(seed):
    a, b = SmallOperators(seed, ""), SmallOperators(seed, "")
    assert np.array_equal(a.a.values, b.a.values)
    assert a.p == b.p
