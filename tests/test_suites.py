import dataclasses
import json
import sys
import time
import types

import pytest

import uwq.suites as suites
from uwq.cli import main
from uwq.errors import UwqError
from uwq.suites import Report, SuiteParams, _half_band, report_header, run_suite


def failures(params: SuiteParams) -> list:
    reports = run_suite("all", params)
    assert len(reports) == 14
    assert all(r.runtime_ms > 0 for r in reports)
    return [(r.name, r.measured, r.tolerance) for r in reports if r.status != "pass"]


def test_all_criteria_pass_at_defaults():
    assert failures(SuiteParams()) == []


def test_all_criteria_pass_at_n64():
    assert failures(SuiteParams(n=64)) == []


@pytest.mark.parametrize("suite", ["tau", "compose"])
def test_tau_and_compose_pass_at_n256(suite):
    # a dense xi^6 kernel rounds to ~2e-7 here, 20x composition's 1e-8
    reports = run_suite(suite, SuiteParams(n=256))
    assert reports and all(r.status == "pass" for r in reports), \
        [(r.name, r.measured) for r in reports]


def test_two_dimensions_rejected():
    with pytest.raises(UwqError, match="stft_inversion"):
        run_suite("all", SuiteParams(d=2))


def test_cli_verify_two_dimensions_exits_nonzero(capsys):
    assert main(["verify", "--d", "2"]) != 0
    assert "d=1 only" in capsys.readouterr().err


def test_band_sized_from_n():
    # the default grids keep their 40- and 24-bin bands; n = 32 gets 24 bins
    assert _half_band(128, 20) == 20 and _half_band(128, 12) == 12
    assert _half_band(64, 20) == 20 and _half_band(32, 20) == 12
    reports = run_suite("stft", SuiteParams(n=32))
    assert [r.status for r in reports] == ["pass", "pass"]
    assert len(run_suite("quant245", SuiteParams(n=32))) == 4


@pytest.mark.parametrize("n", [2, 8, 16])
def test_coarse_grid_rejected(n, capsys):
    for suite in ("stft", "quant245", "all"):
        with pytest.raises(UwqError, match="n >= 32"):
            run_suite(suite, SuiteParams(n=n))
    assert main(["verify", "--n", str(n), "--suite", "stft"]) == 2
    assert capsys.readouterr().err.startswith("error: verify criteria need n >= 32")


def test_unknown_suite_names_the_suites():
    with pytest.raises(UwqError) as exc:
        run_suite("nope")
    assert str(exc.value) == ("unknown suite 'nope'; choose from ['all', 'stft', 'quant245', "
                              "'expansion', 'tau', 'compose', 'gaussconv', 'weights']")


def test_json_records_are_the_report_fields(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "gaussconv", "--json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    fields = {f.name for f in dataclasses.fields(Report)}
    assert len(doc["reports"]) == 2
    assert all(set(r) == fields for r in doc["reports"])
    assert doc["header"] == report_header(SuiteParams())


def test_header_key_order(capsys):
    keys = ["constants_version", "n", "L", "quant_L", "d", "seed"]
    assert list(report_header(SuiteParams())) == keys
    assert main(["verify", "--suite", "compose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln[2:].split("=")[0] for ln in lines if ln.startswith("# ")] == keys


def test_only_run_suite_reads_the_clock(monkeypatch):
    callers = []

    def clock():
        callers.append(sys._getframe(1).f_code.co_name)
        return time.perf_counter()

    monkeypatch.setattr(suites, "time", types.SimpleNamespace(perf_counter=clock))
    reports = run_suite("quant245")
    assert callers == ["run_suite"] * (2 * len(reports))
    assert all(r.runtime_ms > 0 for r in reports)
