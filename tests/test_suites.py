import dataclasses
import itertools
import json
import sys
import time
import types

import numpy as np
import pytest

import uwq.suites as suites
from uwq.cli import main
from uwq.errors import UwqError
from uwq.expansion import PolySymbol, compose_terms, tau_change_terms
from uwq.grid import AxisGrid
from uwq.quant import apply_symbol
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


@pytest.mark.parametrize("failing", ["m1_ok", "m2_ok"])
def test_weights_reports_a_failed_fit(monkeypatch, failing):
    # with (M.1) or (M.2) failing there is no (c0, H) to check the growth
    # bound with: the criterion records both failures instead of raising
    real = suites.check_conditions

    def check(w):
        rep = real(w)
        if failing == "m2_ok":
            return dataclasses.replace(rep, m2_ok=False, m2_H=None, m2_c0=None)
        return dataclasses.replace(rep, m1_ok=False)

    def no_second_fit(w, m, n_max, constants=None):
        assert constants is not None
        return real_bound(w, m, n_max, constants)

    real_bound = suites.check_assoc_bound
    monkeypatch.setattr(suites, "check_conditions", check)
    monkeypatch.setattr(suites, "check_assoc_bound", no_second_fit)
    rep = suites.criterion_weights(SuiteParams())
    assert rep.status == "fail" and rep.measured == 6.0
    assert rep.detail == "; ".join(f"{kind} s={s}" for s in (1.5, 2.0, 3.0)
                                   for kind in ("conditions", "growth bound"))


def test_weights_growth_bound_uses_the_fitted_constants(monkeypatch):
    seen = []
    real_bound = suites.check_assoc_bound
    monkeypatch.setattr(suites, "check_assoc_bound",
                        lambda w, m, n, constants=None: seen.append(constants)
                        or real_bound(w, m, n, constants))
    assert suites.criterion_weights(SuiteParams()).status == "pass"
    assert len(seen) == 3 and all(c is not None for c in seen)


def test_norm_bound_sees_an_anti_hermitian_error(monkeypatch):
    # A_a + i t I has the Hermitian part of A_a but a norm above t: the
    # measured bound must stay above the true norm and fail the criterion
    params = SuiteParams()
    real = suites.anti_wick_matrix
    norms = []

    def skewed(a):
        m = real(a)
        entries = m.entries + 2j * float(np.max(np.abs(a.values))) * np.eye(len(m.entries))
        norms.append(np.linalg.norm(entries, 2) / float(np.max(np.abs(a.values))))
        return dataclasses.replace(m, entries=entries)

    monkeypatch.setattr(suites, "anti_wick_matrix", skewed)
    rep = suites.criterion_norm_bound(params)
    assert rep.status == "fail"
    assert rep.measured * (1.0 + 1e-6) >= max(norms) > 2.0


def per_function_tau_and_compose(n: int) -> tuple:
    """The tau_change and composition measurements with one apply_symbol
    call per function and per (t1, t) or (a, b) pair: the loops the stacked
    criteria replace."""

    def defect(ref, other):
        return float(np.max(np.abs(ref - other))) / max(1.0, float(np.max(np.abs(ref))))

    params = SuiteParams(n=n)
    axis = AxisGrid(params.n, params.L, 1)
    corpus = [u.values for u in suites._decaying_corpus(axis)]
    tau = 0.0
    for a in suites._tau_polys():
        for t1, t in itertools.product([0.0, 0.5, 1.0], repeat=2):
            b = tau_change_terms(a, t1, t)
            for u in corpus:
                tau = max(tau, defect(apply_symbol(a, t1, axis, u), apply_symbol(b, t, axis, u)))
    monos = [PolySymbol.monomial(1, (i,), (j,))
             for i in range(4) for j in range(4) if 1 <= i + j <= 3]
    compose = 0.0
    for a, b in itertools.product(monos, monos):
        f = compose_terms(a, b)
        for u in corpus[:3]:
            v1 = apply_symbol(a, 0.0, axis, apply_symbol(b, 0.0, axis, u))
            compose = max(compose, defect(v1, apply_symbol(f, 0.0, axis, u)))
    return tau, compose


@pytest.mark.parametrize("n", [64, 128])
def test_stacked_tau_and_compose_match_per_function_loops(n):
    params = SuiteParams(n=n)
    tau, compose = per_function_tau_and_compose(n)
    assert suites.criterion_tau_change(params).measured == tau
    assert suites.criterion_composition(params).measured == compose


def test_tau_and_compose_transform_whole_stacks(monkeypatch):
    # one pass made 1,179 apply_symbol calls and 2,486 fftn/ifftn calls
    # when each function was transformed on its own
    calls = {"apply": 0, "fft": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(suites, "apply_symbol", counting(suites.apply_symbol, "apply"))
    monkeypatch.setattr(np.fft, "fftn", counting(np.fft.fftn, "fft"))
    monkeypatch.setattr(np.fft, "ifftn", counting(np.fft.ifftn, "fft"))
    suites.criterion_tau_change(SuiteParams())
    suites.criterion_composition(SuiteParams())
    assert calls["apply"] <= 231 and calls["fft"] <= 474, calls
