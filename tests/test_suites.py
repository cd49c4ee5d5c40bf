import pytest

from uwq.cli import main
from uwq.errors import UwqError
from uwq.suites import SuiteParams, _half_band, run_suite


def failures(params: SuiteParams) -> list:
    reports = run_suite("all", params)
    assert len(reports) == 14
    return [(r.name, r.measured, r.tolerance) for r in reports if r.status != "pass"]


def test_all_criteria_pass_at_defaults():
    assert failures(SuiteParams()) == []


def test_all_criteria_pass_at_n64():
    assert failures(SuiteParams(n=64)) == []


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
