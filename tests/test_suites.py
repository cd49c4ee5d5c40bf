import pytest

from uwq.cli import main
from uwq.errors import UwqError
from uwq.suites import SuiteParams, run_suite


def test_all_criteria_pass_at_defaults():
    reports = run_suite("all")
    assert len(reports) == 14
    failed = [(r.name, r.measured, r.tolerance) for r in reports if r.status != "pass"]
    assert failed == []


def test_two_dimensions_rejected():
    with pytest.raises(UwqError, match="stft_inversion"):
        run_suite("all", SuiteParams(d=2))


def test_cli_verify_two_dimensions_exits_nonzero(capsys):
    assert main(["verify", "--d", "2"]) != 0
    assert "d=1 only" in capsys.readouterr().err
