"""Bad numeric flags exit 2 with one error line and no traceback."""

import pytest

from pottsverify.cli import main


@pytest.mark.parametrize("j", ["1000", "nan", "inf"])
def test_approx_x_unrepresentable_log_coupling(j, capsys):
    assert main(["approx-x", "--J", j]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --J") and err.count("\n") == 1


def test_approx_x_max_denominator_below_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["approx-x", "--J", "1", "--max-denominator", "0"])
    assert exc.value.code == 2
    assert "error: argument --max-denominator: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--n-max", "0"),
    ("--max-list-len", "-1"),
    ("--x-max", "0"),
    ("--max-interactions", "-1"),
])
def test_sweep_flag_below_its_minimum_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, value, "--trials", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be >= " in err
    assert "Traceback" not in err


def test_single_site_sweep_needs_a_single_site_suite(capsys):
    assert main(["sweep", "--n-max", "1", "--trials", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: --n-max must be >= 2")
    assert main(["sweep", "--suite", "theorem2", "--n-max", "1", "--trials", "3",
                 "--format", "csv"]) == 0
