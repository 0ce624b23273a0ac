"""Bad input exits 2 with one error line and no traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    ("--trials", "-1"),
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


def test_sweep_q_beyond_the_state_limit(capsys):
    assert main(["sweep", "--suite", "contraction", "--q-set", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: q=100 on n_min=2 sites gives 10000 configurations, above the state limit 4096\n"
    )


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe", "not UTF-8 text at byte 0"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
], ids=["invalid-utf8", "nested-100000-deep"])
def test_unreadable_model_file(content, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    assert main(["verify", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"


@settings(max_examples=100, deadline=None)
@given(st.binary())
def test_arbitrary_model_bytes_exit_two(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--model", str(path)])
    assert code == 2
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_contract_set_of_one_site_names_the_merged_set(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 3, "q": 2, "interactions": [{"sites": [1, 2], "x": "2"}],
                                "lists": {"R": [1, 3]}}))
    assert main(["contract-check", "--model", str(path), "--B", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: merged site set must contain at least 2 sites")
    assert err.count("\n") == 1
