"""Bad input exits 2 with one error line and no traceback."""

import contextlib
import io
import json
import sys
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


@pytest.mark.parametrize("argv, text", [
    (["verify"], '{"n": 2, "q": 2, "interactions": [{"sites": [1, 2], "x": 1%s}]}'),
    (["expect", "--R", "1"], '{"n": 1%s, "q": 2}'),
], ids=["verify-x", "expect-n"])
def test_model_file_integer_past_the_digit_limit(argv, text, tmp_path, capsys):
    """json.load refuses an integer of more than 4300 digits with a plain
    ValueError; the CLI names the file and exits 2."""
    path = tmp_path / "model.json"
    path.write_text(text % ("0" * 5000))
    assert main([*argv, "--model", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: an integer has more than {sys.get_int_max_str_digits()} digits\n")


def _doc(**fields):
    return {"n": 2, "q": 2, **fields}


def _entry(**fields):
    return _doc(interactions=[{"sites": [1, 2], "x": "2", **fields}])


@pytest.mark.parametrize("doc, message", [
    (_entry(x=None), "interactions[0].x: expected a rational string, got NoneType"),
    (_doc(n=2.5), "n: expected an integer, got 2.5"),
    ({"n": 2}, "missing required key 'q'"),
    (_doc(interactions={}), "interactions: expected a list"),
    (_doc(interactions=[[1, 2]]), "interactions[0]: expected an object with 'sites' and 'x'"),
    (_entry(y=1), "interactions[0]: unknown keys ['y']"),
    (_doc(interactions=[{"sites": [1, 2]}]), "interactions[0]: both 'sites' and 'x' are required"),
    (_entry(sites="12"), "interactions[0].sites: expected a list of sites"),
    (_doc(lists=[]), "lists: expected an object of named lists"),
    (_doc(lists={"R": 1}), "lists.R: expected a list of sites"),
    (_doc(n=0), "site count n must be >= 1 and a plain int, got 0"),
], ids=["null-weight", "float-n", "missing-q", "interactions-object", "entry-list",
        "entry-unknown-key", "entry-missing-x", "sites-string", "lists-list", "list-int",
        "zero-n"])
def test_invalid_model_document_names_the_field(doc, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--model", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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


def test_contract_set_merged_by_an_infinite_coupling_names_the_given_sites(tmp_path, capsys):
    """Contraction relabels B, so a B inside one infinite coupling collapses
    to one site; the error names the sites as given, not the relabelled one."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": 4, "q": 2,
                                "interactions": [{"sites": [1, 2], "x": "2"},
                                                 {"sites": [3, 4], "x": "inf"}],
                                "lists": {"R": [1, 3]}}))
    assert main(["contract-check", "--model", str(path), "--B", "3,4"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1
    assert "{3,4}" in errors[0] and "contract" in errors[0]
    assert "{3}" not in errors[0]


# --- argv fuzz -----------------------------------------------------------------
# Every flag takes values from one small alphabet of awkward strings plus a few
# valid ones of its own.  Counts stay small: sweep always gets --trials from
# FUZZ_TRIALS, and no value parses to a large integer.

FUZZ_VALUES = ("", "0", "-1", "1", "2", "1,,2", "2,2", "x", "nan", "inf", "1e9", "1,2,3")
FUZZ_TRIALS = ("0", "1", "2", "-1", "x")
MODEL_FLAGS = {"--model": (), "--R": ("1,3",), "--S": ("2,2",),
               "--format": ("human", "json", "csv")}
FUZZ_FLAGS = {
    "expect": MODEL_FLAGS,
    "verify": MODEL_FLAGS,
    "contract-check": {**MODEL_FLAGS, "--B": ("1,2", "1,2,3")},
    "xi": {"--q-set": ("2,3",), "--exponents": ("2,4",), "--format": ("csv",)},
    "approx-x": {"--J": ("0.5", "-0.0"), "--max-denominator": ("10",)},
    "sweep": {"--suite": ("all", "theorem1", "contraction", "xi", "quadratic"),
              "--seed": (), "--q-set": ("2,3",), "--n-max": ("3",), "--x-max": (),
              "--max-interactions": (), "--max-list-len": (), "--format": ("json",)},
}


@pytest.fixture(scope="module")
def fuzz_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps({
        "n": 3, "q": 3,
        "interactions": [{"sites": [1, 3], "x": "2"}, {"sites": [2, 3], "x": "inf"}],
        "lists": {"R": [1, 3], "S": [2, 2], "B": [1, 2]},
    }))
    return str(path)


@st.composite
def fuzz_argv(draw, model_path):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    argv = [command]
    if command == "sweep":
        argv += ["--trials", draw(st.sampled_from(FUZZ_TRIALS))]
    if command in ("expect", "verify", "contract-check") and draw(st.booleans()):
        argv += ["--model", model_path]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(FUZZ_VALUES + flags[flag]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_argv_fuzz_keeps_the_exit_code_contract(data, fuzz_model_path):
    argv = data.draw(fuzz_argv(fuzz_model_path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    error_lines = [line for line in err.getvalue().splitlines() if "error: " in line]
    assert len(error_lines) == (1 if code == 2 else 0)


@pytest.mark.parametrize("suite, code", [
    ("all", 2), ("contraction", 2), ("quadratic", 2), ("theorem1", 0), ("theorem2", 0), ("xi", 0),
])
def test_single_site_sweep_refuses_only_the_suites_that_merge_sites(suite, code, capsys):
    argv = ["sweep", "--suite", suite, "--n-max", "1", "--trials", "3", "--format", "csv"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == (
            "error: --n-max must be >= 2 for the contraction and quadratic suites\n")
    else:
        assert captured.err == ""
        assert len(captured.out.splitlines()) > 1


def test_xi_command_without_n_max_runs(capsys):
    assert main(["xi", "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""
