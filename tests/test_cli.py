import csv
import io
import json
from fractions import Fraction

import pytest

from pottsverify import IndexList, build_model, INFINITY
from pottsverify.cli import ROW_FIELDS, main, parse_model_file
from pottsverify.inequalities import InequalityReport
from pottsverify.serialize import (
    ModelDocumentError,
    model_from_dict,
    model_to_dict,
    parse_rational,
)

WORKED_EXAMPLE_DOC = {
    "n": 3,
    "q": 3,
    "interactions": [
        {"sites": [1, 3], "x": "2"},
        {"sites": [2, 3], "x": "3"},
        {"sites": [1, 2, 3], "x": "5"},
    ],
    "lists": {"R": [1, 3]},
}


def write_doc(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseModelFile:
    def test_worked_example(self, tmp_path):
        model, lists = parse_model_file(write_doc(tmp_path, WORKED_EXAMPLE_DOC))
        assert model.n == 3 and model.q == 3
        assert model.interactions.s == 3
        assert dict(model.interactions.couplings) == {
            frozenset({1, 3}): 2,
            frozenset({2, 3}): 3,
            frozenset({1, 2, 3}): 5,
        }
        assert lists == {"R": IndexList((1, 3))}

    def test_empty_interactions(self, tmp_path):
        model, lists = parse_model_file(
            write_doc(tmp_path, {"n": 2, "q": 2, "interactions": []})
        )
        assert model.interactions.s == 0
        assert lists == {}

    def test_rational_and_infinite_strings(self, tmp_path):
        doc = {"n": 2, "q": 2,
               "interactions": [{"sites": [1, 2], "x": "7/2"}]}
        model, _ = parse_model_file(write_doc(tmp_path, doc))
        assert model.interactions.couplings[frozenset({1, 2})] == Fraction(7, 2)
        doc["interactions"][0]["x"] = "inf"
        model, _ = parse_model_file(write_doc(tmp_path, doc, "inf.json"))
        assert model.interactions.has_infinite

    def test_coupling_below_one_names_field(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [{"sites": [1, 2], "x": "0.5"}]}
        with pytest.raises(ModelDocumentError, match=">= 1"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_malformed_rational_names_field(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [{"sites": [1, 2], "x": "abc"}]}
        with pytest.raises(ModelDocumentError, match=r"interactions\[0\].x"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_float_weight_rejected(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [{"sites": [1, 2], "x": 1.5}]}
        with pytest.raises(ModelDocumentError, match="float"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_duplicate_interaction(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [
            {"sites": [1, 2], "x": "2"}, {"sites": [2, 1], "x": "3"}]}
        with pytest.raises(ModelDocumentError, match="duplicate"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_site_out_of_range(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [{"sites": [1, 5], "x": "2"}]}
        with pytest.raises(ModelDocumentError, match="out of range"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_small_interaction(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [{"sites": [1], "x": "2"}]}
        with pytest.raises(ModelDocumentError, match="at least 2"):
            parse_model_file(write_doc(tmp_path, doc))

    def test_unknown_keys(self, tmp_path):
        with pytest.raises(ModelDocumentError, match="unknown keys"):
            parse_model_file(write_doc(tmp_path, {"n": 2, "q": 2, "beta": 1}))

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n "q": }')
        with pytest.raises(ModelDocumentError, match="line 2"):
            parse_model_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelDocumentError):
            parse_model_file(str(tmp_path / "nope.json"))

    def test_list_site_out_of_range(self, tmp_path):
        doc = {"n": 2, "q": 2, "interactions": [], "lists": {"R": [1, 7]}}
        with pytest.raises(ModelDocumentError, match=r"lists.R"):
            parse_model_file(write_doc(tmp_path, doc))


class TestSerializeRoundTrip:
    def test_model_round_trip(self):
        model = build_model(
            3, 4, [({1, 2}, Fraction(7, 2)), ({2, 3}, INFINITY)]
        )
        lists = {"R": IndexList((1, 2, 2))}
        rebuilt, relists = model_from_dict(model_to_dict(model, lists))
        assert rebuilt == model
        assert relists == lists

    def test_parse_rational_forms(self):
        assert parse_rational("3", "x") == 3
        assert parse_rational("7/3", "x") == Fraction(7, 3)
        assert parse_rational(4, "x") == 4
        assert parse_rational("inf", "x") == INFINITY
        with pytest.raises(ModelDocumentError):
            parse_rational(True, "x")


class TestExpectCommand:
    def test_worked_example_human(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED_EXAMPLE_DOC)
        assert main(["expect", "--model", path, "--R", "1,3"]) == 0
        out = capsys.readouterr().out
        assert "value=29/66" in out

    def test_r_from_file_lists(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED_EXAMPLE_DOC)
        assert main(["expect", "--model", path]) == 0
        assert "value=29/66" in capsys.readouterr().out

    def test_missing_r_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"n": 2, "q": 2, "interactions": []})
        assert main(["expect", "--model", path]) == 2
        assert "no R list" in capsys.readouterr().err

    def test_missing_model_file(self, capsys):
        assert main(["expect", "--model", "/nonexistent.json", "--R", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_couplings_resolved_with_note(self, tmp_path, capsys):
        doc = {
            "n": 3, "q": 3,
            "interactions": [
                {"sites": [1, 2], "x": "inf"}, {"sites": [1, 3], "x": "5"},
            ],
            "lists": {"R": [2, 3]},
        }
        path = write_doc(tmp_path, doc)
        assert main(["expect", "--model", path, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "site map 1->1 2->1 3->2" in captured.err
        payload = json.loads(captured.out)
        assert payload["rows"][0]["value_num"] == 8
        assert payload["rows"][0]["value_den"] == 21


class TestVerifyCommand:
    def test_both_inequalities(self, tmp_path, capsys):
        doc = {"n": 2, "q": 2,
               "interactions": [{"sites": [1, 2], "x": "3"}],
               "lists": {"R": [1], "S": [2]}}
        path = write_doc(tmp_path, doc)
        assert main(["verify", "--model", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["quantity"] for row in payload["rows"]] == ["theorem1", "theorem2"]
        assert payload["rows"][0]["value_num"] == 0
        assert payload["rows"][1]["value_num"] == 1
        assert payload["rows"][1]["value_den"] == 8
        assert payload["all_satisfied"]


def _failing_check(kind):
    def check(model, *lists):
        return InequalityReport(kind=kind, inputs={}, values=(Fraction(-1),),
                                satisfied=False, witness=f'{{"kind": "{kind}"}}')
    return check


class TestFailingCheckExitsOne:
    """A failed mathematical check exits 1, shows FAIL and leaves one witness each."""

    @pytest.fixture(autouse=True)
    def failing_checks(self, monkeypatch):
        monkeypatch.setattr("pottsverify.cli.check_positive_expectation",
                            _failing_check("theorem1"))
        monkeypatch.setattr("pottsverify.cli.check_positive_covariance",
                            _failing_check("theorem2"))

    @pytest.fixture
    def argvs(self, tmp_path):
        path = write_doc(tmp_path, {"n": 2, "q": 2,
                                    "interactions": [{"sites": [1, 2], "x": "3"}]})
        return {
            "verify": (["verify", "--model", path, "--R", "1"], 1),
            "verify-S": (["verify", "--model", path, "--R", "1", "--S", "2"], 2),
            "sweep": (["sweep", "--suite", "theorem1", "--trials", "2"], 2),
        }

    @pytest.mark.parametrize("name", ["verify", "verify-S", "sweep"])
    def test_human(self, argvs, name, capsys):
        argv, failures = argvs[name]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.count("FAIL ") == failures
        assert f"0/{failures} checks passed" in captured.out
        assert captured.err.count("witness: ") == failures
        assert len(captured.err.splitlines()) == failures

    @pytest.mark.parametrize("name", ["verify", "verify-S", "sweep"])
    def test_json(self, argvs, name, capsys):
        argv, failures = argvs[name]
        assert main(argv + ["--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count('"satisfied": false') == failures
        payload = json.loads(captured.out)
        assert not payload["all_satisfied"]
        assert captured.err.count("witness: ") == failures


class TestContractCheckCommand:
    def test_worked_example(self, tmp_path, capsys):
        doc = dict(WORKED_EXAMPLE_DOC)
        doc["interactions"] = doc["interactions"] + [{"sites": [1, 2], "x": "1"}]
        doc["lists"] = {"R": [1, 3], "B": [1, 2]}
        path = write_doc(tmp_path, doc)
        assert main(["contract-check", "--model", path, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert "lhs=58 rhs=58" in captured.err
        payload = json.loads(captured.out)
        assert payload["rows"][0]["value_num"] == 0
        assert payload["rows"][0]["satisfied"]

    def test_missing_b_is_usage_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, WORKED_EXAMPLE_DOC)
        assert main(["contract-check", "--model", path]) == 2
        assert "no B set" in capsys.readouterr().err


class TestXiCommand:
    def test_sweep_includes_base_values(self, capsys):
        assert main(["xi", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        by_q = {}
        for row in rows:
            by_q.setdefault(row["q"], set()).add((row["value_num"], row["value_den"]))
        assert by_q["2"] == {("0", "1")}
        assert by_q["3"] == {("2", "1")}
        assert all(row["satisfied"] == "true" for row in rows)
        assert {row["q"] for row in rows} == {str(q) for q in range(2, 13)}

    def test_exponent_validation(self, capsys):
        assert main(["xi", "--q-set", "3", "--exponents", "3"]) == 2
        assert "error" in capsys.readouterr().err


class TestApproxXCommand:
    def test_conversion_is_labeled_approximate(self, capsys):
        assert main(["approx-x", "--J", "1.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("approximate:")
        value = Fraction(out.split("x = ")[1].split(" ")[0])
        assert abs(float(value) - 2.718281828459045) < 1e-6

    def test_zero_log_coupling_gives_one(self, capsys):
        assert main(["approx-x", "--J", "0.0"]) == 0
        assert "x = 1 " in capsys.readouterr().out

    def test_negative_log_coupling_rejected(self, capsys):
        assert main(["approx-x", "--J", "-1.0"]) == 2
        assert "nonnegative" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_header_and_exit_code(self, capsys):
        code = main([
            "sweep", "--suite", "theorem1", "--seed", "5", "--trials", "5",
            "--n-max", "3", "--q-set", "2,3", "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(ROW_FIELDS)
        assert lines[0] == "trial,n,q,s,|R|,|S|,quantity,value_num,value_den,satisfied"
        assert len(lines) == 6
        assert all(line.endswith("true") for line in lines[1:])

    def test_deterministic_output(self, capsys):
        args = ["sweep", "--suite", "theorem2", "--seed", "42", "--trials", "4",
                "--n-max", "3", "--q-set", "2,3", "--format", "csv"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["sweep", "--suite", "theorem2", "--seed", "43", "--trials", "4",
                     "--n-max", "3", "--q-set", "2,3", "--format", "csv"]) == 0
        different = capsys.readouterr().out
        assert different != first

    def test_hundred_trial_theorem2_run(self, capsys):
        code = main([
            "sweep", "--suite", "theorem2", "--seed", "42", "--trials", "100",
            "--n-max", "5", "--q-set", "2,3", "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 101
        assert all(line.endswith("true") for line in lines[1:])

    def test_zero_trials_empty_report(self, capsys):
        assert main(["sweep", "--suite", "theorem1", "--trials", "0",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == ",".join(ROW_FIELDS)

    def test_json_and_csv_report_identical_values(self, capsys):
        base = ["sweep", "--suite", "contraction", "--seed", "9", "--trials", "3",
                "--n-max", "3", "--q-set", "2,3"]
        assert main(base + ["--format", "csv"]) == 0
        csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert main(base + ["--format", "json"]) == 0
        json_rows = json.loads(capsys.readouterr().out)["rows"]
        assert main(base + ["--format", "human"]) == 0
        human_out = capsys.readouterr().out
        assert len(csv_rows) == len(json_rows) == 3
        for crow, jrow in zip(csv_rows, json_rows):
            for f in ROW_FIELDS:
                if f == "satisfied":
                    assert crow[f] == str(jrow[f]).lower()
                else:
                    assert crow[f] == str(jrow[f])
            assert f"value={jrow['value_num']}/{jrow['value_den']}" in human_out

    def test_all_suites_smoke(self, capsys):
        assert main(["sweep", "--suite", "all", "--seed", "1", "--trials", "2",
                     "--n-max", "3", "--q-set", "2,3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        quantities = {row["quantity"] for row in payload["rows"]}
        assert quantities == {"theorem1", "theorem2", "contraction", "xi", "quadratic"}
        assert payload["all_satisfied"]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--suite", "bogus"])
        assert exc.value.code == 2
