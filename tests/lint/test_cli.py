"""CLI contract: exit codes, text output, and the JSON schema."""

import json
import re
from pathlib import Path

import pytest

from repro.lint.cli import JSON_SCHEMA_VERSION, main

FIXTURES = Path(__file__).parent / "fixtures"
PKG = FIXTURES / "repro"

DIAGNOSTIC_KEYS = {"rule", "name", "path", "line", "col", "message"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, str(PKG / "histograms" / "clean.py"))
        assert code == 0
        assert "no violations" in out

    def test_violations_exit_one(self, capsys):
        code, out, err = run_cli(capsys, str(PKG / "histograms" / "r001_global_rng.py"))
        assert code == 1
        assert "R001" in out
        assert "violation" in err

    def test_missing_path_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "no/such/path.py")
        assert code == 2
        assert "error" in err


class TestTextOutput:
    def test_file_line_col_format(self, capsys):
        _, out, _ = run_cli(capsys, str(PKG / "histograms" / "r004_missing_dtype.py"))
        first = out.splitlines()[0]
        assert first.endswith("R004 [explicit-dtype] 'np.zeros' without an explicit dtype= — the rect-array and scatter kernels assume float64 (and int64 indices); inferred dtypes drift with the input and break bit-identity guarantees") or "R004" in first
        path, line, col, *_ = first.split(":")
        assert path.endswith("r004_missing_dtype.py")
        assert line.isdigit() and col.split(" ")[0].isdigit()

    def test_statistics_summary(self, capsys):
        _, out, _ = run_cli(
            capsys, "--statistics", str(PKG / "histograms" / "r004_missing_dtype.py")
        )
        assert "R004 [explicit-dtype]: 4" in out

    def test_list_rules(self, capsys):
        code, out, _ = run_cli(capsys, "--list-rules")
        assert code == 0
        for rule_id in (
            "R001", "R003", "R004", "R005", "R007", "R008",
            "R010", "R011", "R012", "R014",
        ):
            assert rule_id in out
        assert "R006" not in out and "R013" not in out

    def test_help_lists_exactly_the_kept_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", out)) == {
            "--help", "--format", "--sarif", "--statistics", "--list-rules",
        }
        assert "paths" in out


class TestJsonOutput:
    def test_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", str(PKG / "histograms" / "r001_global_rng.py")
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 1
        assert payload["clean"] is False
        assert payload["summary"] == {"R001": 3}
        for diag in payload["diagnostics"]:
            assert set(diag) == DIAGNOSTIC_KEYS
            assert diag["rule"] == "R001"
            assert diag["line"] >= 1 and diag["col"] >= 1

    def test_clean_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", str(PKG / "histograms" / "clean.py")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["clean"] is True
        assert payload["diagnostics"] == []
        assert payload["summary"] == {}

    def test_json_is_machine_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "--format", "json", str(PKG))
        payload = json.loads(out)
        locs = [(d["path"], d["line"], d["col"], d["rule"]) for d in payload["diagnostics"]]
        assert locs == sorted(locs)


class TestFlowFlags:
    FLOW = FIXTURES / "flow"

    def test_sarif_flag_writes_a_report(self, capsys, tmp_path):
        sarif_path = tmp_path / "out" / "lint.sarif"
        run_cli(capsys, "--sarif", str(sarif_path), str(self.FLOW))
        doc = json.loads(sarif_path.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]


class TestDirectoryWalk:
    def test_fixture_directories_are_skipped_in_tree_runs(self, capsys):
        # Linting tests/ (which contains this corpus under fixtures/)
        # must not surface the intentional violations.
        code, out, _ = run_cli(capsys, str(Path(__file__).parent))
        assert code == 0
        assert "no violations" in out

    def test_explicit_fixture_file_is_linted_despite_exclusion(self, capsys):
        code, _, _ = run_cli(capsys, str(FIXTURES / "parse_error.py"))
        assert code == 1

    def test_other_fixtures_directories_are_still_linted(self, capsys, tmp_path):
        # Only the corpus at tests/lint/fixtures is skipped; a directory
        # that merely happens to be named `fixtures` elsewhere must not
        # be silently certified clean.
        pkg = tmp_path / "repro"
        (pkg / "fixtures").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "fixtures" / "__init__.py").write_text("")
        (pkg / "fixtures" / "mod.py").write_text(
            "def f():\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n"
        )
        code, out, _ = run_cli(capsys, str(tmp_path))
        assert code == 1
        assert "R005" in out
