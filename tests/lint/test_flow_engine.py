"""Engine-level behavior of the flow layer: the incremental cache, the
``--changed-only`` slice, SARIF output, and rule-selection interplay."""

import json
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.flow.cache import CACHE_SCHEMA_VERSION, LintCache
from repro.lint.sarif import SARIF_VERSION, to_sarif

FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "flow"


def make_project(root: Path, body: str = "") -> Path:
    pkg = root / "repro" / "histograms"
    pkg.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (root / "repro" / "runtime.py").write_text(
        "def checkpoint(stage):\n    pass\n"
    )
    (pkg / "kern.py").write_text(
        "from ..runtime import checkpoint\n"
        "def build(xs):\n"
        "    for x in xs:\n"
        "        checkpoint('k')\n" + body
    )
    (pkg / "other.py").write_text(
        "from .kern import build\n"
        "def drive(xs):\n"
        "    return build(xs)\n"
    )
    return root


class TestIncrementalCache:
    def test_warm_run_reuses_everything(self, tmp_path):
        proj = make_project(tmp_path / "proj")
        cache = tmp_path / "cache.json"

        cold = run_lint([proj], cache=cache)
        assert cold.stats.files_parsed > 0
        assert not cold.stats.flow_from_cache
        assert cache.exists()

        warm = run_lint([proj], cache=cache)
        assert warm.stats.files_parsed == 0
        assert warm.stats.summaries_from_cache == cold.files_checked
        assert warm.stats.file_diags_from_cache == cold.files_checked
        assert warm.stats.flow_from_cache
        assert [d.as_dict() for d in warm.diagnostics] == [
            d.as_dict() for d in cold.diagnostics
        ]

    def test_edit_invalidates_only_the_changed_file(self, tmp_path):
        proj = make_project(tmp_path / "proj")
        cache = tmp_path / "cache.json"
        run_lint([proj], cache=cache)

        kern = proj / "repro" / "histograms" / "kern.py"
        kern.write_text(kern.read_text() + "\n\nEXTRA = 1\n")
        rerun = run_lint([proj], cache=cache)
        # re-parsed: the edited file, plus its one importer (whose
        # per-file diagnostics are keyed on the dependency's digest)
        assert rerun.stats.files_parsed == 2
        assert rerun.stats.summaries_from_cache == 4
        # the flow key covers the whole project: any edit re-links
        assert not rerun.stats.flow_from_cache

    def test_corrupt_cache_behaves_like_no_cache(self, tmp_path):
        proj = make_project(tmp_path / "proj")
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = run_lint([proj], cache=cache)
        assert report.stats.files_parsed > 0

    def test_version_skew_discards_the_cache(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps({"version": CACHE_SCHEMA_VERSION + 1, "summaries": {}})
        )
        cache = LintCache(path)
        assert cache.get_summary("anything") is None

    def test_save_prunes_dead_digests(self, tmp_path):
        proj = make_project(tmp_path / "proj")
        cache_path = tmp_path / "cache.json"
        run_lint([proj], cache=cache_path)
        raw = json.loads(cache_path.read_text())
        n_before = len(raw["summaries"])

        kern = proj / "repro" / "histograms" / "kern.py"
        kern.write_text(kern.read_text() + "\nEXTRA = 2\n")
        run_lint([proj], cache=cache_path)
        raw = json.loads(cache_path.read_text())
        # the stale digest of kern.py was pruned, not accreted
        assert len(raw["summaries"]) == n_before


class TestChangedOnlySlice:
    def test_one_file_diff_analyzes_its_reverse_closure(self, tmp_path):
        proj = make_project(tmp_path / "proj")
        cache = tmp_path / "cache.json"
        run_lint([proj], cache=cache)

        kern = proj / "repro" / "histograms" / "kern.py"
        kern.write_text(kern.read_text() + "\nEXTRA = 3\n")
        report = run_lint([proj], cache=cache, changed=[kern])
        # slice = kern.py + other.py (imports it); __init__/runtime stay out
        assert report.stats.slice_files == 2
        assert report.files_checked == 2
        # parsed: the edited file, plus the importer whose per-file
        # diagnostics were invalidated by the new dependency digest
        assert report.stats.files_parsed == 2
        assert report.stats.summaries_from_cache == 4

    def test_unchanged_project_with_empty_diff_checks_nothing(self, tmp_path):
        proj = make_project(tmp_path / "proj")
        cache = tmp_path / "cache.json"
        run_lint([proj], cache=cache)
        report = run_lint([proj], cache=cache, changed=[])
        assert report.stats.slice_files == 0
        assert report.files_checked == 0

    def test_flow_findings_outside_the_slice_are_hidden(self, tmp_path):
        # an uncovered kernel loop lives in kern.py; a diff touching only
        # other.py (which nothing imports) must not re-report it
        proj = make_project(
            tmp_path / "proj",
            body=(
                "def bad(xs):\n"
                "    for x in xs:\n"
                + "".join(f"        y{i} = x + {i}\n" for i in range(9))
            ),
        )
        full = run_lint([proj])
        assert any(d.rule == "R010" for d in full.diagnostics)

        other = proj / "repro" / "histograms" / "other.py"
        other.write_text(other.read_text() + "\nEXTRA = 1\n")
        sliced = run_lint([proj], changed=[other])
        assert sliced.stats.slice_files == 1
        flagged_paths = {d.path for d in sliced.diagnostics}
        assert all("kern.py" not in p for p in flagged_paths)


class TestSarifOutput:
    @pytest.fixture(scope="class")
    def sarif(self):
        return to_sarif(run_lint([FLOW_FIXTURES]))

    def test_document_shape(self, sarif):
        assert sarif["version"] == SARIF_VERSION
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"

    def test_every_rule_is_catalogued(self, sarif):
        ids = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        assert {"R001", "R009", "R010", "R014", "E001"} <= ids

    def test_results_carry_locations(self, sarif):
        results = sarif["runs"][0]["results"]
        assert results  # the fixture corpus has known violations
        for result in results:
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1


class TestRuleSelection:
    def test_no_flow_skips_r010_r014(self):
        report = run_lint([FLOW_FIXTURES], flow=False)
        assert not any(d.rule.startswith("R01") for d in report.diagnostics)

    def test_r010_subsumes_r002_by_default(self, tmp_path):
        # an uncovered long loop: flagged once (R010), not twice
        proj = make_project(
            tmp_path / "proj",
            body=(
                "def bad(xs):\n"
                "    for x in xs:\n"
                + "".join(f"        y{i} = x + {i}\n" for i in range(9))
            ),
        )
        report = run_lint([proj])
        rules = [d.rule for d in report.diagnostics]
        assert "R010" in rules
        assert "R002" not in rules
