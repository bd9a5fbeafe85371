"""Engine-level behavior of the flow layer: SARIF output and the
checkpoint rule's interplay with the per-file rules."""

from pathlib import Path

import pytest

from repro.lint import run_lint
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
