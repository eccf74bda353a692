"""CLI and reporting-engine tests of ``repro analyze``.

Covers the 0/1/2 exit-code contract, ``--format text|json|sarif``,
golden-file schema stability, byte-determinism of reports, and baseline
handling end to end.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.tooling.analyzer import RULES, analyze_paths
from repro.tooling.analyzer.runner import main as analyzer_main
from repro.tooling.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    Finding,
    render_json,
    render_sarif,
)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "analyzer_fixtures"
REPO_ROOT = HERE.parent
DATA = HERE / "data"

GOLDEN_FINDINGS = [
    Finding(path="src/repro/obs/watch.py", line=11, col=5, code="FB201",
            symbol="repro.obs.watch.Watcher.record",
            message="observability code reaches CLOCK_ADVANCE"),
    Finding(path="src/repro/graph/sampler.py", line=4, col=11, code="FB204",
            symbol="repro.graph.sampler.sample",
            message="direct numpy.random.default_rng() call"),
]
GOLDEN_RULES = {
    "FB201": "observability code reaches CLOCK_ADVANCE/DEVICE_IO",
    "FB204": "direct numpy.random/random primitive outside repro.utils.rng",
}


@pytest.fixture()
def isolated_cwd(tmp_path, monkeypatch):
    """Run CLIs away from the repo root so the committed default baseline
    (analyzer_baseline.json) is not auto-loaded."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_analyzer_clean_exits_zero(self, isolated_cwd):
        assert analyzer_main([str(FIXTURES / "fb201" / "repro" / "sim")]) == EXIT_CLEAN

    def test_analyzer_findings_exit_one(self, isolated_cwd, capsys):
        assert analyzer_main([str(FIXTURES / "fb204")]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "FB204" in out
        assert out.rstrip().endswith("2 finding(s)")

    def test_analyzer_missing_path_exits_two(self, isolated_cwd, capsys):
        assert analyzer_main(["definitely/not/here"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_analyzer_bad_baseline_exits_two(self, isolated_cwd, capsys):
        bad = isolated_cwd / "baseline.json"
        bad.write_text('{"schema": "wrong/99", "entries": []}')
        code = analyzer_main(
            [str(FIXTURES / "fb204"), "--baseline", str(bad)]
        )
        assert code == EXIT_USAGE

    def test_lint_shares_the_same_contract(self, isolated_cwd, capsys):
        """A module-local (former lint) rule drives the same 0/1/2 codes."""
        clean = isolated_cwd / "clean.py"
        clean.write_text("X = 1\n")
        assert analyzer_main([str(clean)]) == EXIT_CLEAN
        bad = isolated_cwd / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x):\n    assert x\n")
        assert analyzer_main([str(bad)]) == EXIT_FINDINGS
        assert "bad.py:2:5: FB102" in capsys.readouterr().out
        assert analyzer_main([str(isolated_cwd / "gone.py")]) == EXIT_USAGE

    def test_repro_cli_subcommands_dispatch(self, isolated_cwd, capsys):
        assert cli_main(["analyze", str(FIXTURES / "fb204")]) == EXIT_FINDINGS
        capsys.readouterr()
        assert cli_main(["analyze", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted(RULES)
        assert (
            cli_main(["analyze", str(REPO_ROOT / "src" / "repro" / "errors.py")])
            == EXIT_CLEAN
        )

    def test_repro_analyze_hands_its_argv_to_the_analyzer(self, isolated_cwd):
        """Options before paths, and every analyzer option, reach
        ``analyzer.main`` without ``cli.py`` declaring any of them."""
        out = isolated_cwd / "report.json"
        code = cli_main([
            "analyze", "--format", "json", "--output", str(out),
            "--baseline", str(FIXTURES / "fb206" / "baseline.json"),
            str(FIXTURES / "fb206"),
        ])
        assert code == EXIT_CLEAN
        assert json.loads(out.read_text())["tool"] == "repro.tooling.analyzer"

    def test_repro_lint_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "src/repro"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_document_schema(self, isolated_cwd, capsys):
        analyzer_main([str(FIXTURES / "fb204"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "fastbfs-findings/1"
        assert doc["tool"] == "repro.tooling.analyzer"
        assert doc["count"] == 2
        assert set(doc["findings"][0]) == {
            "path", "line", "col", "code", "symbol", "message",
        }
        assert doc["rules"] == RULES

    def test_sarif_document_shape(self, isolated_cwd, capsys):
        analyzer_main([str(FIXTURES / "fb204"), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.tooling.analyzer"
        assert len(run["results"]) == 2
        result = run["results"][0]
        assert result["ruleId"] == "FB204"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert set(region) == {"startLine", "startColumn"}

    def test_lint_json_format(self, isolated_cwd, capsys):
        """Module-local findings are reported by the one tool, positional
        (empty ``symbol``) like the lint's were."""
        bad = isolated_cwd / "repro" / "engines" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x):\n    print(x)\n")
        analyzer_main([str(bad), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "fastbfs-findings/1"
        assert doc["tool"] == "repro.tooling.analyzer"
        assert [(f["code"], f["line"], f["col"], f["symbol"])
                for f in doc["findings"]] == [("FB108", 2, 5, "")]

    def test_output_flag_writes_file(self, isolated_cwd):
        out = isolated_cwd / "report.sarif"
        analyzer_main(
            [str(FIXTURES / "fb204"), "--format", "sarif", "--output", str(out)]
        )
        assert json.loads(out.read_text())["version"] == "2.1.0"


class TestGoldenFiles:
    """Schema locks: renderer output must match the committed goldens
    byte for byte.  A diff here means the output schema changed — bump
    the schema id and regenerate deliberately."""

    def test_sarif_matches_golden(self):
        rendered = render_sarif(
            GOLDEN_FINDINGS, "repro.tooling.analyzer", GOLDEN_RULES
        )
        golden = (DATA / "golden_findings.sarif").read_text(encoding="utf-8")
        assert rendered == golden

    def test_json_matches_golden(self):
        rendered = render_json(
            GOLDEN_FINDINGS, "repro.tooling.analyzer", GOLDEN_RULES
        )
        golden = (DATA / "golden_findings.json").read_text(encoding="utf-8")
        assert rendered == golden


class TestDeterminism:
    def test_two_runs_render_byte_identical_reports(self):
        paths = [str(REPO_ROOT / "src" / "repro")]
        first = analyze_paths(paths)
        second = analyze_paths(paths)
        for fmt_render in (render_json, render_sarif):
            assert fmt_render(
                first.findings, "repro.tooling.analyzer", {}
            ) == fmt_render(second.findings, "repro.tooling.analyzer", {})
        assert [str(f) for f in first.findings] == [
            str(f) for f in second.findings
        ]


class TestBaselineFlow:
    def test_explicit_baseline_filters_and_reports_stale(self, isolated_cwd, capsys):
        code = analyzer_main(
            [
                str(FIXTURES / "fb206"),
                "--baseline",
                str(FIXTURES / "fb206" / "baseline.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CLEAN
        assert "baselined finding(s) suppressed" in captured.err

    def test_stale_entries_warn_on_stderr(self, isolated_cwd, capsys):
        code = analyzer_main(
            [
                str(FIXTURES / "fb201" / "repro" / "sim"),
                "--baseline",
                str(FIXTURES / "fb206" / "baseline.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CLEAN
        assert "stale baseline entries" in captured.err

    def test_default_baseline_autoloads_from_cwd(self, isolated_cwd, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert analyzer_main([str(REPO_ROOT / "src" / "repro")]) == EXIT_CLEAN

    def test_api_analyze_tree(self):
        result = analyze_paths(
            [str(REPO_ROOT / "src" / "repro")],
            baseline=Baseline.load(str(REPO_ROOT / "analyzer_baseline.json")),
        )
        assert result.ok
        assert len(result.baselined) == 8
