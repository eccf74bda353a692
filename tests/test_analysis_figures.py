"""Tests for the one table of the paper's tables and figures.

Every claim of every figure must hold at a small scale (the paper's ranges
and the reproduction slack included), the report and the scoreboard are
readers of the same table, and EXPERIMENTS.md lists the claims it holds.
"""

import pathlib

import pytest

from repro.analysis import figures
from repro.analysis.figures import (
    FIGURES,
    ClaimResult,
    FigureClaim,
    build_report,
    check_claims,
    evaluate,
    scoreboard,
)
from repro.analysis.harness import ExperimentRunner
from repro.cli import main
from repro.errors import ConfigError

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DATASETS = ["rmat25"]
CLI_DIV = 4096

#: The qualitative claims of §IV, each under the figure it is made about.
PAPER_SENTENCES = [
    ("fig4", "FastBFS fastest on every dataset (HDD)"),
    ("fig4", "GraphChi slowest on most datasets (HDD)"),
    ("fig5", "X-Stream reads the most input data"),
    ("fig5", "FastBFS reads the least input data"),
    ("fig6", "GraphChi iowait ratio below X-Stream's and FastBFS's"),
    ("fig6", "FastBFS iowait ratio >= X-Stream's"),
    ("fig7", "SSD is faster than HDD for all three systems"),
    ("fig7", "FastBFS on HDD is close to X-Stream on SSD"),
    ("fig8", "thread count does not help (I/O bound)"),
    ("fig8", "threads beyond core count degrade slightly"),
    ("fig9", "performance is flat across 256MB-2GB memory"),
    ("fig9", "4GB turns on in-memory mode and drops execution time sharply"),
    ("fig10", "two disks beat one disk which beats X-Stream"),
]


@pytest.fixture(scope="module")
def runner():
    # Divisor 1024 is the smallest scale where every claim is meaningful
    # (below it, fixed per-buffer compute overheads distort iowait ratios).
    return ExperimentRunner(divisor=1024)


@pytest.fixture(scope="module")
def measured(runner):
    return {name: fig.measure(runner, DATASETS) for name, fig in FIGURES.items()}


@pytest.fixture(scope="module")
def results(measured):
    return [r for name, fig in FIGURES.items() for r in evaluate(fig, measured[name])]


class TestClaims:
    def test_every_claim_holds(self, results):
        failing = [r for r in results if not r.passed]
        assert not failing, scoreboard(failing)

    def test_every_claim_has_result(self, results):
        assert len(results) == sum(len(fig.claims) for fig in FIGURES.values())
        assert len(results) >= 30
        assert {r.figure for r in results} == set(FIGURES)

    def test_range_claims_are_reachable(self, results):
        ranged = [r.claim for r in results if r.claim.endswith("in the paper's range")]
        assert len(ranged) == 10  # ten of paper.py's eleven ranges

    def test_evidence_recorded(self, results):
        for r in results:
            assert isinstance(r, ClaimResult)
            assert r.evidence

    def test_check_claims_is_the_same_evaluation(self, runner, results):
        assert check_claims(runner, DATASETS) == results

    def test_scoreboard_renders(self, results):
        text = scoreboard(results)
        assert "PASS" in text
        assert "fig9" in text

    @pytest.mark.parametrize("figure,sentence", PAPER_SENTENCES)
    def test_paper_sentence_is_a_claim_of_its_figure(self, figure, sentence):
        assert sentence in [claim.text for claim in FIGURES[figure].claims]

    def test_failing_claim_names_dataset_and_values(self, measured):
        rows = dict(measured["fig4"]["rmat25"])
        rows["fastbfs"], rows["graphchi"] = rows["graphchi"], rows["fastbfs"]
        failed = {
            r.claim: r for r in evaluate(FIGURES["fig4"], {"rmat25": rows})
            if not r.passed
        }
        evidence = failed["FastBFS fastest on every dataset (HDD)"].evidence
        assert "rmat25" in evidence
        assert f"fastbfs={rows['fastbfs'].time:.4g}" in evidence
        assert f"x-stream={rows['x-stream'].time:.4g}" in evidence
        # The doctored speedup leaves the paper's range too.
        assert "FastBFS vs X-Stream, HDD: in the paper's range" in failed

    def test_evidence_lists_only_the_failing_cases(self):
        claim = FigureClaim("positive", lambda d: d.items(), lambda v: v > 0)
        assert claim.check({"a": 1.0, "b": -2.0}) == (False, "b: -2")
        assert claim.check({"a": 1.0, "b": 2.0}) == (True, "a: 1; b: 2")


class TestTable:
    def test_order_and_unique_stems(self):
        assert list(FIGURES) == [
            "table1", "table2", "fig1", "fig4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10",
        ]
        assert [fig.name for fig in FIGURES.values()] == list(FIGURES)
        stems = [fig.stem for fig in FIGURES.values()]
        assert len(set(stems)) == len(stems)
        for stem in stems:
            assert (REPO_ROOT / "benchmarks" / "results" / f"{stem}.txt").exists()

    def test_only_table1_needs_no_runner(self):
        for name, fig in FIGURES.items():
            if name == "table1":
                assert fig.measure(None, DATASETS)
            else:
                with pytest.raises(AttributeError):
                    fig.measure(None, DATASETS)

    def test_remeasure_runs_nothing_and_render_is_pure(
        self, runner, measured, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise AssertionError("a second measure ran an engine")

        monkeypatch.setattr(runner, "_setup", boom)
        for name, fig in FIGURES.items():
            again = fig.measure(runner, DATASETS)
            text = fig.render(measured[name])
            assert fig.render(again) == text == fig.render(measured[name])

    def test_figs_4_to_6_are_metrics_of_one_set_of_runs(self, measured):
        for engine, row in measured["fig4"]["rmat25"].items():
            assert measured["fig5"]["rmat25"][engine].result is row.result
            assert measured["fig6"]["rmat25"][engine].result is row.result


class TestBuildReport:
    def test_full_report_renders(self, runner, measured):
        report = build_report(runner, datasets=DATASETS)
        assert report.startswith("# FastBFS reproduction report")
        for marker in ("Fig. 1", "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7",
                       "Fig. 8", "Fig. 9", "Fig. 10", "Table I", "Table II"):
            assert marker in report, marker
        assert f"scale divisor: {runner.divisor}" in report
        # The report is the bench's rendering, figure for figure.
        for name, fig in FIGURES.items():
            assert "```\n" + fig.render(measured[name]) + "\n```" in report

    def test_subset(self, runner):
        report = build_report(runner, figures=["fig4"], datasets=DATASETS)
        assert "Fig. 4" in report
        assert "Fig. 9" not in report

    def test_unknown_figure(self, runner):
        with pytest.raises(ConfigError):
            build_report(runner, figures=["fig99"])

    def test_speedup_rows_include_paper_ranges(self, runner):
        report = build_report(runner, figures=["fig4"], datasets=DATASETS)
        assert "1.6-2.1x" in report
        assert "2.4-3.9x" in report


class TestCli:
    def test_reproduce_stdout(self, capsys):
        assert main([
            "reproduce", "--figures", "table1", "--divisor", str(CLI_DIV),
        ]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_reproduce_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        assert main([
            "reproduce", "--figures", "fig1", "--datasets", "rmat25",
            "--divisor", str(CLI_DIV), "--output", str(out_file),
        ]) == 0
        assert "Fig. 1" in out_file.read_text()
        assert "wrote report" in capsys.readouterr().out

    def test_shapes_exit_code_follows_the_claims(self, capsys, monkeypatch):
        table1 = FIGURES["table1"]
        monkeypatch.setattr(figures, "FIGURES", {"table1": table1})
        assert main(["shapes", "--divisor", str(CLI_DIV)]) == 0
        assert "1/1 claims hold" in capsys.readouterr().out

        never = FigureClaim("never holds", lambda text: [("rows", 3)], lambda n: n > 3)
        monkeypatch.setattr(
            figures, "FIGURES",
            {"table1": table1._replace(claims=table1.claims + (never,))},
        )
        assert main(["shapes", "--divisor", str(CLI_DIV)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "never holds" in out
        assert "1/2 claims hold" in out


def claims_table() -> str:
    """The "Claims checked" table of EXPERIMENTS.md, one row per claim."""
    lines = ["| Figure | Claim | Held to |", "|---|---|---|"]
    lines += [
        f"| {figure.name} | {claim.text} | {claim.bound or '-'} |"
        for figure in FIGURES.values() for claim in figure.claims
    ]
    return "\n".join(lines)


def test_claims_table_is_documented():
    """EXPERIMENTS.md carries the generated claim list between its markers:
    a row per claim of FIGURES, none for a claim that is gone."""
    doc = (REPO_ROOT / "EXPERIMENTS.md").read_text("utf-8")
    begin, end = "<!-- claims:begin -->\n", "\n<!-- claims:end -->"
    assert doc.count(begin) == 1 and doc.count(end) == 1
    assert doc[doc.index(begin) + len(begin):doc.index(end)] == claims_table()
