"""Tests for the command-line interface."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.analysis.calibration import ENGINES, scaled_machine
from repro.analysis.harness import default_root
from repro.cli import main
from repro.errors import ConfigError
from repro.graph.datasets import scale_divisor
from repro.graph.io import load_graph
from repro.obs.exporters import parse_prometheus
from repro.tooling.analyzer.runner import _build_parser as analyzer_parser

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    return main(args)


class TestGenerate:
    def test_rmat(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        assert run_cli(["generate", "rmat", out, "--scale", "8"]) == 0
        g = load_graph(out)
        assert g.num_vertices == 256
        assert "wrote" in capsys.readouterr().out

    def test_grid(self, tmp_path):
        out = str(tmp_path / "grid.bin")
        assert run_cli(["generate", "grid", out, "--width", "10",
                        "--height", "10"]) == 0
        assert load_graph(out).num_vertices == 100

    def test_random(self, tmp_path):
        out = str(tmp_path / "r.bin")
        assert run_cli(["generate", "random", out, "--vertices", "100",
                        "--edges", "500"]) == 0
        assert load_graph(out).num_edges == 500

    def test_powerlaw(self, tmp_path):
        out = str(tmp_path / "p.bin")
        assert run_cli(["generate", "powerlaw", out, "--vertices", "200",
                        "--edges", "1000"]) == 0
        assert load_graph(out).num_edges == 1000


class TestRun:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "9", "--edge-factor", "8"])
        return out

    @pytest.mark.parametrize("engine", ["fastbfs", "x-stream", "graphchi"])
    def test_engines(self, graph_file, capsys, engine):
        assert run_cli(["run", "--graph", graph_file, "--engine", engine,
                        "--validate"]) == 0
        out = capsys.readouterr().out
        assert "TEPS" in out
        assert "validation: OK" in out

    def test_explicit_root(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--root", "0"]) == 0
        assert "root: 0" in capsys.readouterr().out

    def test_multi_source_roots(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--roots", "0", "5"]) == 0
        assert "roots:" in capsys.readouterr().out

    def test_roots_with_validate_rejected(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--roots", "0", "5",
                        "--validate"]) == 2

    @pytest.mark.parametrize("algorithm", ["wcc", "sssp"])
    def test_roots_rejected_for_non_bfs(self, graph_file, capsys, algorithm):
        assert run_cli(["run", "--graph", graph_file, "--algorithm", algorithm,
                        "--roots", "0", "5"]) == 2
        assert "--roots applies to --algorithm bfs only" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["wcc", "sssp"])
    def test_validate_rejected_for_non_bfs(self, graph_file, capsys, algorithm):
        assert run_cli(["run", "--graph", graph_file, "--algorithm", algorithm,
                        "--validate"]) == 2
        assert "--validate applies to --algorithm bfs only" in capsys.readouterr().err

    def test_wcc(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--algorithm", "wcc"]) == 0
        assert "components" in capsys.readouterr().out

    def test_wcc_graphchi(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--algorithm", "wcc",
                        "--engine", "graphchi"]) == 0
        assert "components" in capsys.readouterr().out

    def test_sssp(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--algorithm", "sssp",
                        "--max-weight", "5"]) == 0
        assert "max distance" in capsys.readouterr().out

    def test_sssp_graphchi_unsupported(self, graph_file):
        assert run_cli(["run", "--graph", graph_file, "--algorithm", "sssp",
                        "--engine", "graphchi"]) == 2

    def test_missing_file_errors(self, tmp_path):
        assert run_cli(["run", "--graph", str(tmp_path / "nope.bin")]) == 1

    def test_ssd_machine(self, graph_file, capsys):
        assert run_cli(["run", "--graph", graph_file, "--disk-kind", "ssd"]) == 0


class TestBatch:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "9", "--edge-factor", "8"])
        return out

    @pytest.mark.parametrize("engine", ["fastbfs", "x-stream", "graphchi"])
    def test_engines(self, graph_file, capsys, engine):
        assert run_cli(["batch", "--graph", graph_file, "--engine", engine,
                        "--roots", "0", "5", "9"]) == 0
        text = capsys.readouterr().out
        assert "staging" in text
        assert "amortized/query" in text

    def test_verbose_prints_iterations(self, graph_file, capsys):
        assert run_cli(["batch", "--graph", graph_file, "--roots", "0", "5",
                        "--verbose"]) == 0
        assert "iter" in capsys.readouterr().out

    def test_batched_mode_reports_shared_scans(self, graph_file, capsys):
        assert run_cli(["batch", "--graph", graph_file, "--roots", "0", "5",
                        "9", "--batch"]) == 0
        text = capsys.readouterr().out
        assert "shared-scan batch" in text
        assert "edges scanned" in text

    def test_batched_mode_falls_back_for_graphchi(self, graph_file, capsys):
        assert run_cli(["batch", "--graph", graph_file, "--engine", "graphchi",
                        "--roots", "0", "5", "--batch"]) == 0
        assert "serial fallback" in capsys.readouterr().out


class TestCompare:
    def test_compare_prints_speedups(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "9"])
        assert run_cli(["compare", "--graph", out]) == 0
        text = capsys.readouterr().out
        assert "x-stream" in text and "graphchi" in text
        assert "speedup vs X-Stream" in text


class TestProfile:
    def test_profile(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "8"])
        assert run_cli(["profile", "--graph", out]) == 0
        text = capsys.readouterr().out
        assert "frontier" in text
        assert "saved by trimming" in text

    def test_scans_saved_are_fastbfs_against_x_stream(self, tmp_path, capsys):
        """FastBFS's scans by the volume formula against X-Stream's, which
        runs one pass more than the depth when the deepest level has
        out-edges (E x (depth + 1) read 62.2% here)."""
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "10", "--edge-factor",
                 "8", "--seed", "7"])
        capsys.readouterr()
        assert run_cli(["profile", "--graph", out]) == 0
        text = capsys.readouterr().out
        assert text.endswith("edge scans saved by trimming: 67.6%\n")

    @pytest.mark.parametrize("name", ["missing.jsonl", "."])
    def test_unreadable_trace_is_a_typed_error(self, tmp_path, capsys, name):
        path = str(tmp_path / name)
        assert run_cli(["profile", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace") and path in err

    def test_narrow_width_rejected_when_parsed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["profile", str(tmp_path / "t.jsonl"), "--width", "5"])
        assert exc.value.code == 2
        assert "--width: must be >= 10" in capsys.readouterr().err


class TestDatasets:
    def test_listing(self, capsys):
        assert run_cli(["datasets"]) == 0
        text = capsys.readouterr().out
        for name in ("rmat22", "rmat25", "rmat27", "twitter_rv", "friendster"):
            assert name in text


class TestGantt:
    def test_single_disk(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "8"])
        # 16MB (paper scale) keeps the run out-of-core so the disk lanes
        # actually carry the streams.
        assert run_cli(["gantt", "--graph", out, "--width", "40",
                        "--memory", "16MB"]) == 0
        text = capsys.readouterr().out
        assert "hdd0" in text
        assert "edges[R]" in text
        assert "stay[W]" in text

    def test_two_disk_rotation(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "8"])
        assert run_cli(["gantt", "--graph", out, "--disks", "2",
                        "--width", "40"]) == 0
        text = capsys.readouterr().out
        assert "hdd1" in text

    def test_narrow_width_rejected_before_the_run(self, tmp_path, capsys):
        # The graph does not exist: a check made after loading would exit 1.
        with pytest.raises(SystemExit) as exc:
            run_cli(["gantt", "--graph", str(tmp_path / "nope.bin"),
                     "--width", "5"])
        assert exc.value.code == 2
        assert "--width: must be >= 10" in capsys.readouterr().err

    def test_verbose_run(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "8"])
        assert run_cli(["run", "--graph", out, "--verbose"]) == 0
        text = capsys.readouterr().out
        assert "edges scanned" in text
        assert "swap/cancel" in text


class TestShapes:
    def test_scoreboard_runs(self, capsys):
        assert run_cli(["shapes", "--divisor", "1024",
                        "--datasets", "rmat25"]) == 0
        text = capsys.readouterr().out
        assert "claims hold" in text
        assert "PASS" in text


class TestTwoDisks:
    """FastBFS on two disks is the ``fastbfs-2disk`` row in every command."""

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("two_disks") / "g.bin")
        run_cli(["generate", "rmat", out, "--scale", "12", "--edge-factor", "8"])
        return out

    def test_run_uses_the_second_disk(self, graph_file, tmp_path, monkeypatch):
        results = []
        export = cli.export_observability

        def recording_export(machine, result, *paths):
            results.append(result)
            export(machine, result, *paths)

        monkeypatch.setattr(cli, "export_observability", recording_export)
        metrics = tmp_path / "m.prom"
        assert run_cli(["run", "--graph", graph_file, "--memory", "16MB",
                        "--disks", "2", "--metrics", str(metrics)]) == 0
        counters = parse_prometheus(metrics.read_text())
        for kind in ("read", "write"):
            assert counters.total("device_bytes_total", device="hdd1", kind=kind) > 0

        graph = load_graph(graph_file)
        divisor = scale_divisor()
        rotated = ENGINES["fastbfs-2disk"].scaled(divisor).run(
            graph, scaled_machine(memory="16MB", num_disks=2, divisor=divisor),
            root=default_root(graph),
        )
        (result,) = results
        assert result.execution_time == rotated.execution_time
        assert result.report.to_dict() == rotated.report.to_dict()


class TestServe:
    @staticmethod
    def serve_staging(monkeypatch, *flags):
        """Run ``repro serve`` with ``flags``; return its exit code and the
        names it tried to stage.  Staging is refused, so a setting that
        slips through fails here instead of serving forever."""
        from repro.serve.registry import ArtifactRegistry

        staged = []

        def refuse(self, name, graph):
            staged.append(name)
            raise ConfigError("staging reached")

        monkeypatch.setattr(ArtifactRegistry, "register", refuse)
        code = run_cli(["serve", "--port", "0", *flags,
                        "--warmup", "tiny@star:num_leaves=10"])
        return code, staged

    def test_bad_admission_setting_exits_before_staging(
        self, monkeypatch, capsys
    ):
        assert self.serve_staging(monkeypatch, "--capacity", "0") == (1, [])
        assert "queue capacity must be >= 1, got 0" in capsys.readouterr().err

    def test_nan_default_deadline_exits_before_staging(
        self, monkeypatch, capsys
    ):
        code = self.serve_staging(monkeypatch, "--default-deadline-ms", "nan")
        assert code == (1, [])
        err = capsys.readouterr().err
        assert "default_deadline_ms must be > 0 and finite, got nan" in err

    @pytest.mark.parametrize("flags, message", [
        (["--port", "70000"], "port must be in [0, 65535], got 70000"),
        (["--fault-profile", "hostile", "--fault-seed", "-1"],
         "fault plan seed must be a non-negative integer, got -1"),
    ])
    def test_bad_service_setting_exits_before_staging(
        self, monkeypatch, capsys, flags, message
    ):
        assert self.serve_staging(monkeypatch, *flags) == (1, [])
        assert message in capsys.readouterr().err


class TestChaosCommand:
    def test_negative_seed_exits_typed(self, capsys):
        assert run_cli(["chaos", "--profile", "smoke", "--seed", "-1"]) == 1
        assert "chaos seed must be >= 0, got -1" in capsys.readouterr().err


class TestDocsEqualCode:
    def test_docstring_lists_every_subcommand(self):
        missing = [name for name in cli.COMMANDS if f"``{name}``" not in cli.__doc__]
        assert not missing

    def test_doc_command_lines_parse(self):
        """Every ``fastbfs ...`` / ``python -m repro ...`` line of a fenced
        block in README.md and docs/*.md parses, so a flag the CLI drops
        cannot live on in the docs."""
        parser, analyzer = cli._build_parser(), analyzer_parser()
        lines = doc_command_lines()
        assert len(lines) >= 27
        failures = []
        for where, argv in lines:
            try:
                if argv[0] == "analyze":  # a raw command: its own parser
                    analyzer.parse_args(argv[1:])
                else:
                    parser.parse_args(argv)
            except SystemExit:
                failures.append(f"{where}: {shlex.join(argv)}")
        assert failures == []

    def test_doc_test_citations_name_real_tests(self):
        """Every ``tests/<file>.py::<name>`` cited in README.md and
        docs/*.md names a test class, function or method that exists, so a
        retired or renamed test cannot live on as a doc's evidence."""
        citations = doc_test_citations()
        assert len(citations) >= 15
        missing = [f"{where}: tests/{module}.py::{'::'.join(names)}"
                   for where, module, names in citations
                   if not _defines_test(module, names)]
        assert missing == []


def doc_files():
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


#: A test cited in prose: ``tests/<file>.py::<name>[::<method>]``.
DOC_TEST_CITATION = re.compile(r"tests/(\w+)\.py((?:::\w+)+)")


def doc_test_citations():
    """``(file, test module, [name, method...])`` of every test citation in
    README.md and docs/*.md; a citation wrapped after a ``::`` is joined."""
    found = []
    for path in doc_files():
        text = re.sub(r"::\s*\n\s*", "::", path.read_text(encoding="utf-8"))
        for match in DOC_TEST_CITATION.finditer(text):
            found.append((path.name, match.group(1), match.group(2).split("::")[1:]))
    return found


def _defines_test(module: str, names: list) -> bool:
    """``tests/<module>.py`` defines the test class or function ``names[0]``
    and, given more names, each as a test method of the class before it."""
    path = REPO_ROOT / "tests" / f"{module}.py"
    if not path.exists():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name and name.lower().startswith("test")), None)
        if node is None:
            return False
        body = node.body if isinstance(node, ast.ClassDef) else []
    return True


#: A CLI line of a fenced doc block: an optional ``$`` prompt and
#: ``VAR=value`` assignments, then the program.
DOC_CLI_LINE = re.compile(
    r"^(?:\$\s+)?(?:\w+=\S*\s+)*(?:fastbfs|python3? -m repro(?:\.cli)?)\s"
)


def doc_command_lines():
    """``(file, argv after the program)`` of every CLI line in the fenced
    blocks of README.md and docs/*.md: ``\\`` continuations joined, a
    trailing ``&`` and comments dropped."""
    found = []
    for path in doc_files():
        text = path.read_text(encoding="utf-8")
        for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                if not DOC_CLI_LINE.match(line.strip()):
                    continue
                words = shlex.split(line, comments=True)
                if words[-1] == "&":
                    words.pop()
                while words[0] == "$" or "=" in words[0]:
                    words.pop(0)
                program = 1 if words[0] == "fastbfs" else 3  # python -m repro
                found.append((path.name, words[program:]))
    return found
