"""Rule-level tests for the whole-program analyzer (FB200-FB209).

Each FB2xx rule is exercised against a fixture mini-package under
``tests/analyzer_fixtures/`` shaped like the real tree, in three
flavors: positive (flagged), suppressed (``# noqa`` on the finding
line), and baselined.  The snapshot-completeness rule is additionally
proven live against the real ``Machine`` class by injecting a fake
un-checkpointed attribute.
"""

import shutil
from pathlib import Path

import pytest

from repro.tooling.analyzer import RULES, analyze_paths, analyze_sources
from repro.tooling.report import Baseline, BaselineEntry, render

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "analyzer_fixtures"
REPO_ROOT = HERE.parent


def run_fixture(case, baseline=None):
    return analyze_paths([str(FIXTURES / case)], baseline=baseline)


@pytest.fixture(scope="module")
def src_analysis():
    """The shipped tree analyzed once, with no baseline, for the tests
    that only read its findings."""
    return analyze_paths([str(REPO_ROOT / "src" / "repro")])


def codes(result):
    return [f.code for f in result.findings]


class TestFB200SyntaxError:
    def test_parse_failure_is_a_finding_not_a_crash(self):
        result = analyze_sources({"x/repro/bad.py": "def f(:\n"})
        assert codes(result) == ["FB200"]
        assert result.findings[0].line == 1


class TestFB201ObsNeutrality:
    def test_obs_reaching_clock_advance_flagged_with_witness(self):
        result = run_fixture("fb201")
        assert codes(result) == ["FB201"]
        finding = result.findings[0]
        assert finding.symbol == "repro.obs.watch.Watcher.record"
        assert finding.path.endswith("repro/obs/watch.py")
        assert "SimClock.charge_compute" in finding.message

    def test_noqa_on_def_line_suppresses(self):
        result = run_fixture("fb201")
        assert not any("quiet" in f.path for f in result.findings)


class TestFB202FrontendVFS:
    def test_frontend_bypassing_engine_entry_flagged(self):
        result = run_fixture("fb202")
        assert codes(result) == ["FB202"]
        finding = result.findings[0]
        assert finding.symbol == "repro.analysis.report.bad_path"
        assert "VFS.create" in finding.message

    def test_reaching_vfs_through_run_is_sanctioned(self):
        result = run_fixture("fb202")
        assert not any(f.symbol.endswith("good_path") for f in result.findings)

    def test_noqa_suppresses(self):
        result = run_fixture("fb202")
        assert not any("quiet" in f.path for f in result.findings)


class TestFB203FaultChokePoint:
    def test_rogue_on_submit_call_flagged_at_call_site(self):
        result = run_fixture("fb203")
        assert codes(result) == ["FB203"]
        finding = result.findings[0]
        assert finding.path.endswith("repro/engines/rogue.py")
        assert finding.symbol == "repro.engines.rogue.RogueEngine.poke"

    def test_device_submit_is_exempt_and_noqa_suppresses(self):
        result = run_fixture("fb203")
        assert not any("device.py" in f.path for f in result.findings)
        assert not any("quiet" in f.path for f in result.findings)


class TestFB204UnseededRNG:
    def test_raw_primitives_flagged_outside_utils_rng(self):
        result = run_fixture("fb204")
        assert codes(result) == ["FB204", "FB204"]
        details = sorted(f.message.split("(")[0] for f in result.findings)
        assert "numpy.random.default_rng" in result.findings[0].message
        assert "random.random" in result.findings[1].message
        assert details == sorted(details)

    def test_utils_rng_module_is_the_sanctioned_home(self):
        result = run_fixture("fb204")
        assert not any("utils/rng.py" in f.path for f in result.findings)

    def test_noqa_and_seeded_wrapper_are_clean(self):
        result = run_fixture("fb204")
        lines = {f.line for f in result.findings}
        # sample_suppressed (noqa) and sample_good (rng_from_seed) lines
        # must not appear among the findings.
        assert lines == {11, 16}


class TestFB205OrderSensitivity:
    def test_set_iteration_and_unsorted_listing_flagged(self):
        result = run_fixture("fb205")
        assert codes(result) == ["FB205", "FB205"]
        set_finding, listing_finding = result.findings
        assert set_finding.line == 8
        assert "hash-order" in set_finding.message
        assert listing_finding.line == 14
        assert "os.listdir" in listing_finding.message

    def test_sorted_dict_len_and_noqa_are_clean(self):
        result = run_fixture("fb205")
        assert not any("quiet" in f.path for f in result.findings)


class TestFB206SnapshotCompleteness:
    def test_escaping_attribute_flagged_at_mutation_site(self):
        result = run_fixture("fb206")
        assert codes(result) == ["FB206"]
        finding = result.findings[0]
        assert finding.symbol == "repro.storage.cachebox.CacheBox.hits"
        assert "'hits'" in finding.message

    def test_covered_attribute_not_flagged(self):
        result = run_fixture("fb206")
        assert not any(f.symbol.endswith(".entries") for f in result.findings)

    def test_noqa_on_mutation_line_suppresses(self):
        result = run_fixture("fb206")
        assert not any("quiet" in f.path for f in result.findings)

    def test_committed_fixture_baseline_absorbs_the_finding(self):
        baseline = Baseline.load(str(FIXTURES / "fb206" / "baseline.json"))
        result = run_fixture("fb206", baseline=baseline)
        assert result.findings == []
        assert [f.symbol for f in result.baselined] == [
            "repro.storage.cachebox.CacheBox.hits"
        ]
        assert result.unused_baseline == []

    def test_live_regression_fake_attribute_on_real_machine(self):
        """Acceptance proof: a new un-checkpointed Machine attribute is
        caught the moment it is introduced."""
        path = REPO_ROOT / "src" / "repro" / "storage" / "machine.py"
        source = path.read_text(encoding="utf-8")
        clean = analyze_sources({"src/repro/storage/machine.py": source})
        marker = "    def checkpoint("
        assert marker in source
        injected = source.replace(
            marker,
            "    def _grow_shadow(self) -> None:\n"
            "        self._shadow_state = 1\n"
            "\n" + marker,
            1,
        )
        broken = analyze_sources({"src/repro/storage/machine.py": injected})
        new = {f.symbol for f in broken.findings} - {
            f.symbol for f in clean.findings
        }
        assert new == {"repro.storage.machine.Machine._shadow_state"}
        assert all(f.code == "FB206" for f in broken.findings)


class TestFB207WallclockChokePoint:
    def test_wallclock_reads_flagged_outside_hostprof(self):
        result = run_fixture("fb207")
        assert codes(result) == ["FB207", "FB207"]
        messages = " ".join(f.message for f in result.findings)
        assert "time.monotonic" in messages
        assert "datetime.now" in messages or "datetime.datetime.now" in messages
        assert "HostClock" in result.findings[0].message

    def test_hostprof_module_is_the_sanctioned_home(self):
        result = run_fixture("fb207")
        assert not any("obs/hostprof.py" in f.path for f in result.findings)

    def test_sleep_noqa_and_clock_handle_are_clean(self):
        result = run_fixture("fb207")
        # Only the two bad read sites: stamp_suppressed (noqa), wait_ok
        # (time.sleep is pacing, not a read) and stamp_good (HostClock
        # handle) stay clean.
        assert {f.line for f in result.findings} == {10, 14}

    def test_real_hostprof_is_the_only_wallclock_site_in_src(self, src_analysis):
        """Acceptance: the shipped tree's wall-clock reads all live in
        repro/obs/hostprof.py — FB207 holds with no baseline entries."""
        assert not any(f.code == "FB207" for f in src_analysis.findings)


class TestFB208ServeTypedErrors:
    def test_swallowing_handlers_flagged(self):
        result = run_fixture("fb208")
        assert codes(result) == ["FB208", "FB208"]
        by_symbol = {f.symbol: f for f in result.findings}
        assert set(by_symbol) == {"swallow_bad", "log_and_return_bad"}
        assert by_symbol["swallow_bad"].line == 11
        assert by_symbol["log_and_return_bad"].line == 18
        assert "typed" in by_symbol["swallow_bad"].message
        assert "except OSError" in by_symbol["swallow_bad"].message

    def test_raise_typed_construction_and_funnel_are_clean(self):
        result = run_fixture("fb208")
        flagged = {f.symbol for f in result.findings}
        assert "reraise_good" not in flagged
        assert "typed_construction_good" not in flagged
        assert "funnel_good" not in flagged

    def test_noqa_on_except_line_suppresses(self):
        result = run_fixture("fb208")
        assert not any(f.symbol == "suppressed" for f in result.findings)

    def test_scoped_to_the_serve_subsystem(self):
        result = run_fixture("fb208")
        assert not any("tooling" in f.path for f in result.findings)

    def test_baseline_accepts_the_positive_findings(self):
        clean = run_fixture("fb208")
        baseline = Baseline(entries=[
            BaselineEntry(
                code=f.code, path=f.norm_path, symbol=f.symbol,
                reason="fixture: intentionally grandfathered",
            )
            for f in clean.findings
        ])
        result = run_fixture("fb208", baseline=baseline)
        assert result.findings == []
        assert result.unused_baseline == []

    def test_live_serve_tree_has_no_untyped_handlers(self, src_analysis):
        """Acceptance: every except in the shipped ``repro/serve/`` tree
        re-raises, builds a typed error, or funnels — no baseline."""
        assert not any(f.code == "FB208" for f in src_analysis.findings)


class TestFB209UnreachedCode:
    def fb209(self, baseline=None):
        result = run_fixture("fb209", baseline=baseline)
        assert set(codes(result)) <= {"FB209"}
        return result

    def test_unreached_public_code_flagged(self):
        result = self.fb209()
        assert [f.symbol for f in result.findings] == [
            "repro.core.work.Box.resize",
            "repro.core.work.orphan",
            "repro.core.work.grandfathered",
        ]
        finding = result.findings[1]
        assert finding.path.endswith("repro/core/work.py")
        assert finding.message.startswith(
            "core.work.orphan is public but no front door reaches it"
        )

    def test_references_reach_what_calls_do_not(self):
        """A dispatch-table value, a ``partial`` argument, a property read,
        every method of a class with a stdlib base and a script's import
        are all reached."""
        flagged = {f.symbol.rsplit(".", 1)[-1] for f in self.fb209().findings}
        reached = {
            "run", "handle_bfs", "scaled", "size", "do_GET", "send_error",
            "render", "visit_Call", "Box", "Handler", "Visitor", "scripted",
        }
        assert not flagged & reached

    def test_noqa_suppresses(self):
        assert not any(f.symbol.endswith("quiet") for f in self.fb209().findings)

    def test_committed_fixture_baseline_absorbs_the_finding(self):
        baseline = Baseline.load(str(FIXTURES / "fb209" / "baseline.json"))
        result = self.fb209(baseline=baseline)
        assert [f.symbol for f in result.baselined] == [
            "repro.core.work.grandfathered"
        ]
        assert len(result.findings) == 2
        assert result.unused_baseline == []

    def test_two_runs_render_identical_json(self):
        first, second = (
            render(run_fixture("fb209").findings, "json", "t", RULES)
            for _ in range(2)
        )
        assert first == second

    def test_an_undecodable_script_is_skipped(self, tmp_path):
        tree = tmp_path / "fb209"
        shutil.copytree(FIXTURES / "fb209", tree)
        before = analyze_paths([str(tree / "repro")]).findings
        (tree / "examples" / "latin1.py").write_bytes(b"# caf\xe9\n")
        assert analyze_paths([str(tree / "repro")]).findings == before

    def test_scripts_outside_the_analyzed_tree_are_not_read(self, tmp_path):
        """Only a ``src/`` layout looks one directory up for scripts."""
        tree = tmp_path / "fb209"
        shutil.copytree(FIXTURES / "fb209", tree)
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "outer.py").write_text(
            "from repro.core.work import orphan\n\norphan()\n"
        )
        flagged = [f.symbol for f in analyze_paths([str(tree)]).findings]
        assert "repro.core.work.orphan" in flagged
        src = tmp_path / "src"
        shutil.copytree(tree, src)
        flagged = [f.symbol for f in analyze_paths([str(src)]).findings]
        assert "repro.core.work.orphan" not in flagged

    def test_a_tree_without_front_doors_is_not_judged(self):
        result = analyze_sources({"x/repro/lone.py": "def orphan():\n    pass\n"})
        assert result.findings == []


class TestMergedTree:
    def test_src_repro_is_clean_under_committed_baseline(self):
        """Acceptance gate: the shipped tree has zero non-baselined findings."""
        baseline = Baseline.load(str(REPO_ROOT / "analyzer_baseline.json"))
        result = analyze_paths(
            [str(REPO_ROOT / "src" / "repro")], baseline=baseline
        )
        assert result.findings == [], "\n".join(str(f) for f in result.findings)
        assert result.unused_baseline == []

    def test_the_baselined_cases_are_exactly_the_documented_ones(self, src_analysis):
        assert {(f.code, f.symbol) for f in src_analysis.findings} == {
            ("FB206", "repro.storage.faults.FaultInjector._fires"),
            ("FB206", "repro.storage.faults.FaultInjector._counts"),
            ("FB206", "repro.storage.machine.Machine.tracer"),
            ("FB206", "repro.storage.machine.Machine.fault_plan"),
            ("FB209", "repro.sim.timeline.Timeline.pending_requests"),
            ("FB209", "repro.storage.device.Device.used_bytes"),
            ("FB209", "repro.storage.pagecache.PageCache.contains"),
            ("FB209", "repro.storage.streams.AsyncStreamWriter.buffers_in_flight"),
        }
