"""The analyzer's module-local source rules (FB102-FB110).

These began as a separate per-file lint pass; they are now rules of
:mod:`repro.tooling.analyzer` like any other, so every case runs through
``analyze_sources({path: source})``.  The path scopes the rule: module
names are anchored at the last ``repro`` component.
"""

import re
from pathlib import Path

import pytest

from repro.tooling.analyzer import RULES, analyze_paths, analyze_sources
from repro.tooling.report import Baseline, Finding

SIM_PATH = "src/repro/sim/fake.py"
CORE_PATH = "src/repro/core/fake.py"
ENGINES_PATH = "src/repro/engines/fake.py"
STORAGE_PATH = "src/repro/storage/fake.py"
OTHER_PATH = "src/repro/analysis/fake.py"

REPO_ROOT = Path(__file__).resolve().parent.parent


def analyze(source, path):
    return analyze_sources({path: source}).findings


def codes(violations):
    return [v.code for v in violations]


class TestWallclockRule:
    """The lint's FB101 (``sim/``, ``core/``, ``storage/``) and the
    ``time``-import half of FB108 (``engines/``, ``core/``) are subsumed by
    FB207, which holds in every subsystem.  One row per fixture:

    ======================================================  ==========
    fixture                                                 analyzer
    ======================================================  ==========
    ``import time; time.time()``                            FB207
    ``from time import perf_counter; perf_counter()``       FB207
    ``from time import monotonic as mono; mono()``          FB207
    ``import time as tm; tm.process_time()``                FB207
    ``from datetime import datetime; datetime.now()``       FB207
    ``import datetime; datetime.datetime.now()``            FB207
    local ``def time()`` then ``time()``                    nothing
    ``import time`` alone, or only ``time.sleep(1)``        nothing
    ======================================================  ==========
    """

    @staticmethod
    def wallclock_findings(src):
        """Findings of ``src`` placed in each formerly-scoped subsystem
        (they must agree: FB207 knows no layers)."""
        per_path = [
            [(f.code, f.line) for f in analyze(src, path)]
            for path in (SIM_PATH, CORE_PATH, ENGINES_PATH, STORAGE_PATH)
        ]
        assert all(found == per_path[0] for found in per_path)
        return per_path[0]

    def test_time_time_flagged_in_sim(self):
        src = "import time\nt = time.time()\n"
        assert self.wallclock_findings(src) == [("FB207", 2)]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert self.wallclock_findings(src) == [("FB207", 2)]

    def test_aliased_import_flagged(self):
        src = "from time import monotonic as mono\nt = mono()\n"
        assert self.wallclock_findings(src) == [("FB207", 2)]

    def test_aliased_module_flagged(self):
        src = "import time as tm\nt = tm.process_time()\n"
        assert self.wallclock_findings(src) == [("FB207", 2)]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert self.wallclock_findings(src) == [("FB207", 2)]

    def test_datetime_module_now_flagged(self):
        # The lint's alias tracker missed this spelling everywhere.
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert self.wallclock_findings(src) == [("FB207", 2)]

    def test_flagged_in_every_subsystem(self):
        src = "import time\nt = time.time()\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB207"]
        assert codes(analyze(src, "src/repro/serve/fake.py")) == ["FB207"]
        assert analyze(src, "src/repro/obs/hostprof.py") == []

    def test_unrelated_time_name_not_flagged(self):
        # A local function named `time` is not the stdlib call.
        src = "def time():\n    return 0\nt = time()\n"
        assert self.wallclock_findings(src) == []

    def test_read_free_time_import_not_flagged(self):
        # The one lint behaviour that went: a `time` import that never
        # reads the clock.  It cannot reach a result; any read is FB207.
        assert self.wallclock_findings("import time\n") == []
        assert self.wallclock_findings("import time\ntime.sleep(1)\n") == []


class TestBareAssertRule:
    def test_assert_flagged(self):
        src = "def f(x):\n    assert x > 0\n    return x\n"
        out = analyze(src, OTHER_PATH)
        assert codes(out) == ["FB102"]
        assert (out[0].line, out[0].col) == (2, 5)

    def test_raise_not_flagged(self):
        src = "def f(x):\n    if x <= 0:\n        raise ValueError(x)\n    return x\n"
        assert analyze(src, OTHER_PATH) == []

    def test_test_files_exempt(self):
        # Local rules apply to modules of the repro package only.
        src = "assert 1 == 1\n"
        assert analyze(src, "tests/test_fake.py") == []
        assert analyze(src, "tests/helpers.py") == []
        assert analyze(src, "scratch.py") == []


class TestHookPairingRule:
    def test_pre_without_post_flagged(self):
        src = (
            "class MyEngine:\n"
            "    def _pre_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
        )
        out = analyze(src, OTHER_PATH)
        assert codes(out) == ["FB103"]
        assert out[0].line == 1

    def test_both_hooks_clean(self):
        src = (
            "class MyEngine:\n"
            "    def _pre_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
            "    def _post_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
        )
        assert analyze(src, OTHER_PATH) == []

    def test_post_only_clean(self):
        src = (
            "class MyEngine:\n"
            "    def _post_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
        )
        assert analyze(src, OTHER_PATH) == []


class TestVirtualFileRule:
    def test_direct_construction_flagged(self):
        src = "f = VirtualFile('x', dev)\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB104"]

    def test_attribute_construction_flagged(self):
        src = "f = vfs_module.VirtualFile('x', dev)\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB104"]

    def test_import_alias_resolved(self):
        src = (
            "from repro.storage.vfs import VirtualFile as VF\n"
            "f = VF('x', dev)\n"
        )
        out = analyze(src, OTHER_PATH)
        assert [(f.code, f.line) for f in out] == [("FB104", 2)]

    def test_allowed_in_vfs_module(self):
        src = "f = VirtualFile('x', dev)\n"
        assert analyze(src, "src/repro/storage/vfs.py") == []

    def test_vfs_create_clean(self):
        src = "f = vfs.create('x', dev)\n"
        assert analyze(src, OTHER_PATH) == []


class TestClockMutationRule:
    def test_assignment_flagged(self):
        src = "clock._now = 5.0\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB105"]

    def test_augmented_assignment_flagged(self):
        src = "clock._iowait_time += 1.0\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB105"]

    def test_allowed_in_clock_module(self):
        src = "self._now = 5.0\n"
        assert analyze(src, "src/repro/sim/clock.py") == []

    def test_reading_not_flagged(self):
        src = "t = clock._now\n"
        assert analyze(src, OTHER_PATH) == []


class TestTimelineScheduleRule:
    def test_direct_schedule_flagged(self):
        src = "req = dev.timeline.schedule(submit=0, service=1, nbytes=2, kind='read')\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB106"]

    def test_allowed_in_device_module(self):
        src = "req = self.timeline.schedule(submit=0, service=1, nbytes=2, kind='read')\n"
        assert analyze(src, "src/repro/storage/device.py") == []
        assert analyze(src, SIM_PATH) == []

    def test_other_schedule_calls_clean(self):
        src = "job = scheduler.schedule(task)\n"
        assert analyze(src, OTHER_PATH) == []


class TestRunStateRule:
    def test_construction_flagged_outside_engine_layer(self):
        src = "rt = _RunState(graph, machine, cfg, algo)\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB107"]
        assert codes(analyze(src, "src/repro/cli.py")) == ["FB107"]

    def test_attribute_construction_flagged(self):
        src = "rt = base._RunState(graph, machine, cfg, algo)\n"
        assert codes(analyze(src, OTHER_PATH)) == ["FB107"]

    def test_allowed_in_engines_and_core(self):
        src = "rt = _RunState(graph, machine, cfg, algo)\n"
        assert analyze(src, "src/repro/engines/session.py") == []
        assert analyze(src, "src/repro/core/engine.py") == []

    def test_reading_rt_not_flagged(self):
        src = "stats = engine._rt.iteration_stats\n"
        assert analyze(src, OTHER_PATH) == []

    def test_noqa_suppresses(self):
        src = "rt = _RunState(graph, machine, cfg, algo)  # noqa: FB107\n"
        assert analyze(src, OTHER_PATH) == []


class TestEngineDebugIORule:
    def test_time_import_flagged_in_core(self):
        # core/ sat in both lint layers, so this drew FB108 for the import
        # and FB101 for the call; one FB207 on the read replaces both.
        src = "from time import perf_counter\nt = perf_counter()\n"
        out = analyze(src, CORE_PATH)
        assert [(f.code, f.line) for f in out] == [("FB207", 2)]

    def test_print_flagged_in_engines(self):
        src = "def f(x):\n    print(x)\n    return x\n"
        out = analyze(src, "src/repro/engines/graphchi/fake.py")
        assert codes(out) == ["FB108"]
        assert out[0].line == 2

    def test_print_flagged_in_core(self):
        assert codes(analyze("print('dbg')\n", CORE_PATH)) == ["FB108"]

    def test_allowed_outside_engine_layer(self):
        assert analyze("import time\nprint(time.asctime())\n", OTHER_PATH) == []

    def test_storage_layer_print_allowed(self):
        assert analyze("print('x')\n", STORAGE_PATH) == []

    def test_method_named_print_clean(self):
        src = "logger.print('x')\n"
        assert analyze(src, ENGINES_PATH) == []

    def test_noqa_suppresses(self):
        assert analyze("print('dbg')  # noqa: FB108\n", CORE_PATH) == []


class TestBroadExceptRule:
    def test_bare_except_flagged_in_engines(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        out = analyze(src, ENGINES_PATH)
        assert codes(out) == ["FB109"]
        assert out[0].line == 3

    def test_except_exception_flagged_in_core(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert codes(analyze(src, CORE_PATH)) == ["FB109"]

    def test_except_base_exception_flagged(self):
        src = "try:\n    f()\nexcept BaseException as exc:\n    raise exc\n"
        assert codes(analyze(src, ENGINES_PATH)) == ["FB109"]

    def test_broad_name_in_tuple_clause_flagged(self):
        src = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
        assert codes(analyze(src, ENGINES_PATH)) == ["FB109"]

    def test_typed_repro_error_clean(self):
        src = (
            "from repro.errors import CrashError, EngineError\n"
            "try:\n    f()\nexcept CrashError:\n    pass\n"
            "try:\n    f()\nexcept (EngineError, CrashError) as exc:\n"
            "    raise exc\n"
        )
        assert analyze(src, ENGINES_PATH) == []

    def test_allowed_outside_engine_layer(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert analyze(src, OTHER_PATH) == []
        assert analyze(src, STORAGE_PATH) == []

    def test_noqa_suppresses(self):
        src = "try:\n    f()\nexcept Exception:  # noqa: FB109\n    pass\n"
        assert analyze(src, ENGINES_PATH) == []


class TestSuppression:
    SRC = "def f(x):\n    assert x{noqa}\n"

    def test_blanket_noqa(self):
        assert analyze(self.SRC.format(noqa="  # noqa"), SIM_PATH) == []

    def test_code_specific_noqa(self):
        src = self.SRC.format(noqa="  # noqa: FB102")
        assert analyze(src, SIM_PATH) == []
        src = self.SRC.format(noqa="  # noqa: FB205, FB102")
        assert analyze(src, SIM_PATH) == []

    def test_wrong_code_noqa_still_flags(self):
        src = self.SRC.format(noqa="  # noqa: FB103")
        assert codes(analyze(src, SIM_PATH)) == ["FB102"]


#: One violation per local rule, planted in an otherwise clean module:
#: code -> (module path, line that replaces the marker).
PLANTED = {
    "FB102": (OTHER_PATH, "assert batch"),
    "FB103": (
        ENGINES_PATH,
        "class Half:\n"
        "        def _pre_partition_scatter(self, rt, p, ctx):\n"
        "            return None",
    ),
    "FB104": (OTHER_PATH, "VirtualFile('stay:0', batch)"),
    "FB105": (STORAGE_PATH, "batch.clock._compute_time = 0.0"),
    "FB106": (ENGINES_PATH, "batch.dev.timeline.schedule(submit=0, service=1)"),
    "FB107": ("src/repro/serve/fake.py", "_RunState(batch)"),
    "FB108": (CORE_PATH, "print(batch)"),
    "FB109": (
        ENGINES_PATH,
        "try:\n"
        "        total(batch)\n"
        "    except Exception:\n"
        "        return 0",
    ),
    "FB110": ("src/repro/serve/fake.py", "batch.machine.attach_tracer(None)"),
}

CLEAN_MODULE = '''\
"""A module no rule objects to."""

from repro.errors import EngineError


def total(batch):
    if not batch:
        raise EngineError("empty batch")
    return sum(sorted(batch))


def drive(batch):
    {planted}
    return total(batch)
'''


class TestPlantedViolations:
    def test_fixture_module_is_clean(self):
        for path, _ in PLANTED.values():
            assert analyze(CLEAN_MODULE.format(planted="pass"), path) == []

    @pytest.mark.parametrize("code", sorted(PLANTED))
    def test_exactly_the_planted_code(self, code):
        path, planted = PLANTED[code]
        out = analyze(CLEAN_MODULE.format(planted=planted), path)
        assert codes(out) == [code]
        assert out[0].path == path

    def test_every_local_rule_is_planted(self):
        assert sorted(PLANTED) == [c for c in sorted(RULES) if c < "FB200"]


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        out = analyze("def f(:\n", OTHER_PATH)
        assert codes(out) == ["FB200"]
        assert out[0].line == 1

    def test_violation_str_format(self):
        v = Finding(path="a.py", line=3, col=1, code="FB102", message="m")
        assert str(v) == "a.py:3:1: FB102 m"

    def test_rule_catalogue_is_complete(self):
        assert sorted(RULES) == [
            "FB102", "FB103", "FB104", "FB105", "FB106", "FB107", "FB108",
            "FB109", "FB110", "FB200", "FB201", "FB202", "FB203", "FB204",
            "FB205", "FB206", "FB207", "FB208",
        ]

    def test_rule_catalogue_is_documented(self):
        """docs/static_analysis.md has the one rule table: a row per code in
        RULES, no row for a code that is gone."""
        doc = (REPO_ROOT / "docs" / "static_analysis.md").read_text("utf-8")
        rows = re.findall(r"^\| (FB\d{3}) \|", doc, flags=re.MULTILINE)
        assert rows == sorted(RULES)

    def test_repo_source_tree_is_clean(self):
        """Acceptance gate: the shipped src/repro has zero findings under
        all 18 rules, and the committed baseline has no stale entry."""
        result = analyze_paths(
            [str(REPO_ROOT / "src" / "repro")],
            baseline=Baseline.load(str(REPO_ROOT / "analyzer_baseline.json")),
        )
        assert result.findings == [], "\n".join(map(str, result.findings))
        assert len(result.baselined) == 4
        assert result.unused_baseline == []

    def test_lint_paths_on_single_file(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nassert time.time()\n")
        out = analyze_paths([str(bad)]).findings
        assert sorted(codes(out)) == ["FB102", "FB207"]
