"""The runtime sanitizer's checks: each checker clean and broken.

The checks have no switch: every staging report, every query session
(``run``, ``run_many``, ``run_staged_queries``, admission flushes) and
every GraphChi query is checked on a plain machine.  Unit cases call
:func:`check_report` on a hand-built delta report; broken-run cases
break one ledger inside a real engine run and expect the run to raise
:class:`SanitizerError` naming the checker.
"""

import numpy as np
import pytest

from tests.helpers import fresh_machine, hub_root, small_fastbfs_config, stay_append

from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.core.staystream import StayStreamManager
from repro.engines.costs import CostModel
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.result import IterationStats
from repro.engines.session import run_staged_queries
from repro.errors import EngineError, SanitizerError, SimulationError
from repro.graph.generators import rmat_graph
from repro.graph.types import make_edges
from repro.serve import ArtifactRegistry
from repro.tooling.sanitizer import check_report

FRONT_DOORS = ["run", "run_many", "run_staged_queries", "admission_flush"]


def edges(n):
    return make_edges(np.arange(n) % 50, np.arange(n) % 50)


def begin(machine):
    """What an engine takes before a run: baseline report + VFS snapshot."""
    return machine.report(), machine.vfs.snapshot()


def check(machine, start, stay=None, iterations=()):
    baseline, files_before = start
    check_report(
        machine.report().minus(baseline), machine.vfs, files_before, stay,
        iterations,
    )


def one_pass(p, outcome):
    """The pass whose scatter of ``p`` resolved its stay file as ``outcome``
    (``resolve_input``'s), as the engine records it."""
    return [IterationStats(
        iteration=1,
        stay_swaps=int(outcome == "swap"),
        stay_cancelled=[p] if outcome == "cancel" else [],
    )]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=6, seed=5)


def run_through(front_door, engine, graph):
    """One BFS from the hub through ``front_door`` on a plain machine."""
    root = hub_root(graph)
    if front_door == "run":
        return engine.run(graph, fresh_machine(), root=root)
    if front_door == "run_many":
        return engine.run_many(graph, fresh_machine(), roots=[0, root])
    if front_door == "run_staged_queries":
        machine = fresh_machine()
        staged = engine.stage(graph, machine)
        return run_staged_queries(engine, staged, machine.checkpoint(), [root])
    entry = ArtifactRegistry(
        config=small_fastbfs_config(), machine_factory=fresh_machine
    ).register("g", graph)
    entry.engine = engine
    return entry.admission.submit("r0", root)


class LeavesUpdateFile(FastBFSEngine):
    """Leaves one transient ``updates:*`` file behind every query."""

    def _run_passes(self, staged, rt):
        super()._run_passes(staged, rt)
        rt.machine.vfs.create("updates:0:p1", rt.staged.dev_updates)


class SubmitsUnlabelledRead(FastBFSEngine):
    """Moves 4 KB with an empty stream-group label every query."""

    def _run_passes(self, staged, rt):
        super()._run_passes(staged, rt)
        clock = rt.machine.clock
        f = rt.edge_files[0]
        req = f.device.submit(
            submit_time=clock.now, kind="read", nbytes=4096,
            file_id=f.file_id, offset=0,
        )
        clock.wait_until(req.end)


def forget_discards(monkeypatch):
    """Stay stats that miss the end-of-run discards' terminal count."""
    discard_all = StayStreamManager.discard_all

    def forgetful(self):
        counted = self.stats.end_of_run_discards
        discard_all(self)
        self.stats.end_of_run_discards = counted

    monkeypatch.setattr(StayStreamManager, "discard_all", forgetful)


def skip_scatter_charges(monkeypatch):
    charge = CostModel.charge

    def skipping(self, clock, category, *args):
        if category == "scatter":
            return 0.0
        return charge(self, clock, category, *args)

    monkeypatch.setattr(CostModel, "charge", skipping)


class TestVFSLeakChecker:
    def test_clean_create_delete_cycle(self):
        m = fresh_machine()
        start = begin(m)
        f = m.vfs.create("stay:p0:i0", m.disks[0])
        m.vfs.delete(f.name)
        check(m, start)

    def test_leaked_stay_file_reported(self):
        m = fresh_machine()
        start = begin(m)
        m.vfs.create("stay:p0:i0", m.disks[0])  # never deleted
        with pytest.raises(SanitizerError, match=r"\[vfs-leak\] file 'stay:p0:i0'"):
            check(m, start)

    def test_leaked_update_file_reported(self):
        m = fresh_machine()
        start = begin(m)
        m.vfs.create("updates:0:p1", m.disks[0])
        with pytest.raises(SanitizerError, match="vfs-leak.*updates:0:p1"):
            check(m, start)

    def test_survivor_roles_allowed(self):
        m = fresh_machine()
        start = begin(m)
        for name in ("input:g", "edges:p0", "vertices:p0", "shard:0"):
            m.vfs.create(name, m.disks[0])
        check(m, start)

    def test_replace_resolves_stay_into_survivor(self):
        m = fresh_machine()
        start = begin(m)
        old = m.vfs.create("edges:p0", m.disks[0])
        m.vfs.create("stay:p0:i0", m.disks[0])
        m.vfs.replace("stay:p0:i0", "edges:p0")
        assert old.deleted
        check(m, start)

    def test_file_recreated_under_an_old_name_is_new(self):
        m = fresh_machine()
        m.vfs.create("stay:p0:i0", m.disks[0])
        start = begin(m)
        m.vfs.delete("stay:p0:i0")
        m.vfs.create("stay:p0:i0", m.disks[0])
        with pytest.raises(SanitizerError, match="vfs-leak"):
            check(m, start)

    @pytest.mark.parametrize("front_door", FRONT_DOORS)
    def test_engine_leaving_an_update_file_raises(self, front_door, graph):
        engine = LeavesUpdateFile(small_fastbfs_config())
        with pytest.raises(SanitizerError, match=r"\[vfs-leak\].*updates:0:p1"):
            run_through(front_door, engine, graph)


class TestClockChecker:
    def test_normal_operation_clean(self):
        m = fresh_machine()
        m.clock.charge_compute(0.5)
        m.clock.wait_until(2.0)
        assert m.clock.wait_until(1.0) == 0.0  # in the past: legal no-op
        assert m.clock.now == 2.0

    def test_negative_wait_target_flagged(self):
        m = fresh_machine()
        with pytest.raises(SimulationError, match="negative time"):
            m.clock.wait_until(-1.0)


class TestCostCoverageChecker:
    def test_unattributed_io_flagged(self):
        m = fresh_machine()
        start = begin(m)
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1, offset=0
        )
        with pytest.raises(SanitizerError, match=r"\[cost-coverage\] unattributed"):
            check(m, start)

    def test_uncharged_edges_read_flagged(self):
        m = fresh_machine()
        start = begin(m)
        # Stream edge bytes without ever charging a scatter cost.
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="edges:p0",
        )
        with pytest.raises(SanitizerError, match="cost-coverage.*'scatter'"):
            check(m, start)

    def test_charged_edges_read_clean(self):
        m = fresh_machine()
        start = begin(m)
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="edges:p0",
        )
        m.clock.charge_compute(1e-6, category="scatter")
        check(m, start)

    def test_unknown_roles_ignored(self):
        m = fresh_machine()
        start = begin(m)
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="shard:0",
        )
        check(m, start)

    def test_charge_before_the_baseline_does_not_count(self):
        m = fresh_machine()
        m.clock.charge_compute(1e-6, category="scatter")
        start = begin(m)
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="edges:p0",
        )
        with pytest.raises(SanitizerError, match="cost-coverage"):
            check(m, start)

    @pytest.mark.parametrize("front_door", FRONT_DOORS)
    def test_skipped_scatter_charge_raises(self, front_door, graph, monkeypatch):
        skip_scatter_charges(monkeypatch)
        engine = FastBFSEngine(small_fastbfs_config())
        with pytest.raises(SanitizerError, match=r"\[cost-coverage\].*'scatter'"):
            run_through(front_door, engine, graph)

    @pytest.mark.parametrize("front_door", FRONT_DOORS)
    def test_unlabelled_request_raises(self, front_door, graph):
        engine = SubmitsUnlabelledRead(small_fastbfs_config())
        with pytest.raises(SanitizerError, match=r"\[cost-coverage\] unattributed"):
            run_through(front_door, engine, graph)


class TestStayStateChecker:
    def _manager(self, machine):
        cfg = FastBFSConfig(
            stay_buffer_bytes=1024, num_stay_buffers=2, cancellation_grace=0.001
        )
        return StayStreamManager(machine.clock, machine.vfs, machine.disks[0], cfg)

    @staticmethod
    def _edge_file(machine, n):
        """The edge file a stay file trims (it survives the session)."""
        old = machine.vfs.create("edges:p0", machine.disks[0])
        old.append_records(edges(n))
        return old

    def _swapped(self, m):
        """A manager whose one stay file was swapped in, then torn down."""
        mgr = self._manager(m)
        old = self._edge_file(m, 10)
        mgr.open(0, iteration=0, input_file=old)
        m.clock.charge_compute(1e-9, category="trim")  # protocol: trim charge
        stay_append(mgr, edges(10))
        mgr.finish_partition(0)
        m.clock.charge_compute(1.0)
        _, outcome = mgr.resolve_input(0, old)
        assert outcome == "swap"
        mgr.discard_all()
        return mgr

    def test_full_swap_lifecycle_clean(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._swapped(m)
        check(m, start, mgr.stats, one_pass(0, "swap"))

    def test_swap_no_pass_recorded_flagged(self):
        """The swaps and cancels are the passes' to count: without the pass
        that swapped, the file was opened and never ended."""
        m = fresh_machine()
        start = begin(m)
        mgr = self._swapped(m)
        with pytest.raises(SanitizerError, match=(
            r"\[stay-state\] 1 stay files opened but 0 reached"
        )):
            check(m, start, mgr.stats)

    def test_cancel_lifecycle_clean(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        old = self._edge_file(m, 10**6)
        mgr.open(0, iteration=0, input_file=old)
        m.clock.charge_compute(1e-9, category="trim")
        stay_append(mgr, edges(10**6))  # too slow to land within the grace
        mgr.finish_partition(0)
        _, outcome = mgr.resolve_input(0, old)
        assert outcome == "cancel"
        mgr.discard_all()
        # The displaced edges file survives; no stay writer left behind.
        check(m, start, mgr.stats, one_pass(0, outcome))

    def test_discard_all_terminalizes_everything(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        old = self._edge_file(m, 10)
        mgr.open(0, iteration=0, input_file=old)
        m.clock.charge_compute(1e-9, category="trim")
        stay_append(mgr, edges(5))
        mgr.finish_partition(0)
        mgr.open(1, iteration=0, input_file=old)
        mgr.discard_all()
        assert mgr.stats.end_of_run_discards == 2
        check(m, start, mgr.stats)

    def test_abandoned_writer_flagged(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        mgr.open(0, iteration=0, input_file=self._edge_file(m, 10))
        m.clock.charge_compute(1e-9, category="trim")
        stay_append(mgr, edges(5))
        # Neither finished nor discarded: both a stay-state violation and a
        # VFS leak of the stay file.
        with pytest.raises(SanitizerError) as info:
            check(m, start, mgr.stats)
        assert "[stay-state] 1 stay files opened but 0 reached" in str(info.value)
        assert "[vfs-leak] file 'stay:p0:i0'" in str(info.value)

    # The manager itself rejects a double open and a stage or append
    # without an open writer (EngineError); a rejected call must leave
    # the stats balanced, so the stay-state equation still holds.
    def test_double_open_recorded_and_raises(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        old = self._edge_file(m, 10)
        mgr.open(0, iteration=0, input_file=old)
        with pytest.raises(EngineError, match="already open"):
            mgr.open(0, iteration=0, input_file=old)
        assert mgr.stats.files_written == 1
        mgr.discard_all()
        check(m, start, mgr.stats)

    def test_append_without_open_recorded_and_raises(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        with pytest.raises(EngineError, match="no open stay writer"):
            mgr.append(2, edges(1))
        assert mgr.stats.files_written == 0
        mgr.discard_all()
        check(m, start, mgr.stats)

    def test_stage_without_open_recorded_and_raises(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        with pytest.raises(
            EngineError, match="no open stay writer for partition 2"
        ):
            mgr.stage_survivors(2, edges(4), np.arange(2))
        mgr.discard_all()
        check(m, start, mgr.stats)

    def test_stage_after_finish_recorded_and_raises(self):
        m = fresh_machine()
        start = begin(m)
        mgr = self._manager(m)
        old = self._edge_file(m, 10)
        writer = mgr.open(0, iteration=0, input_file=old)
        m.clock.charge_compute(1e-9, category="trim")
        mgr.append(0, mgr.stage_survivors(0, old.records(), np.arange(4)))
        mgr.finish_partition(0)
        with pytest.raises(
            EngineError, match="no open stay writer for partition 0"
        ):
            mgr.stage_survivors(0, old.records(), np.arange(2))
        assert writer.file.nbytes == edges(4).nbytes
        mgr.discard_all()
        check(m, start, mgr.stats)

    @pytest.mark.parametrize("front_door", FRONT_DOORS)
    def test_stats_missing_a_terminal_count_raises(
        self, monkeypatch, front_door, graph
    ):
        forget_discards(monkeypatch)
        engine = FastBFSEngine(small_fastbfs_config())
        with pytest.raises(SanitizerError, match=r"\[stay-state\]"):
            run_through(front_door, engine, graph)


class TestSessionScoping:
    def test_preexisting_files_are_not_session_leaks(self):
        # A sealed staged artifact is alive before the session begins; it
        # surviving the query must not count as a leak.
        m = fresh_machine()
        m.vfs.create("updates:in:p0", m.disks[0])
        check(m, begin(m))

    def test_transient_session_file_flagged(self):
        m = fresh_machine()
        start = begin(m)
        m.vfs.create("stay:p0:i1", m.disks[0])
        with pytest.raises(SanitizerError, match="1 violation") as info:
            check(m, start)
        assert "still live at the end of the run" in str(info.value)

    def test_survivor_roles_survive_the_session(self):
        m = fresh_machine()
        start = begin(m)
        m.vfs.create("edges:p0", m.disks[0])
        check(m, start)

    def test_deleted_session_file_clean(self):
        m = fresh_machine()
        start = begin(m)
        f = m.vfs.create("stay:p0:i1", m.disks[0])
        m.vfs.delete(f.name)
        check(m, start)

    def test_sanitized_batch_run_clean(self, graph):
        """Staged files shared across a run_many batch are session
        survivors, not leaks."""
        batch = FastBFSEngine(small_fastbfs_config()).run_many(
            graph, fresh_machine(), roots=[0, hub_root(graph)]
        )
        assert batch.num_queries == 2


class TestReporting:
    def test_report_lists_every_violation(self):
        m = fresh_machine()
        start = begin(m)
        m.vfs.create("stay:p9:i9", m.disks[0])
        m.disks[0].submit(
            submit_time=0.0, kind="write", nbytes=512, file_id=1, offset=0
        )
        with pytest.raises(SanitizerError) as info:
            check(m, start)
        report = str(info.value)
        assert report.startswith("sanitizer: 2 violation(s)")
        assert "[vfs-leak] file 'stay:p9:i9'" in report
        assert "[cost-coverage] unattributed writes of 512 bytes" in report


class LeakyGraphChi(GraphChiEngine):
    """Leaves a transient file behind every block transfer."""

    @staticmethod
    def _submit_wait(machine, file, kind, nbytes, offset=0):
        machine.vfs.delete_if_exists("updates:chi")
        machine.vfs.create("updates:chi", file.device)
        GraphChiEngine._submit_wait(machine, file, kind, nbytes, offset)


class LeakyGraphChiStaging(GraphChiEngine):
    """Leaves a transient file behind its shard build."""

    def _prepare_body(self, graph, machine, baseline):
        prep = super()._prepare_body(graph, machine, baseline)
        machine.vfs.create("updates:leak", machine.disk(0))
        return prep


class TestEndToEnd:
    def test_full_fastbfs_run_sanitized_clean(self):
        """A full traversal on a plain machine passes every check and adds
        nothing to the extras."""
        g = rmat_graph(scale=9, edge_factor=8, seed=21)
        result = FastBFSEngine(small_fastbfs_config()).run(
            g, fresh_machine(), root=hub_root(g)
        )
        assert result.extras["stay_files_written"] > 0
        assert not any(key.startswith("sanitizer") for key in result.extras)

    @pytest.mark.parametrize("entry", ["run", "run_many"])
    def test_graphchi_run_sanitized_clean(self, entry, graph):
        """GraphChi's queries are checked too: a clean run passes."""
        m = fresh_machine(memory=8 * 1024 * 1024)
        engine = GraphChiEngine(GraphChiConfig(num_shards=3))
        if entry == "run":
            engine.run(graph, m, root=hub_root(graph))
        else:
            engine.run_many(graph, m, roots=[0, hub_root(graph)])

    @pytest.mark.parametrize("entry", ["run", "run_many"])
    def test_graphchi_leak_raises(self, entry, graph):
        m = fresh_machine(memory=8 * 1024 * 1024)
        engine = LeakyGraphChi(GraphChiConfig(num_shards=3))
        with pytest.raises(SanitizerError, match=r"\[vfs-leak\].*updates:chi"):
            if entry == "run":
                engine.run(graph, m, root=hub_root(graph))
            else:
                engine.run_many(graph, m, roots=[0, hub_root(graph)])

    def test_graphchi_staging_leak_raises(self, graph):
        """GraphChi's staging report is checked like the edge-centric one."""
        engine = LeakyGraphChiStaging(GraphChiConfig(num_shards=3))
        with pytest.raises(SanitizerError, match=r"\[vfs-leak\].*updates:leak"):
            engine.stage(graph, fresh_machine(memory=8 * 1024 * 1024))
