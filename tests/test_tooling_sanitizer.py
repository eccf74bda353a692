"""Unit tests for the runtime sanitizer checkers."""

import numpy as np
import pytest

from tests.helpers import by_checker, fresh_machine, hub_root, small_fastbfs_config

from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.core.staystream import StayStreamManager
from repro.errors import EngineError, SanitizerError
from repro.graph.generators import rmat_graph
from repro.graph.types import make_edges
from repro.storage.device import Device, DeviceSpec
from repro.storage.machine import Machine
from repro.tooling.sanitizer import Sanitizer, Violation
from repro.utils.units import MB


def sanitized_machine(**kwargs):
    kwargs.setdefault("num_disks", 1)
    machine = fresh_machine(**kwargs)
    Sanitizer(strict=False).install(machine)
    return machine


def edges(n):
    return make_edges(np.arange(n) % 50, np.arange(n) % 50)


class TestInstallation:
    def test_machine_sanitize_flag_installs(self):
        m = Machine([DeviceSpec.hdd()], memory=2 * MB, sanitize=True)
        assert m.sanitizer is not None
        assert m.sanitizer.ok

    def test_commodity_server_sanitize_kwarg(self):
        m = Machine.commodity_server(memory=2 * MB, sanitize=True)
        assert m.sanitizer is not None

    def test_engine_config_installs_on_plain_machine(self):
        """The machine is the one switch: any engine run on a sanitized
        machine finalizes its sanitizer."""
        g = rmat_graph(scale=7, edge_factor=4, seed=1)
        m = fresh_machine(sanitize=True)
        FastBFSEngine(small_fastbfs_config()).run(g, m)
        assert m.sanitizer is not None
        assert m.sanitizer.finalized

    def test_double_install_rejected(self):
        m = fresh_machine()
        s = Sanitizer().install(m)
        with pytest.raises(SanitizerError):
            s.install(fresh_machine())


class TestVFSLeakChecker:
    def test_clean_create_delete_cycle(self):
        m = sanitized_machine()
        f = m.vfs.create("stay:p0:i0", m.disks[0])
        m.vfs.delete(f.name)
        assert m.sanitizer.finalize_run() == []

    def test_leaked_stay_file_reported_with_site(self):
        m = sanitized_machine()
        m.vfs.create("stay:p0:i0", m.disks[0])  # never deleted
        violations = m.sanitizer.finalize_run()
        assert len(violations) == 1
        v = violations[0]
        assert v.checker == "vfs-leak"
        assert "stay:p0:i0" in v.message
        assert v.site is not None and "test_tooling_sanitizer.py" in v.site

    def test_leaked_update_file_reported(self):
        m = sanitized_machine()
        m.vfs.create("updates:0:p1", m.disks[0])
        assert [v.checker for v in m.sanitizer.finalize_run()] == ["vfs-leak"]

    def test_survivor_roles_allowed(self):
        m = sanitized_machine()
        for name in ("input:g", "edges:p0", "vertices:p0", "shard:0"):
            m.vfs.create(name, m.disks[0])
        assert m.sanitizer.finalize_run() == []

    def test_replace_resolves_stay_into_survivor(self):
        m = sanitized_machine()
        old = m.vfs.create("edges:p0", m.disks[0])
        m.vfs.create("stay:p0:i0", m.disks[0])
        m.vfs.replace("stay:p0:i0", "edges:p0")
        assert old.deleted
        assert m.sanitizer.finalize_run() == []


class TestClockChecker:
    def test_normal_operation_clean(self):
        m = sanitized_machine()
        m.clock.charge_compute(0.5)
        m.clock.wait_until(2.0)
        m.clock.wait_until(1.0)  # in the past: legal no-op
        assert m.sanitizer.past_waits == 1
        assert m.sanitizer.finalize_run() == []

    def test_negative_wait_target_flagged(self):
        m = sanitized_machine()
        m.clock.wait_until(-1.0)
        assert [v.checker for v in m.sanitizer.finalize_run()] == ["clock"]

    def test_backwards_clock_flagged(self):
        m = sanitized_machine()
        m.clock.charge_compute(1.0)
        m.clock._now = 0.25  # simulate a buggy component rewinding time
        m.clock.charge_compute(0.0)
        checkers = {v.checker for v in m.sanitizer.finalize_run()}
        assert "clock" in checkers


class TestCostCoverageChecker:
    def test_unattributed_io_flagged(self):
        m = sanitized_machine()
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1, offset=0
        )
        violations = m.sanitizer.finalize_run()
        assert any(
            v.checker == "cost-coverage" and "unattributed" in v.message
            for v in violations
        )

    def test_uncharged_edges_read_flagged(self):
        m = sanitized_machine()
        # Stream edge bytes without ever charging a scatter cost.
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="edges:p0",
        )
        violations = m.sanitizer.finalize_run()
        assert any(
            v.checker == "cost-coverage" and "scatter" in v.message
            for v in violations
        )

    def test_charged_edges_read_clean(self):
        m = sanitized_machine()
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="edges:p0",
        )
        m.clock.charge_compute(1e-6, category="scatter")
        assert m.sanitizer.finalize_run() == []

    def test_unknown_roles_ignored(self):
        m = sanitized_machine()
        m.disks[0].submit(
            submit_time=0.0, kind="read", nbytes=4096, file_id=1,
            offset=0, group="shard:0",
        )
        assert m.sanitizer.finalize_run() == []


class TestStayStateChecker:
    def _manager(self, machine):
        cfg = FastBFSConfig(
            stay_buffer_bytes=1024, num_stay_buffers=2, cancellation_grace=0.001
        )
        mgr = StayStreamManager(machine.clock, machine.vfs, machine.disks[0], cfg)
        machine.sanitizer.watch_staystream(mgr)
        return mgr

    def test_full_swap_lifecycle_clean(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        old = m.vfs.create("edges:p0", m.disks[0])
        mgr.open(0, iteration=0)
        m.clock.charge_compute(1e-9, category="trim")  # protocol: trim charge
        mgr.append(0, edges(10))
        mgr.finish_partition(0)
        m.clock.charge_compute(1.0)
        _, outcome = mgr.resolve_input(0, old)
        assert outcome == "swap"
        assert m.sanitizer.finalize_run() == []

    def test_cancel_lifecycle_clean(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        old = m.vfs.create("edges:p0", m.disks[0])
        mgr.open(0, iteration=0)
        m.clock.charge_compute(1e-9, category="trim")
        mgr.append(0, edges(10**6))  # too slow to land within the grace
        mgr.finish_partition(0)
        _, outcome = mgr.resolve_input(0, old)
        assert outcome == "cancel"
        # The displaced edges file survives; no stay writer left behind.
        assert m.sanitizer.finalize_run() == []

    def test_discard_all_terminalizes_everything(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        mgr.open(0, iteration=0)
        m.clock.charge_compute(1e-9, category="trim")
        mgr.append(0, edges(5))
        mgr.finish_partition(0)
        mgr.open(1, iteration=0)
        mgr.discard_all()
        assert m.sanitizer.finalize_run() == []

    def test_abandoned_writer_flagged(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        mgr.open(0, iteration=0)
        mgr.append(0, edges(5))
        # Neither finished nor discarded: both a stay-state violation and a
        # VFS leak of the stay file.
        checkers = {v.checker for v in m.sanitizer.finalize_run()}
        assert checkers == {"stay-state", "vfs-leak"}

    def test_double_open_recorded_and_raises(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        mgr.open(0, iteration=0)
        with pytest.raises(EngineError):
            mgr.open(0, iteration=0)
        assert any(
            v.checker == "stay-state" and "double open" in v.message
            for v in m.sanitizer.violations
        )

    def test_append_without_open_recorded_and_raises(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        with pytest.raises(EngineError):
            mgr.append(2, edges(1))
        assert any(
            v.checker == "stay-state" and "without an open" in v.message
            for v in m.sanitizer.violations
        )


    def test_stage_without_open_recorded_and_raises(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        with pytest.raises(EngineError):
            mgr.stage_survivors(2, edges(4), np.arange(2))
        assert any(
            v.checker == "stay-state"
            and "stage without an open stay writer for partition 2" in v.message
            for v in m.sanitizer.violations
        )

    def test_stage_after_finish_recorded_and_raises(self):
        m = sanitized_machine()
        mgr = self._manager(m)
        old = m.vfs.create("edges:p0", m.disks[0])
        old.append_records(edges(10))
        mgr.open(0, iteration=0, input_file=old)
        m.clock.charge_compute(1e-9, category="trim")
        mgr.append(0, mgr.stage_survivors(0, old.records(), np.arange(4)))
        assert m.sanitizer.violations == []
        mgr.finish_partition(0)
        with pytest.raises(EngineError):
            mgr.stage_survivors(0, old.records(), np.arange(2))
        assert [
            v.message for v in m.sanitizer.violations if v.checker == "stay-state"
        ] == ["stage without an open stay writer for partition 0"]


class TestSessionScoping:
    def test_preexisting_files_are_not_session_leaks(self):
        # A sealed staged artifact is alive before the session begins; it
        # surviving the query must not count as a leak.
        m = sanitized_machine()
        m.vfs.create("updates:in:p0", m.disks[0])
        m.sanitizer.begin_session()
        assert m.sanitizer.finalize_session() == []

    def test_transient_session_file_flagged(self):
        m = sanitized_machine()
        m.sanitizer.begin_session()
        m.vfs.create("stay:p0:i1", m.disks[0])
        out = m.sanitizer.finalize_session()
        assert len(out) == 1
        assert out[0].checker == "vfs-leak"
        assert "end of session" in out[0].message

    def test_survivor_roles_survive_the_session(self):
        m = sanitized_machine()
        m.sanitizer.begin_session()
        m.vfs.create("edges:p0", m.disks[0])
        assert m.sanitizer.finalize_session() == []

    def test_session_leak_not_double_reported_by_finalize_run(self):
        m = sanitized_machine()
        m.sanitizer.begin_session()
        m.vfs.create("stay:p0:i1", m.disks[0])
        m.sanitizer.finalize_session()
        count = len(by_checker(m.sanitizer, "vfs-leak"))
        m.sanitizer.finalize_run()
        assert len(by_checker(m.sanitizer, "vfs-leak")) == count

    def test_deleted_session_file_clean(self):
        m = sanitized_machine()
        m.sanitizer.begin_session()
        f = m.vfs.create("stay:p0:i1", m.disks[0])
        m.vfs.delete(f.name)
        assert m.sanitizer.finalize_session() == []

    def test_sanitized_batch_run_clean(self):
        """Acceptance gate: staged files shared across a run_many batch are
        session survivors, not leaks."""
        g = rmat_graph(scale=8, edge_factor=6, seed=5)
        m = sanitized_machine()
        batch = FastBFSEngine(small_fastbfs_config()).run_many(
            g, m, roots=[0, hub_root(g)]
        )
        assert batch.num_queries == 2
        assert m.sanitizer.finalized
        assert by_checker(m.sanitizer, "vfs-leak") == []
        assert m.sanitizer.violations == []


class TestStrictMode:
    def test_strict_raises_with_report(self):
        m = fresh_machine()
        Sanitizer(strict=True).install(m)
        m.vfs.create("stay:p9:i9", m.disks[0])
        with pytest.raises(SanitizerError, match="stay:p9:i9"):
            m.sanitizer.finalize_run()

    def test_strict_clean_run_does_not_raise(self):
        m = fresh_machine()
        Sanitizer(strict=True).install(m)
        assert m.sanitizer.finalize_run() == []

    def test_finalize_is_idempotent(self):
        m = sanitized_machine()
        m.vfs.create("stay:p0:i0", m.disks[0])
        first = m.sanitizer.finalize_run()
        second = m.sanitizer.finalize_run()
        assert first == second == m.sanitizer.violations


class TestReporting:
    def test_report_lists_every_violation(self):
        s = Sanitizer(strict=False)
        s._record("clock", "a")
        s._record("vfs-leak", "b", site="x.py:1 in f")
        report = s.report()
        assert "2 violation(s)" in report
        assert "[clock] a" in report
        assert "x.py:1 in f" in report

    def test_clean_report(self):
        assert "0 violations" in Sanitizer().report()

    def test_violation_str(self):
        v = Violation("clock", "msg", site="y.py:2 in g")
        assert str(v) == "[clock] msg (created at y.py:2 in g)"



class TestEndToEnd:
    def test_full_fastbfs_run_sanitized_clean(self):
        """Acceptance gate: a full traversal on a sanitized machine has zero
        VFS leaks and zero state-machine violations."""
        g = rmat_graph(scale=9, edge_factor=8, seed=21)
        m = sanitized_machine()
        result = FastBFSEngine(small_fastbfs_config()).run(
            g, m, root=hub_root(g)
        )
        assert m.sanitizer.finalized
        assert by_checker(m.sanitizer, "vfs-leak") == []
        assert by_checker(m.sanitizer, "stay-state") == []
        assert m.sanitizer.violations == []
        assert result.extras["sanitizer_violations"] == 0.0

    def test_sanitized_run_matches_unsanitized(self):
        g = rmat_graph(scale=8, edge_factor=6, seed=7)
        root = hub_root(g)
        plain = FastBFSEngine(small_fastbfs_config()).run(
            g, fresh_machine(), root=root
        )
        sane = FastBFSEngine(small_fastbfs_config()).run(
            g, fresh_machine(sanitize=True), root=root
        )
        assert np.array_equal(plain.levels, sane.levels)
        assert plain.execution_time == sane.execution_time
        assert plain.report.bytes_read == sane.report.bytes_read
