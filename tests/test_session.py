"""Staged-graph artifact + query-session architecture tests.

The contract under test: ``run()`` is literally ``stage()`` plus one
session with a cumulative report, and ``run_many()`` stages once,
rewinding the machine before every query session via
``Machine.checkpoint()/restore()`` so every query is deterministic and
pays zero staging I/O.  That a staged query's answer, iterations and
report equal the monolithic run's, and that a repeated root repeats its
query, the contract matrix checks for every engine row
(``tests/test_contracts.py``, its ``serial`` and ``crash`` columns);
this file holds the artifact, the rewind and the misuse rules.
"""

import numpy as np
import pytest

from tests.helpers import fresh_machine, hub_root, small_fastbfs_config

from repro.algorithms.streaming import BFSAlgorithm
from repro.core.engine import FastBFSEngine
from repro.engines.session import QuerySession, StagedGraph
from repro.errors import EngineError, StorageError
from repro.graph.generators import rmat_graph
from repro.utils.units import MB


def graph(scale=8, seed=3):
    return rmat_graph(scale=scale, edge_factor=6, seed=seed)


def make_engine():
    return FastBFSEngine(small_fastbfs_config())


# ----------------------------------------------------------------------
# Machine.checkpoint()/restore()
# ----------------------------------------------------------------------
class TestMachineCheckpoint:
    def test_restore_rewinds_clock_and_vfs(self):
        m = fresh_machine()
        m.vfs.create("edges:p0", m.disks[0])
        m.clock.charge_compute(1.0, "scatter")
        cp = m.checkpoint()
        t0 = m.clock.now
        m.vfs.create("stay:p0:i1", m.disks[0])
        m.clock.charge_compute(2.0, "gather")
        m.restore(cp)
        assert m.clock.now == t0
        assert m.vfs.exists("edges:p0")
        assert not m.vfs.exists("stay:p0:i1")

    def test_restore_resets_report(self):
        m = fresh_machine()
        cp = m.checkpoint()
        before = m.report()
        f = m.vfs.create("edges:p0", m.disks[0])
        req = m.disks[0].submit(m.clock.now, "write", 4096, f.file_id, 0)
        m.clock.wait_until(req.end)
        m.restore(cp)
        after = m.report()
        assert after.bytes_total == before.bytes_total
        assert after.execution_time == before.execution_time

    def test_checkpoint_is_reusable(self):
        m = fresh_machine()
        cp = m.checkpoint()
        for _ in range(3):
            m.vfs.create("stay:p0:i1", m.disks[0])
            m.restore(cp)
        assert not m.vfs.exists("stay:p0:i1")


# ----------------------------------------------------------------------
# The staged artifact
# ----------------------------------------------------------------------
class TestStagedEqualsMonolithic:
    def test_staged_artifact_shape(self):
        g = graph()
        eng = make_engine()
        m = fresh_machine()
        staged = eng.stage(g, m)
        assert isinstance(staged, StagedGraph)
        assert staged.num_partitions == len(staged.edge_files)
        # Staged edge files are sealed: appends must be rejected.
        with pytest.raises(StorageError, match="sealed"):
            staged.edge_files[0].append_records(np.zeros(1, dtype=np.uint8))
        protected = staged.protected_names()
        assert staged.input_file.name in protected
        for f in staged.edge_files + staged.vertex_files:
            assert f.name in protected
        assert staged.compatible_with(BFSAlgorithm())


# ----------------------------------------------------------------------
# Queries leave the artifact intact
# ----------------------------------------------------------------------
class TestSessionDeterminism:
    def test_query_leaves_artifact_intact(self):
        g = graph()
        eng = make_engine()
        m = fresh_machine()
        staged = eng.stage(g, m)
        cp = m.checkpoint()
        eng.session(staged).run(root=hub_root(g))
        # Protected sessions must not displace or delete staged files,
        # even though FastBFS trims (swaps stay files) during the query.
        for f in [staged.input_file] + staged.edge_files + staged.vertex_files:
            assert m.vfs.exists(f.name)
        m.restore(cp)
        third = eng.session(staged).run(root=hub_root(g))
        assert third.num_iterations > 0

    def test_run_leaves_staged_edge_files_in_place(self):
        """``run()`` is ``stage()`` plus a default session, so trimming
        must not displace the staged edge files or leak a stay file."""
        g = graph()
        m = fresh_machine()
        result = make_engine().run(g, m, root=hub_root(g))
        assert result.extras["stay_swaps"] > 0

        staging = fresh_machine()
        staged = make_engine().stage(g, staging)
        for f in staged.edge_files:
            assert m.vfs.get(f.name).num_records == f.num_records
        assert not [name for name in m.vfs.names() if name.startswith("stay:")]


# ----------------------------------------------------------------------
# Session misuse
# ----------------------------------------------------------------------
class TestSessionContract:
    def test_session_is_single_use(self):
        g = graph()
        eng = make_engine()
        staged = eng.stage(g, fresh_machine())
        session = eng.session(staged)
        session.run(root=0)
        with pytest.raises(EngineError, match="single-use"):
            session.run(root=0)

    def test_incompatible_record_bytes_rejected(self):
        class WideBFS(BFSAlgorithm):
            disk_record_bytes = 16

        g = graph()
        eng = make_engine()
        staged = eng.stage(g, fresh_machine())
        with pytest.raises(EngineError, match="re-stage"):
            QuerySession(eng, staged, algorithm=WideBFS())

    def test_run_rejects_used_machine(self):
        g = graph()
        m = fresh_machine()
        make_engine().run(g, m, root=0)
        with pytest.raises(EngineError, match="fresh"):
            make_engine().run(g, m, root=0)

    def test_run_many_rejects_empty_roots(self):
        with pytest.raises(EngineError, match="at least one"):
            make_engine().run_many(graph(), fresh_machine(), roots=[])


# ----------------------------------------------------------------------
# run_many batches
# ----------------------------------------------------------------------
class TestRunMany:
    def test_staging_paid_once(self):
        g = graph()
        batch = make_engine().run_many(
            g, fresh_machine(), roots=[0, 1, 2, 3]
        )
        single = make_engine()
        staged = single.stage(g, fresh_machine())
        assert batch.staging_report.bytes_total == (
            staged.staging_report.bytes_total
        )
        assert batch.total_time == pytest.approx(
            batch.staging_time + sum(batch.query_times)
        )
        assert batch.amortized_time == pytest.approx(
            batch.total_time / batch.num_queries
        )

    def test_multi_source_entry(self):
        g = graph()
        batch = make_engine().run_many(
            g, fresh_machine(), roots=[0, [0, 1]]
        )
        multi = batch.queries[1]
        assert multi.levels[0] == 0 and multi.levels[1] == 0
        mono = make_engine().run(g, fresh_machine(), roots=[0, 1])
        assert np.array_equal(mono.levels, multi.levels)

    def test_batch_summary_renders(self):
        g = graph(scale=7)
        batch = make_engine().run_many(g, fresh_machine(), roots=[0, 1])
        text = batch.summary()
        assert "staging" in text
        assert "query 0" in text and "query 1" in text

    def test_in_memory_mode_batches_too(self):
        g = graph(scale=7)
        eng = FastBFSEngine(small_fastbfs_config(allow_in_memory=True))
        m = fresh_machine(memory=64 * MB)
        batch = eng.run_many(g, m, roots=[0, 1])
        assert batch.num_queries == 2
        mono = FastBFSEngine(small_fastbfs_config(allow_in_memory=True)).run(
            g, fresh_machine(memory=64 * MB), root=1
        )
        assert np.array_equal(mono.levels, batch.queries[1].levels)
