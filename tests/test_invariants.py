"""Cross-cutting invariant tests (DESIGN.md §6 correctness obligations).

These go beyond output equality: they open up a run and check the
*mechanism* — stay files hold exactly the paper-rule survivors, nothing is
ever lost, accounting identities hold.  That a run is bit-deterministic
(a second run on a fresh machine repeats every answer, pass and report
byte) is the contract matrix's ``traced`` column, for every engine row
(``tests/test_contracts.py``).
"""

import numpy as np
import pytest

from tests.helpers import fresh_machine, hub_root, small_fastbfs_config

from repro.algorithms.reference import bfs_levels
from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import rmat_graph
from repro.graph.types import EDGE_DTYPE


class RecordingFastBFS(FastBFSEngine):
    """White-box engine: captures each scatter's input and stay output."""

    def __init__(self, config):
        super().__init__(config)
        self.trace = []  # (iteration, partition, input_edges, stay_edges)
        self._current_input = None

    def _edge_input_file(self, rt, p, ctx, stats):
        f = super()._edge_input_file(rt, p, ctx, stats)
        self._current_input = f.records().copy()
        return f

    def _post_partition_scatter(self, rt, p, ctx):
        had_writer = rt.stay.current(p) is not None
        super()._post_partition_scatter(rt, p, ctx)  # closes & seals the file
        stay = None
        if had_writer:
            stay = rt.stay._pending[p].file.records().copy()
        self.trace.append((ctx.iteration, p, self._current_input, stay))


@pytest.fixture(scope="module")
def traced_run():
    graph = rmat_graph(scale=10, edge_factor=8, seed=23)
    root = hub_root(graph)
    engine = RecordingFastBFS(
        small_fastbfs_config(num_partitions=3, selective_scheduling=False)
    )
    result = engine.run(graph, fresh_machine(), root=root)
    levels = bfs_levels(graph, root)
    return graph, root, engine, result, levels


class TestStayFileContents:
    def test_stay_is_exactly_the_paper_rule_survivors(self, traced_run):
        """stay(p, i) == input(p, i) minus edges whose source is in the
        level-i frontier (generate => eliminate, nothing else), record by
        record in stream order: every input edge either survives or had
        a frontier source, so none that could still visit is lost."""
        graph, root, engine, result, levels = traced_run
        checked = 0
        for iteration, p, input_edges, stay in engine.trace:
            if stay is None:
                continue
            frontier = levels == iteration
            keep = ~frontier[input_edges["src"]]
            expected = input_edges[keep]
            assert np.array_equal(stay, expected), (iteration, p)
            checked += 1
        assert checked > 0


class TestAccountingIdentities:
    def test_clock_identity(self, rmat10):
        result = FastBFSEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        report = result.report
        assert report.execution_time == pytest.approx(
            report.compute_time + report.iowait_time
        )

    def test_device_busy_bounded_by_makespan_plus_tail(self, rmat10):
        machine = fresh_machine(num_disks=2)
        FastBFSEngine(small_fastbfs_config(rotate_streams=True)).run(
            rmat10, machine, root=hub_root(rmat10)
        )
        now = machine.clock.now
        for dev in machine.all_devices():
            assert dev.busy_time_until(now) <= now + 1e-9

    def test_edge_scan_bytes_bounded_by_reads(self, rmat10):
        result = XStreamEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        scanned_bytes = result.edges_scanned * EDGE_DTYPE.itemsize
        assert result.report.bytes_read >= scanned_bytes

    def test_stay_bytes_in_written_total(self, rmat12):
        result = FastBFSEngine(small_fastbfs_config()).run(
            rmat12, fresh_machine(), root=hub_root(rmat12)
        )
        # Written >= stays actually flushed (some may be cancelled at end).
        assert result.report.bytes_written > 0
        assert (
            result.extras["stay_bytes_written"]
            >= result.extras["stay_records_written"] * 8 * 0.99
        )
