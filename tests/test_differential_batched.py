"""Differential suite for the MS-BFS batched scheduler.

Every case runs the same root list through ``run_many`` twice — serial
rewind and ``mode="batched"`` shared scans — and checks that the batched
path is *observationally identical* per query:

* levels and parents match bit-for-bit (and agree with the in-memory
  reference BFS);
* per-query iteration counts match;
* per-query update totals match (the demuxed per-pass bookkeeping);
* the batch scans strictly fewer edge records than the serial rewind
  whenever more than one query shares a batch.

The matrix reuses the graph/config/placement scenarios of the contract
matrix (``tests/test_contracts.py``, whose ``batched`` column holds every
engine and batchable kernel to the serial path on two roots) and adds
the batching-specific ones: batch widths 1, 2, 64 (exactly one full
mask) and 65 (spills into a second batch), early-converging queries
(isolated roots that finish in one pass while hub queries keep
scanning), duplicate roots, and multi-source slots.

A chunk of one runs the serial kernel in either mode, so a one-root
batched call and the 65th root of a 65-root call must equal the serial
run in report and iteration stats too, not only in answers (the contract
matrix's ``flush`` column holds a one-ticket admission flush to it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.reference import bfs_levels
from repro.algorithms.validation import validate_bfs_result
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiEngine
from repro.engines.session import run_staged_queries
from repro.graph.generators import random_graph, rmat_graph
from repro.graph.graph import Graph
from tests.helpers import fresh_machine, small_fastbfs_config

from tests.test_contracts import _config_for, _graph_for, _placement_for

NUM_CASES = 12


def _roots_for(graph: Graph, i: int) -> list:
    """A deterministic root list mixing hubs, periphery and dead ends.

    Always includes at least one zero-out-degree vertex when the graph
    has one, so every case exercises an early-converging query slot.
    """
    deg = graph.out_degrees()
    order = np.argsort(-deg)
    q = (2, 3, 5, 8)[i % 4]
    roots = [int(v) for v in order[:q]]
    dead = np.flatnonzero(deg == 0)
    if len(dead):
        roots[-1] = int(dead[i % len(dead)])
    if i % 3 == 0 and len(roots) > 1:
        roots[1] = roots[0]  # duplicate root: identical slots must agree
    return roots


def _run_both(graph, cfg, num_disks, memory_kb, roots):
    serial = FastBFSEngine(cfg).run_many(
        graph,
        fresh_machine(num_disks=num_disks, memory=memory_kb * 1024),
        roots=roots,
        mode="serial",
    )
    batched = FastBFSEngine(cfg).run_many(
        graph,
        fresh_machine(num_disks=num_disks, memory=memory_kb * 1024),
        roots=roots,
        mode="batched",
    )
    return serial, batched


def _assert_batch_matches_serial(serial, batched, roots, graph=None):
    assert serial.mode == "serial"
    assert batched.mode == "batched"
    assert batched.num_queries == serial.num_queries == len(roots)
    for q, (qs, qb) in enumerate(zip(serial.queries, batched.queries)):
        assert np.array_equal(qs.levels, qb.levels), f"query {q} levels"
        assert np.array_equal(qs.parents, qb.parents), f"query {q} parents"
        assert qs.num_iterations == qb.num_iterations, f"query {q} iterations"
        assert qs.updates_generated == qb.updates_generated, f"query {q} updates"
        assert qs.query_index == qb.query_index == q
        assert qs.extras["query_index"] == qb.extras["query_index"] == float(q)
        if graph is not None and np.isscalar(roots[q]):
            ref = bfs_levels(graph, int(roots[q]))
            assert np.array_equal(qb.levels, ref), f"query {q} vs reference"
            report = validate_bfs_result(
                graph, int(roots[q]), qb.levels, qb.parents,
                reference_levels=ref,
            )
            assert report.ok, f"query {q}: {report.errors}"


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_batched_matches_serial(case):
    graph = _graph_for(case)
    cfg = _config_for(case)
    num_disks, memory_kb = _placement_for(case)
    if (cfg.rotate_streams or cfg.stay_disk) and num_disks < 2:
        num_disks = 2
    roots = _roots_for(graph, case)

    serial, batched = _run_both(graph, cfg, num_disks, memory_kb, roots)
    _assert_batch_matches_serial(serial, batched, roots, graph=graph)

    # The whole point: one shared timeline scans fewer edge records than
    # Q rewinds (Q > 1 in every case of this matrix).
    assert len(batched.batch_times) == 1
    assert batched.edges_scanned < serial.edges_scanned


@pytest.mark.parametrize("width", [1, 2, 64, 65])
def test_batch_width_boundaries(width):
    """Batch packing at the mask boundaries: 1, 2, exactly 64, and spill."""
    graph = random_graph(120, 900, seed=7)
    deg = graph.out_degrees()
    candidates = [int(v) for v in np.flatnonzero(deg > 0)]
    roots = [candidates[i % len(candidates)] for i in range(width)]

    serial, batched = _run_both(graph, small_fastbfs_config(), 1, 256, roots)
    _assert_batch_matches_serial(serial, batched, roots, graph=graph)
    assert len(batched.batch_times) == (2 if width > 64 else 1)
    assert batched.extras["num_batches"] == float(len(batched.batch_times))
    if width > 1:
        assert batched.edges_scanned < serial.edges_scanned


def test_early_converging_queries_keep_their_own_iteration_counts():
    """Dead-end roots stop at one pass; hub queries keep their full depth."""
    base = random_graph(100, 600, seed=3)
    # Tack on isolated vertices: BFS from one converges immediately.
    src, dst = base.edges["src"], base.edges["dst"]
    graph = Graph.from_arrays(base.num_vertices + 4, src, dst, name="tail")
    hub = int(np.argmax(graph.out_degrees()))
    isolated = graph.num_vertices - 1
    roots = [hub, isolated, hub, isolated]

    serial, batched = _run_both(graph, small_fastbfs_config(), 1, 256, roots)
    _assert_batch_matches_serial(serial, batched, roots, graph=graph)
    per_q = [q.num_iterations for q in batched.queries]
    assert per_q[1] == per_q[3] == 1
    assert per_q[0] == per_q[2] > 1
    # The isolated query's output is just its own root.
    lv = batched.queries[1].levels
    assert lv[isolated] == 0 and (lv >= 0).sum() == 1


def test_multi_source_slots_batch_like_serial():
    """A roots entry may itself be a root list (one multi-source query)."""
    graph = rmat_graph(scale=8, edge_factor=8, seed=21)
    deg = graph.out_degrees()
    order = [int(v) for v in np.argsort(-deg)]
    roots = [[order[0], order[5]], order[1], [order[2], order[3], order[4]]]

    serial, batched = _run_both(graph, small_fastbfs_config(), 1, 256, roots)
    _assert_batch_matches_serial(serial, batched, roots)


@pytest.mark.parametrize(
    "engine",
    [FastBFSEngine(small_fastbfs_config()), GraphChiEngine()],
    ids=["fastbfs", "graphchi"],
)
def test_bad_mode_rejected(engine):
    from repro.errors import ConfigError

    graph = random_graph(40, 200, seed=1)
    with pytest.raises(ConfigError):
        engine.run_many(graph, fresh_machine(), roots=[0], mode="parallel")


# ----------------------------------------------------------------------
# A batch of one is a serial query
# ----------------------------------------------------------------------


def _assert_same_query(qs, qb):
    """Answer, report and per-iteration stats are those of one run."""
    assert np.array_equal(qs.levels, qb.levels)
    assert np.array_equal(qs.parents, qb.parents)
    assert qb.report.execution_time == qs.report.execution_time
    assert qb.report.bytes_by_role() == qs.report.bytes_by_role()
    assert qb.report.to_dict() == qs.report.to_dict()
    assert qb.iterations == qs.iterations


@pytest.mark.parametrize("case", range(6))
def test_one_root_batched_chunk_is_the_serial_query(case):
    graph = _graph_for(case)
    cfg = _config_for(case)
    num_disks, memory_kb = _placement_for(case)
    if (cfg.rotate_streams or cfg.stay_disk) and num_disks < 2:
        num_disks = 2
    engine = FastBFSEngine(cfg)
    machine = fresh_machine(num_disks=num_disks, memory=memory_kb * 1024)
    staged = engine.stage(graph, machine)
    checkpoint = machine.checkpoint()
    hubs = np.argsort(-graph.out_degrees())
    for entry in (int(hubs[0]), [int(hubs[1]), int(hubs[2])]):
        serial, batched = (
            run_staged_queries(
                engine, staged, checkpoint, [entry], mode=mode
            )
            for mode in ("serial", "batched")
        )
        assert batched.mode == "batched"
        (qs,), (qb,) = serial.queries, batched.queries
        _assert_same_query(qs, qb)
        assert qb.edges_scanned > 0
        # The chunk is still one batch of the batched result.
        assert batched.batch_times == [qs.report.execution_time]
        assert batched.shared_iterations == qs.iterations
        assert batched.edges_scanned == serial.edges_scanned
        assert batched.total_time == serial.total_time


def test_65th_root_runs_alone_as_the_serial_query():
    graph = random_graph(120, 900, seed=7)
    deg = graph.out_degrees()
    candidates = [int(v) for v in np.flatnonzero(deg > 0)]
    roots = [candidates[i % len(candidates)] for i in range(65)]

    serial, batched = _run_both(graph, small_fastbfs_config(), 1, 256, roots)
    _assert_same_query(serial.queries[64], batched.queries[64])
    assert batched.batch_times[1] == serial.queries[64].execution_time
    tail = batched.shared_iterations[-serial.queries[64].num_iterations:]
    assert tail == serial.queries[64].iterations
    ref = bfs_levels(graph, roots[64])
    assert np.array_equal(batched.queries[64].levels, ref)
