"""Differential suite for the MS-BFS batched scheduler: the batching cases
the contract matrix does not deal.

The matrix (``tests/test_contracts.py``) holds every engine and batchable
kernel's ``run_many(mode="batched")`` to the serial path on two roots
over its seeded scenarios, and a one-ticket admission flush (a batched
chunk of one) to the ``run`` query.  Here ``run_many`` runs the same root
list twice, serial rewind and ``mode="batched"`` shared scans, at the
shapes two roots cannot reach, and checks that the batched path is
*observationally identical* per query:

* levels and parents match bit-for-bit (and agree with the in-memory
  reference BFS);
* per-query iteration counts match;
* per-query update totals match (the demuxed per-pass bookkeeping);
* the batch scans strictly fewer edge records than the serial rewind
  whenever more than one query shares a batch.

The shapes: batch widths 1, 2, 64 (exactly one full mask) and 65 (spills
into a second batch), early-converging queries (isolated roots that
finish in one pass while hub queries keep scanning), duplicate roots,
and multi-source slots.  A chunk of one runs the serial kernel in either
mode, so the 65th entry of a 65-entry call, one root or a root list, must
equal the serial query in report and iteration stats too, not only in
answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.reference import bfs_levels
from repro.algorithms.validation import validate_bfs_result
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiEngine
from repro.graph.generators import random_graph, rmat_graph
from repro.graph.graph import Graph
from tests.helpers import fresh_machine, small_fastbfs_config


def _run_both(graph, roots):
    """The same roots through ``run_many`` serially and batched, each on a
    fresh one-disk machine with 256 KB of memory."""
    return [
        FastBFSEngine(small_fastbfs_config()).run_many(
            graph, fresh_machine(num_disks=1, memory=256 * 1024),
            roots=roots, mode=mode,
        )
        for mode in ("serial", "batched")
    ]


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
        if graph is not None and np.isscalar(roots[q]):
            ref = bfs_levels(graph, int(roots[q]))
            assert np.array_equal(qb.levels, ref), f"query {q} vs reference"
            report = validate_bfs_result(
                graph, int(roots[q]), qb.levels, qb.parents,
                reference_levels=ref,
            )
            assert report.ok, f"query {q}: {report.errors}"


@pytest.mark.parametrize("width", [1, 2, 64, 65])
def test_batch_width_boundaries(width):
    """Batch packing at the mask boundaries: 1, 2, exactly 64, and spill."""
    graph = random_graph(120, 900, seed=7)
    deg = graph.out_degrees()
    candidates = [int(v) for v in np.flatnonzero(deg > 0)]
    roots = [candidates[i % len(candidates)] for i in range(width)]

    serial, batched = _run_both(graph, roots)
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

    serial, batched = _run_both(graph, roots)
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

    serial, batched = _run_both(graph, roots)
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
def _reference_levels(graph, entry):
    """Reference levels from one root, or from a root list: each vertex's
    distance to its nearest root (-1 where none reaches it)."""
    per_root = np.stack([bfs_levels(graph, r) for r in np.atleast_1d(entry)])
    reached = per_root >= 0
    nearest = np.where(reached, per_root, np.iinfo(np.int32).max).min(axis=0)
    return np.where(reached.any(axis=0), nearest, -1)


@pytest.mark.parametrize("multi_source", [False, True],
                         ids=["one-root", "multi-source"])
def test_65th_root_runs_alone_as_the_serial_query(multi_source):
    graph = random_graph(120, 900, seed=7)
    deg = graph.out_degrees()
    candidates = [int(v) for v in np.flatnonzero(deg > 0)]
    roots = [candidates[i % len(candidates)] for i in range(65)]
    if multi_source:
        roots[64] = [candidates[1], candidates[-1]]

    serial, batched = _run_both(graph, roots)
    qs, qb = serial.queries[64], batched.queries[64]
    # Answer, report and per-iteration stats are those of one run.
    assert np.array_equal(qs.levels, qb.levels)
    assert np.array_equal(qs.parents, qb.parents)
    assert qb.report.to_dict() == qs.report.to_dict()
    assert qb.iterations == qs.iterations
    # The chunk is still one batch of the batched result.
    assert batched.batch_times[1] == qs.execution_time
    assert batched.shared_iterations[-qs.num_iterations:] == qs.iterations
    assert np.array_equal(qb.levels, _reference_levels(graph, roots[64]))
