"""Differential suite: 30 seeded graph/config/placement scenarios.

Every case runs FastBFS, X-Stream and GraphChi on the same input and
checks that

* all three agree exactly with the in-memory reference BFS on levels;
* all three produce a valid parent tree (Graph500 rules, reference-checked);
* the :class:`~repro.obs.CounterRegistry` sampled from each machine
  reconciles **bit-for-bit** with the run's :class:`IOReport` — per
  device, per stream role, and in the persistent-device totals.

The scenario matrix deliberately crosses the axes the engines special-case:
degree skew (powerlaw/R-MAT vs uniform), disconnected components,
self-loops, trimming thresholds/grace, selective scheduling, partition
counts, and one- vs two-disk stream placement (with and without rotation).
GraphChi takes the case's partition count as its shard count and the
case's selective-scheduling flag as its own interval scheduler's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.reference import bfs_levels
from repro.algorithms.validation import validate_bfs_result
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import (
    grid_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
)
from repro.graph.graph import Graph
from repro.obs import CounterRegistry
from tests.helpers import fresh_machine, small_fastbfs_config

NUM_CASES = 30


# ----------------------------------------------------------------------
# Scenario matrix (deterministic in the case index)
# ----------------------------------------------------------------------
def _graph_for(i: int) -> Graph:
    kind = ("random", "powerlaw", "rmat", "grid", "selfloop",
            "disconnected")[i % 6]
    seed = 1000 + i
    if kind == "random":
        return random_graph(80 + 20 * i, 5 * (80 + 20 * i), seed=seed)
    if kind == "powerlaw":
        # Heavy degree skew: a few hubs own most out-edges.
        return powerlaw_graph(300 + 10 * i, 3000, out_exponent=1.8, seed=seed)
    if kind == "rmat":
        return rmat_graph(scale=8, edge_factor=8, seed=seed)
    if kind == "grid":
        return grid_graph(12 + i, 10)
    if kind == "selfloop":
        base = random_graph(150, 900, seed=seed)
        rng = np.random.RandomState(seed)
        loops = rng.randint(0, base.num_vertices, size=40)
        src = np.concatenate([base.edges["src"], loops])
        dst = np.concatenate([base.edges["dst"], loops])
        return Graph.from_arrays(base.num_vertices, src, dst,
                                 name=f"selfloop{i}")
    # disconnected: two random blocks with no cross edges, plus isolated
    # tail vertices that appear in no edge at all.
    a = random_graph(120, 700, seed=seed)
    b = random_graph(60, 300, seed=seed + 1)
    src = np.concatenate([a.edges["src"], b.edges["src"] + a.num_vertices])
    dst = np.concatenate([a.edges["dst"], b.edges["dst"] + a.num_vertices])
    return Graph.from_arrays(a.num_vertices + b.num_vertices + 10, src, dst,
                             name=f"disconnected{i}")


def _config_for(i: int):
    # Trim thresholds cycle through off / immediate / delayed / triggered.
    return small_fastbfs_config(
        num_partitions=1 + i % 5,
        trim_enabled=(i % 3 != 2),
        trim_start_iteration=i % 4,
        trim_trigger_fraction=(0.0, 0.2, 0.5)[i % 3],
        cancellation_grace=(0.0, 0.001, 0.01)[(i // 2) % 3],
        selective_scheduling=bool(i % 2),
        extended_trim=bool((i // 3) % 2),
        rotate_streams=(i % 2 == 1 and i % 4 == 1),
        stay_disk=(1 if (i % 10 == 0 and i % 2 == 1) else None),
    )


def _placement_for(i: int):
    """(num_disks, memory_kb): one- vs two-disk, always out-of-core."""
    num_disks = 1 + i % 2
    memory_kb = (64, 256, 1024)[i % 3]
    return num_disks, memory_kb


def _root_for(graph: Graph, i: int) -> int:
    deg = graph.out_degrees()
    if i % 4 == 0:
        return int(np.argmax(deg))
    candidates = np.flatnonzero(deg > 0)
    return int(candidates[i % len(candidates)]) if len(candidates) else 0


def _assert_counters_reconcile(machine, result) -> None:
    registry = CounterRegistry.from_machine(machine)
    errors = registry.reconcile(result.report)
    assert errors == [], "\n".join(errors)
    # Byte totals equal the IOReport bit-for-bit, device by device.
    for dev in result.report.devices:
        assert registry.total(
            "device_bytes_total", device=dev.name, kind="read"
        ) == dev.bytes_read
        assert registry.total(
            "device_bytes_total", device=dev.name, kind="write"
        ) == dev.bytes_written
    persistent = [d for d in result.report.devices if d.kind != "ram"]
    assert sum(d.bytes_total for d in persistent) == result.report.bytes_total
    # The report-derived registry agrees with the machine-derived one on
    # every device byte series.
    from_report = CounterRegistry.from_report(result.report)
    assert from_report.reconcile(result.report) == []


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_differential_case(case):
    graph = _graph_for(case)
    cfg = _config_for(case)
    num_disks, memory_kb = _placement_for(case)
    if (cfg.rotate_streams or cfg.stay_disk) and num_disks < 2:
        num_disks = 2  # two-disk placements need two disks
    root = _root_for(graph, case)
    ref = bfs_levels(graph, root)

    engines = {
        "fastbfs": FastBFSEngine(cfg),
        "x-stream": XStreamEngine(cfg),
        "graphchi": GraphChiEngine(GraphChiConfig(
            num_shards=cfg.num_partitions,
            selective_scheduling=cfg.selective_scheduling,
        )),
    }
    for name, engine in engines.items():
        machine = fresh_machine(num_disks=num_disks, memory=memory_kb * 1024)
        result = engine.run(graph, machine, root=root)

        # Level agreement: engine vs in-memory reference.
        assert np.array_equal(result.levels, ref), (
            f"{name} levels diverge (case {case})"
        )
        # Parent validity under the Graph500 rules, pinned to the reference.
        report = validate_bfs_result(
            graph, root, result.levels, result.parents, reference_levels=ref
        )
        assert report.ok, f"{name} case {case}: {report.errors}"
        # Counters reconcile exactly with the IOReport.
        _assert_counters_reconcile(machine, result)


def test_case_matrix_covers_the_advertised_axes():
    """The 30 scenarios really do span the matrix the docstring claims."""
    graphs = [_graph_for(i) for i in range(NUM_CASES)]
    names = {g.name.rstrip("0123456789") for g in graphs}
    assert any("selfloop" in n for n in names)
    assert any("disconnected" in n for n in names)
    configs = [_config_for(i) for i in range(NUM_CASES)]
    assert {c.trim_enabled for c in configs} == {True, False}
    assert len({c.trim_start_iteration for c in configs}) >= 3
    assert len({c.trim_trigger_fraction for c in configs}) >= 2
    assert {c.selective_scheduling for c in configs} == {True, False}
    assert any(c.rotate_streams for c in configs)
    assert {_placement_for(i)[0] for i in range(NUM_CASES)} == {1, 2}

    # Self-loop graphs genuinely contain self-loops, disconnected graphs
    # genuinely have more than one component reachable set.
    loopy = next(g for g in graphs if g.name.startswith("selfloop"))
    assert (loopy.edges["src"] == loopy.edges["dst"]).any()
    disc = next(g for g in graphs if g.name.startswith("disconnected"))
    hub = int(np.argmax(disc.out_degrees()))
    assert (bfs_levels(disc, hub) < 0).any()
