"""Hypothesis fuzzing of the full engine stack.

Random graphs x random engine configurations: the BFS answer must always
equal the in-memory reference, and the run must read the volume
formula's passes, fed its own stay cancellations
(``tests.helpers.checked_run``), no matter how the machine or the engine
is configured — partitions, buffer sizes, prefetch depth, trimming
policy, grace, thread counts, disks, memory budgets, in memory or out of
core.  The batch/session protocol
is fuzzed too: ``run_many`` answers match the reference per query, and
``Machine.restore`` rolls every observability counter back to exactly its
checkpointed value.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.reference import bfs_levels
from repro.algorithms.validation import BFSAnswerChecker
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import random_graph
from repro.graph.partition import VertexPartitioning
from repro.obs.counters import CounterRegistry
from repro.storage.device import DeviceSpec
from repro.storage.machine import Machine
from repro.utils.units import KB, MB
from tests.helpers import checked_run


def machine_for(num_disks: int, memory: int) -> Machine:
    specs = [DeviceSpec.hdd(f"hdd{i}") for i in range(num_disks)]
    return Machine(specs, memory=memory)


fastbfs_configs = st.builds(
    FastBFSConfig,
    threads=st.integers(min_value=1, max_value=8),
    edge_buffer_bytes=st.integers(min_value=64, max_value=8 * KB),
    num_edge_buffers=st.integers(min_value=1, max_value=4),
    update_buffer_bytes=st.integers(min_value=64, max_value=4 * KB),
    num_partitions=st.integers(min_value=1, max_value=9),
    allow_in_memory=st.booleans(),
    trim_enabled=st.booleans(),
    trim_start_iteration=st.integers(min_value=0, max_value=4),
    trim_trigger_fraction=st.floats(min_value=0.0, max_value=0.9,
                                    exclude_max=True),
    extended_trim=st.booleans(),
    selective_scheduling=st.booleans(),
    stay_buffer_bytes=st.integers(min_value=64, max_value=4 * KB),
    num_stay_buffers=st.integers(min_value=1, max_value=8),
    cancellation_grace=st.floats(min_value=0.0, max_value=0.05),
    rotate_streams=st.booleans(),
)


@given(
    n=st.integers(min_value=2, max_value=120),
    m_factor=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    config=fastbfs_configs,
    num_disks=st.integers(min_value=1, max_value=3),
    memory_kb=st.integers(min_value=16, max_value=4096),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_fastbfs_always_correct(n, m_factor, seed, config, num_disks,
                                     memory_kb):
    graph = random_graph(n, m_factor * n, seed=seed)
    root = seed % n
    ref = bfs_levels(graph, root)
    machine = machine_for(num_disks, memory_kb * KB)
    result = checked_run(FastBFSEngine(config), graph, machine, root)
    assert np.array_equal(result.levels, ref)
    # Accounting sanity under every configuration.
    assert result.report.execution_time >= 0
    assert result.report.iowait_ratio <= 1.0 + 1e-9
    assert result.report.bytes_read >= 0


@given(
    n=st.integers(min_value=2, max_value=100),
    seed=st.integers(min_value=0, max_value=10**6),
    threads=st.integers(min_value=1, max_value=8),
    partitions=st.integers(min_value=1, max_value=8),
    buffer_bytes=st.integers(min_value=64, max_value=4 * KB),
    allow_in_memory=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_fuzz_xstream_always_correct(n, seed, threads, partitions,
                                     buffer_bytes, allow_in_memory):
    graph = random_graph(n, 4 * n, seed=seed)
    root = seed % n
    config = FastBFSConfig(
        threads=threads,
        num_partitions=partitions,
        edge_buffer_bytes=buffer_bytes,
        update_buffer_bytes=buffer_bytes,
        allow_in_memory=allow_in_memory,
    )
    machine = machine_for(1, MB)
    result = checked_run(XStreamEngine(config), graph, machine, root)
    assert np.array_equal(result.levels, bfs_levels(graph, root))


@given(
    n=st.integers(min_value=2, max_value=100),
    seed=st.integers(min_value=0, max_value=10**6),
    shards=st.integers(min_value=1, max_value=7),
    selective=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_fuzz_graphchi_always_correct(n, seed, shards, selective):
    graph = random_graph(n, 4 * n, seed=seed)
    root = seed % n
    config = GraphChiConfig(num_shards=shards, selective_scheduling=selective)
    machine = machine_for(1, MB)
    result = GraphChiEngine(config).run(graph, machine, root=root)
    assert np.array_equal(result.levels, bfs_levels(graph, root))


@given(
    n=st.integers(min_value=2, max_value=80),
    seed=st.integers(min_value=0, max_value=10**6),
    config=fastbfs_configs,
)
@settings(max_examples=30, deadline=None)
def test_fuzz_trimming_never_changes_bytes_upward_vs_untrimmed(
    n, seed, config
):
    """With identical settings except trimming, immediate trimming never
    *increases* edges scanned (it may add writes, never reads of edge
    data): by the volume formula, which ``test_fuzz_fastbfs_always_correct``
    holds the engine to under the same configs."""
    graph = random_graph(n, 5 * n, seed=seed)
    # Delayed trimming can legitimately re-scan more (see the ablation
    # bench); restrict the property to immediate trimming.
    config = replace(config, trim_start_iteration=0, trim_trigger_fraction=0.0)
    checker = BFSAnswerChecker(graph)
    partitioning = VertexPartitioning(n, config.num_partitions)
    on, off = (
        sum(scanned for scanned, _, _ in checker.pass_volumes(
            FastBFSEngine(c), partitioning, seed % n))
        for c in (config, replace(config, trim_enabled=False))
    )
    assert on <= off


@given(
    n=st.integers(min_value=2, max_value=100),
    seed=st.integers(min_value=0, max_value=10**6),
    config=fastbfs_configs,
    num_disks=st.integers(min_value=1, max_value=2),
    raw_roots=st.lists(
        st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4
    ),
)
@settings(max_examples=25, deadline=None)
def test_fuzz_run_many_matches_reference_per_query(
    n, seed, config, num_disks, raw_roots
):
    graph = random_graph(n, 4 * n, seed=seed)
    roots = [r % n for r in raw_roots]
    machine = machine_for(num_disks, MB)
    batch = FastBFSEngine(config).run_many(graph, machine, roots=roots)
    assert batch.num_queries == len(roots)
    for root, q in zip(roots, batch.queries):
        assert np.array_equal(q.levels, bfs_levels(graph, root))
        assert q.report.execution_time >= 0
    # The cumulative counter sample reconciles with the cumulative report
    # after any number of checkpoint/restore cycles.
    assert CounterRegistry.from_machine(machine).reconcile(machine.report()) == []


@given(
    n=st.integers(min_value=2, max_value=80),
    seed=st.integers(min_value=0, max_value=10**6),
    config=fastbfs_configs,
    num_disks=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=25, deadline=None)
def test_fuzz_checkpoint_restore_rewinds_counters_exactly(
    n, seed, config, num_disks
):
    """``Machine.restore`` leaves every counter at its checkpointed value.

    Clock, VFS, devices and page cache are all counter sources, so a
    registry sampled after restore must equal the one sampled at
    checkpoint time — and re-running the same query must land on the
    same counters it produced the first time (the determinism the
    memoizing harness relies on).
    """
    graph = random_graph(n, 4 * n, seed=seed)
    root = seed % n
    machine = machine_for(num_disks, MB)
    eng = FastBFSEngine(config)
    staged = eng.stage(graph, machine)

    at_checkpoint = CounterRegistry.from_machine(machine)
    cp = machine.checkpoint()

    first = eng.session(staged).run(root=root)
    after_query = CounterRegistry.from_machine(machine)

    machine.restore(cp)
    assert CounterRegistry.from_machine(machine) == at_checkpoint

    second = eng.session(staged).run(root=root)
    assert np.array_equal(first.levels, second.levels)
    assert CounterRegistry.from_machine(machine) == after_query
