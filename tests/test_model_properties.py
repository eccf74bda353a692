"""The simulated model as properties over many small graphs, not data points.

The paper's claims are checked on four datasets at two divisors
(``repro.analysis.figures``).  Here the monotonicities those claims assume
are held universally, over seeded R-MAT graphs (scale 8-10, edge factor 4
or 16), power-law graphs with depth whiskers (256-1024 vertices, the
shape twitter_rv is built with), paths and stars, on one or two HDDs or
SSDs:

* (i) FastBFS reads no more edge and stay bytes than X-Stream for the same
  graph and root (Fig. 5 as a universal);
* (ii) an engine on two disks is never slower than on one (Fig. 10);
* (iii) a larger memory budget never makes an out-of-core traversal
  slower, and crossing into in-memory mode drops the time as sharply as
  Fig. 9 claims (a strict xfail for both engines: a model finding);
* (iv) faster disks never make a traversal slower;
* (v) a batched traversal scans at least as many edges as its largest
  serial query and at most as many as all of them together;
* (vi) threads beyond the core count never speed a traversal up (Fig. 8);
* (vii) a kernel with ``supports_trimming`` never selects an edge it
  eliminated in an earlier pass: the paper's trimming rule (§II-C1), which
  FastBFS's stay files and every engine's rescans rely on;
* (viii) every run behind (i)-(vi) scans, generates and keeps, pass by
  pass, the volumes
  :meth:`~repro.algorithms.validation.BFSAnswerChecker.pass_volumes`
  derives from the reference levels and the run's stay cancellations: on
  paths, stars, whiskered power-law graphs, planned partition counts and
  SSDs, which the contract matrix (``tests/test_contracts.py``) does not
  have.

Hypothesis runs derandomized: tier-1 sees the same examples every time.
``--hypothesis-profile=ci`` (registered in ``conftest.py``) scales every
budget below by that profile's ``max_examples`` over the default's.  A
counterexample is a finding about the model, to be written up in
EXPERIMENTS.md, not a property to weaken.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.streaming import (
    AlgoContext,
    BatchedBFSAlgorithm,
    BFSAlgorithm,
    StreamingAlgorithm,
    UnitSSSPAlgorithm,
)
from repro.analysis.figures import FIGURES
from repro.analysis.harness import ComparisonRow
from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import (
    attach_whiskers,
    path_graph,
    powerlaw_graph,
    rmat_graph,
    star_graph,
)
from repro.storage.machine import Machine
from repro.utils.units import KB
from tests.helpers import (
    assert_reference_volumes, checked_run, fresh_machine, small_fastbfs_config,
)

ENGINES = st.sampled_from(["fastbfs", "x-stream"])

#: Fig. 5's claim, whose ``holds`` property (i) is evaluated through.
FEWEST_INPUT_BYTES = next(
    claim for claim in FIGURES["fig5"].claims
    if claim.text == "FastBFS reads the least input data"
)

#: Fig. 9's in-memory claim, whose ``holds`` property (iii) is evaluated
#: through where a larger budget crosses the in-memory switch.
IN_MEMORY_CLIFF = next(
    claim for claim in FIGURES["fig9"].claims
    if claim.text.startswith("4GB turns on in-memory mode")
)


def budget(examples: int) -> settings:
    """Derandomized settings: ``examples`` under the default profile, scaled
    by the loaded profile's ``max_examples`` over the default's."""
    scale = settings().max_examples / settings.get_profile("default").max_examples
    return settings(
        max_examples=max(examples, round(examples * scale)),
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["rmat", "powerlaw", "path", "star"]))
    if kind == "rmat":
        return rmat_graph(
            scale=draw(st.integers(min_value=8, max_value=10)),
            edge_factor=draw(st.sampled_from([4, 16])),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
    if kind == "powerlaw":
        # twitter_rv's shape (graph/datasets.py): power-law in- and
        # out-degrees, then sparse depth whiskers.
        n = draw(st.integers(min_value=256, max_value=1024))
        seed = draw(st.integers(min_value=0, max_value=2**16))
        core = powerlaw_graph(
            n, n * draw(st.sampled_from([4, 16])),
            exponent=1.9, out_exponent=2.0, seed=seed,
        )
        return attach_whiskers(
            core, num_whiskers=max(4, n // 400), min_length=3, max_length=9,
            seed=seed + 7919,
        )
    if kind == "path":
        return path_graph(draw(st.integers(min_value=2, max_value=120)))
    return star_graph(draw(st.integers(min_value=1, max_value=400)))


@st.composite
def setups(draw, roots=1):
    """``(graph, roots, machine kwargs, config kwargs)``: roots have out-edges."""
    graph = draw(graphs())
    sources = np.flatnonzero(graph.out_degrees())
    picks = draw(st.lists(
        st.integers(min_value=0, max_value=len(sources) - 1),
        min_size=roots, max_size=roots,
    ))
    machine = {
        "num_disks": draw(st.sampled_from([1, 2])),
        "disk_kind": draw(st.sampled_from(["hdd", "ssd"])),
    }
    config = {"num_partitions": draw(st.sampled_from([1, 3, 4]))}
    return graph, [int(sources[i]) for i in picks], machine, config


def engine(name, num_disks, **config):
    """FastBFS rotates its streams over two disks (the paper's Fig. 10
    placement); X-Stream puts its update streams on the second one."""
    if name == "fastbfs":
        return FastBFSEngine(
            small_fastbfs_config(rotate_streams=num_disks == 2, **config)
        )
    return XStreamEngine(small_fastbfs_config(update_disk=num_disks - 1, **config))


def edge_and_stay_reads(result) -> int:
    roles = result.report.bytes_by_role()
    return sum(roles.get((role, "read"), 0) for role in ("edges", "stay"))


@budget(96)
@given(setups())
def test_fastbfs_reads_no_more_edge_bytes_than_xstream(setup):
    """Property (i), through Fig. 5's "FastBFS reads the least input data".

    The claim's own rows (``ComparisonRow``) carry every byte read from
    disk: input, vertex sets, updates and edges, so ``claim.check`` on them
    holds the claim as the figure states it.  The edge and stay bytes alone
    are no row attribute, so the claim's ``holds`` takes them directly, in
    the ``{engine: bytes}`` shape its cases produce.
    """
    graph, (root,), machine, config = setup
    results = {
        name: checked_run(
            engine(name, machine["num_disks"], **config), graph,
            fresh_machine(**machine), root,
        )
        for name in ("fastbfs", "x-stream")
    }
    assert results["fastbfs"].num_iterations == results["x-stream"].num_iterations
    rows = {
        graph.name: {
            name: ComparisonRow(graph.name, name, result)
            for name, result in results.items()
        }
    }
    ok, evidence = FEWEST_INPUT_BYTES.check(rows)
    assert ok, evidence
    reads = {name: edge_and_stay_reads(result) for name, result in results.items()}
    assert reads["x-stream"] > 0
    assert FEWEST_INPUT_BYTES.holds(reads), reads


def edges_scanned(setup, name):
    """``(per serial query, batched)`` edge records streamed for ``setup``."""
    graph, roots, machine, config = setup
    eng = engine(name, machine["num_disks"], **config)
    scanned = {
        mode: eng.run_many(graph, fresh_machine(**machine), roots, mode=mode)
        for mode in ("serial", "batched")
    }
    assert scanned["batched"].mode == "batched"
    for root, query in zip(roots, scanned["serial"].queries):
        assert_reference_volumes(graph, eng, root, query.iterations, query.extras)
    assert_reference_volumes(
        graph, eng, roots, scanned["batched"].shared_iterations,
        scanned["batched"].queries[0].extras,
    )
    serial = [query.edges_scanned for query in scanned["serial"].queries]
    return serial, scanned["batched"].edges_scanned


#: The smallest counterexample to the upper bound of (v) that Hypothesis
#: found: four roots on a 7-vertex path over four partitions; FastBFS
#: scans 8, 7, 4 and 1 edges serially and 22 batched.
PATH_OF_SEVEN = (
    path_graph(7), [0, 1, 3, 5],
    {"num_disks": 1, "disk_kind": "hdd"}, {"num_partitions": 4},
)


@pytest.mark.parametrize("name", [
    "x-stream",
    pytest.param("fastbfs", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a model finding (EXPERIMENTS.md, 'Batched FastBFS can scan "
               "more edges than its serial runs together'): a batch trims "
               "only the edges every live query is done with",
    )),
])
@budget(24)
@example(setup=PATH_OF_SEVEN)
@given(setup=setups(roots=4))
def test_batched_scan_lies_between_max_and_sum_of_serial(setup, name):
    """Property (v): one shared scan does at least the deepest query's work
    and never more than running every query alone.

    It holds for X-Stream.  FastBFS breaks the upper bound on paths split
    over several partitions, so its case is a strict xfail pinned to the
    counterexample above: it fails at once, and passing would flag a model
    change.  Its lower bound is held on its own below.
    """
    serial, batched = edges_scanned(setup, name)
    assert max(serial) <= batched <= sum(serial), (serial, batched)


@budget(24)
@given(setups(roots=4))
def test_batched_fastbfs_scans_at_least_its_deepest_query(setup):
    """The lower bound of property (v), which FastBFS does keep."""
    serial, batched = edges_scanned(setup, "fastbfs")
    assert max(serial) <= batched, (serial, batched)


def execution_time(name, machine, setup, **config):
    """Simulated seconds of ``name`` on ``machine`` for ``setup``'s graph
    and first root, with ``config`` over the setup's own."""
    graph, (root,), _, base = setup
    return checked_run(
        engine(name, len(machine.disks), **base, **config), graph, machine, root
    ).execution_time


#: The case that keeps (ii) non-strict: X-Stream's updates move to the
#: second disk and the time does not change by a bit.
STAR_ON_SSDS = (
    star_graph(390), [0], {"num_disks": 1, "disk_kind": "ssd"},
    {"num_partitions": 3},
)


@budget(96)
@example(setup=STAR_ON_SSDS, name="x-stream")
@given(setup=setups(), name=ENGINES)
def test_two_disks_are_never_slower_than_one(setup, name):
    """Property (ii), the non-strict form of Fig. 10's "two disks beat one
    disk which beats X-Stream".

    Same engine, partitions and graph, with :func:`engine`'s placement:
    FastBFS rotates its streams over both disks, X-Stream writes its
    updates to the second.  The claim's strict ``holds`` is not used: it is
    a FastBFS speedup on the paper's datasets, and X-Stream on a star
    (``STAR_ON_SSDS``) takes exactly as long on two disks as on one,
    because its update stream never waits on the edge stream there.
    """
    disk_kind = setup[2]["disk_kind"]
    one, two = (
        execution_time(name, fresh_machine(num_disks=n, disk_kind=disk_kind), setup)
        for n in (1, 2)
    )
    assert two <= one, (one, two)


def faster_disks(k: float, num_disks: int, disk_kind: str) -> Machine:
    """``fresh_machine`` with every disk's read and write bandwidth times
    ``k`` (seek times, memory and cores unchanged)."""
    base = fresh_machine(num_disks=num_disks, disk_kind=disk_kind)
    specs = [
        replace(
            dev.spec,
            read_bandwidth=dev.spec.read_bandwidth * k,
            write_bandwidth=dev.spec.write_bandwidth * k,
        )
        for dev in base.disks
    ]
    return Machine(specs, memory=base.memory_bytes, cores=base.cores)


@budget(96)
@given(setup=setups(), name=ENGINES, k=st.sampled_from([1.5, 2, 4]))
def test_faster_disks_never_slow_a_traversal(setup, name, k):
    """Property (iv), the non-strict form of Fig. 7's "SSD is faster than
    HDD for all three systems".

    The claim's strict ``holds`` is not used: an SSD also seeks a hundred
    times faster, and the claim is a measured gap on the paper's datasets.
    Here only bandwidth changes, and the property asks only that it never
    hurts.  That is where a FIFO model with cancellation could break: a
    faster read brings a partition's scatter sooner, which can cancel more
    stay writes and so read more bytes later.
    """
    machine = setup[2]
    before = execution_time(name, fresh_machine(**machine), setup)
    after = execution_time(name, faster_disks(k, **machine), setup)
    assert after <= before, (before, after)


@budget(96)
@given(setup=setups(), name=ENGINES)
def test_threads_beyond_the_cores_never_help(setup, name):
    """Property (vi), the non-strict form of Fig. 8's "threads beyond core
    count degrade slightly".

    ``fresh_machine`` has 4 cores, so 8 threads run on 4.  The claim's
    strict ``holds`` is not used: "degrade" is the calibrated
    per-thread synchronization cost (``CostModel.thread_sync_per_buffer``),
    and the property asks only that oversubscription never buys time.
    """
    four, eight = (
        execution_time(name, fresh_machine(**setup[2]), setup, threads=threads)
        for threads in (4, 8)
    )
    assert eight >= four, (four, eight)


#: Two working-memory budgets, smaller first: on the graphs above they plan
#: 1 to 8 partitions, and the larger ones cross into in-memory mode.
MEMORY = st.lists(
    st.sampled_from([4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB]),
    min_size=2, max_size=2, unique=True,
).map(sorted)

#: The smallest counterexample for FastBFS that Hypothesis found: doubling
#: the budget halves the partitions (4 -> 2) and adds two staging seeks.
RMAT9_ON_ONE_HDD = (
    rmat_graph(scale=9, edge_factor=16, seed=1), [0],
    {"num_disks": 1, "disk_kind": "hdd"}, {},
)


@pytest.mark.parametrize("name", [
    "x-stream",
    pytest.param("fastbfs", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a model finding (EXPERIMENTS.md, 'More memory can make "
               "FastBFS slower'): staging's seeks and the query's skipped "
               "partitions both depend on the partition count",
    )),
])
@budget(64)
@example(setup=RMAT9_ON_ONE_HDD, memory=[4 * KB, 8 * KB])
@given(setup=setups(), memory=MEMORY)
def test_more_memory_is_never_slower_out_of_core(setup, memory, name):
    """Property (iii): a larger memory budget never makes an out-of-core
    traversal slower (Fig. 9's flat 256MB-2GB line, non-strict).

    The partitions are planned from the budget (no ``num_partitions``
    override); the engines stay out of core (``allow_in_memory=False``).
    Crossing into in-memory mode is :func:`test_crossing_into_memory`.

    It holds for X-Stream.  FastBFS breaks it (``RMAT9_ON_ONE_HDD``), so
    its case is a strict xfail pinned to that counterexample.
    """
    smaller, larger = sweep_memory(setup, memory, name)["time"]
    assert larger <= smaller, (memory, smaller, larger)


def sweep_memory(setup, memory, name, **config):
    """Fig. 9's sweep of ``name`` over the budgets ``memory``: each run's
    simulated time and in-memory flag, partitions planned from the budget."""
    graph, (root,), machine, _ = setup
    runs = [
        checked_run(
            engine(name, machine["num_disks"], num_partitions=None, **config),
            graph, fresh_machine(memory=budget_bytes, **machine), root,
        )
        for budget_bytes in memory
    ]
    return {
        "time": [run.execution_time for run in runs],
        "in_memory": [run.extras["in_memory"] for run in runs],
    }


#: A counterexample to the in-memory cliff for both engines: Hypothesis
#: shrank FastBFS's to this star (4KB out of core, 8KB in memory, 0.66 of
#: the out-of-core time) and X-Stream's to ``star_graph(147)`` at 8KB ->
#: 16KB (0.63); X-Stream breaks it here too (0.63).
STAR74_ON_ONE_SSD = (
    star_graph(74), [0], {"num_disks": 1, "disk_kind": "ssd"}, {},
)

#: Why the crossing case is a strict xfail for either engine.
IN_MEMORY_FINDING = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="a model finding (EXPERIMENTS.md, 'In-memory mode saves less "
           "than the cliff claims on small graphs'): in-memory mode removes "
           "I/O wait only, and there compute is over half the time",
)


@pytest.mark.parametrize("name", [
    pytest.param("x-stream", marks=IN_MEMORY_FINDING),
    pytest.param("fastbfs", marks=IN_MEMORY_FINDING),
])
@budget(64)
@example(setup=STAR74_ON_ONE_SSD, memory=[4 * KB, 8 * KB])
@given(setup=setups(), memory=MEMORY)
def test_crossing_into_memory(setup, memory, name):
    """Property (iii)'s other half: where the larger budget crosses into
    in-memory mode, Fig. 9's "4GB turns on in-memory mode and drops
    execution time sharply" applies as stated and is evaluated through its
    ``holds``.  Sweeps that do not cross are outside it."""
    sweep = sweep_memory(setup, memory, name, allow_in_memory=True)
    assume(sweep["in_memory"] == [0.0, 1.0])
    assert IN_MEMORY_CLIFF.holds(sweep), sweep


#: Every kernel with ``supports_trimming``, by the batch width it runs at
#: (1: a serial kernel, whose one slot may hold several roots).
TRIMMING_KERNELS = {
    "bfs": (BFSAlgorithm, 1),
    "unit-sssp": (UnitSSSPAlgorithm, 1),
    "batched-2": (lambda: BatchedBFSAlgorithm(2), 2),
    "batched-64": (lambda: BatchedBFSAlgorithm(64), 64),
}


def selected_after_elimination(kernel, graph, slots) -> int:
    """Run ``kernel`` from ``slots`` (one root set per query) over
    ``graph`` as one partition scanned whole, pass by pass in the engines'
    order, and count the updates it generates from edges it eliminated in
    an earlier pass."""
    roots = slots if isinstance(kernel, BatchedBFSAlgorithm) else slots[0]
    state = kernel.init_state(graph.num_vertices, roots)
    src, dst = graph.edges["src"], graph.edges["dst"]
    src_local = src.astype(np.int64)
    dead = np.zeros(graph.num_edges, dtype=bool)
    late = 0
    for iteration in range(graph.num_vertices + 1):
        ctx = AlgoContext(iteration)
        updates, sources, eliminate = kernel.scatter(
            ctx, state, src_local, src, dst
        )
        late += int(np.count_nonzero(dead[sources]))
        dead |= eliminate
        state["active"][:] = 0
        kernel.after_partition_scatter(ctx, state)
        if not len(updates):
            return late
        kernel.gather(
            ctx, state, updates["dst"].astype(np.int64),
            kernel.gather_payload(updates),
        )
        kernel.after_gather(ctx, state)
    raise AssertionError("the traversal did not converge")


@st.composite
def trimming_runs(draw):
    """``(kernel name, graph, slots)``: each slot one to three roots."""
    name = draw(st.sampled_from(sorted(TRIMMING_KERNELS)))
    graph = draw(graphs())
    vertex = st.integers(min_value=0, max_value=graph.num_vertices - 1)
    width = TRIMMING_KERNELS[name][1]
    slots = draw(st.lists(
        st.lists(vertex, min_size=1, max_size=3),
        min_size=width, max_size=width,
    ))
    return name, graph, [np.array(slot, dtype=np.int64) for slot in slots]


@budget(96)
@given(trimming_runs())
def test_an_eliminated_edge_is_never_selected_again(run):
    """Property (vii).  X-Stream's rescans hand the kernel only the edges
    it has not eliminated (``repro.engines.base._HeldEdges``), so an edge
    that broke this would lose its update there, as a trimmed one would
    in FastBFS's stay file."""
    name, graph, slots = run
    kernel = TRIMMING_KERNELS[name][0]()
    assert selected_after_elimination(kernel, graph, slots) == 0


def test_every_trimming_kernel_is_held_to_the_elimination_property():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    trimming = {
        cls for cls in subclasses(StreamingAlgorithm)
        if cls.supports_trimming and cls.__module__.startswith("repro.")
    }
    held = {type(make()) for make, _ in TRIMMING_KERNELS.values()}
    assert trimming == held


class _ForgetfulBFS(BFSAlgorithm):
    """Breaks the contract: eliminates every edge it scans."""

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        updates, sources, _ = super().scatter(
            ctx, state, src_local, src_global, dst_global
        )
        return updates, sources, np.ones(len(src_local), dtype=bool)


def test_the_elimination_check_catches_a_kernel_that_breaks_it():
    slots = [np.array([0], dtype=np.int64)]
    assert selected_after_elimination(BFSAlgorithm(), path_graph(5), slots) == 0
    assert selected_after_elimination(_ForgetfulBFS(), path_graph(5), slots) == 3
