"""The contract matrix: every engine x kernel x scenario, down every query path.

FastBFS's claim is that trimming, stay-file swaps and cancellation change
what it reads and writes, never its answer (PAPER.md §II-C), and the
query paths built on the engines promise more: serial == batched ==
served, traced == untraced, crash-recovered == clean.  One seeded table
checks all of it.  Rows are (engine, kernel, scenario): every
:data:`~repro.analysis.calibration.ENGINES` row, the :data:`KERNELS`,
and scenarios that cross the axes the engines special-case.  Columns are
the query paths, one :class:`Cell` method each (docs/correctness_tooling.md
"Contracts" has the table).  Every cell checks its answers against the
in-memory reference (BFS levels and parents through the one held
:class:`~repro.algorithms.validation.BFSAnswerChecker`, under the
Graph500 rules as Buluç et al., arXiv 1705.04590, check a BFS), the
edge-centric rows' BFS passes against the volumes the checker
derives from the reference levels (``BFSAnswerChecker.pass_volumes``),
the machine's counters against its report, and its report against the
``run`` query's where the path's contract says they are equal.  The BFS ``run`` column covers every
scenario (``tests/test_differential.py``); the full rows run on a seeded
deal of them that still covers every axis (:data:`CELL_SCENARIOS`).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankAlgorithm, reference_pagerank
from repro.algorithms.reference import bfs_levels
from repro.algorithms.sssp import WeightedSSSPAlgorithm, reference_sssp
from repro.algorithms.streaming import BFSAlgorithm, UnitSSSPAlgorithm, WCCAlgorithm
from repro.algorithms.validation import BFSAnswerChecker
from repro.analysis.calibration import ENGINES
from repro.engines.base import EdgeCentricEngine
from repro.engines.graphchi import GraphChiConfig
from repro.engines.session import run_staged_queries, run_with_recovery
from repro.errors import ConfigError, EngineError
from repro.graph.generators import (
    attach_whiskers, grid_graph, powerlaw_graph, random_graph, rmat_graph, star_graph,
)
from repro.graph.graph import Graph
from repro.obs import CounterRegistry
from repro.obs.tracer import Tracer
from repro.serve import ArtifactRegistry
from repro.storage.faults import FaultPlan, FaultSpec
from tests.helpers import assert_reference_volumes, fresh_machine, small_fastbfs_config

# ----------------------------------------------------------------------
# Scenarios (deterministic in the scenario index)
# ----------------------------------------------------------------------
NUM_SCENARIOS = 33

GRAPH_KINDS = (
    "random", "powerlaw", "rmat", "grid", "selfloop", "disconnected",
    "star-in", "whiskered", "rmat-sym",
)


def _kind_for(i: int) -> str:
    """Scenarios 0-29 take the first six kinds in turn, the turn shifted
    by one every six scenarios so that each kind meets every trimming
    mode and both disk counts of :func:`_config_for` (whose axes repeat
    every 2 and 3 scenarios); 30-32 add one kind each."""
    return GRAPH_KINDS[(i + i // 6) % 6] if i < 30 else GRAPH_KINDS[i - 24]


def _graph_for(i: int) -> Graph:
    kind = _kind_for(i)
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
        loops = np.random.RandomState(seed).randint(0, base.num_vertices, size=40)
        return Graph.from_arrays(
            base.num_vertices, np.concatenate([base.edges["src"], loops]),
            np.concatenate([base.edges["dst"], loops]), name=f"selfloop{i}")
    if kind == "disconnected":
        # Two random blocks with no cross edges, plus isolated tail
        # vertices that appear in no edge at all.
        a = random_graph(120, 700, seed=seed)
        b = random_graph(60, 300, seed=seed + 1)
        n = a.num_vertices
        return Graph.from_arrays(
            n + b.num_vertices + 10,
            np.concatenate([a.edges["src"], b.edges["src"] + n]),
            np.concatenate([a.edges["dst"], b.edges["dst"] + n]),
            name=f"disconnected{i}")
    if kind == "star-in":
        # Every leaf points at the hub, which has no out-edge.
        return star_graph(64, out=False)
    if kind == "whiskered":
        # A dense core with long thin paths: many nearly-empty levels.
        return attach_whiskers(rmat_graph(scale=8, edge_factor=8, seed=seed),
                               12, 3, 6, seed=seed + 1)
    return rmat_graph(scale=8, edge_factor=4, seed=seed).symmetrized()


def _config_for(i: int):
    # Trim thresholds cycle through off / immediate / delayed / triggered;
    # stays go to the second disk by rotation (i % 4 == 1) or pinned there
    # (i % 4 == 3), both only on two-disk placements.
    return small_fastbfs_config(
        num_partitions=1 + i % 5,
        trim_enabled=(i % 3 != 2),
        trim_start_iteration=i % 4,
        trim_trigger_fraction=(0.0, 0.2, 0.5)[i % 3],
        cancellation_grace=(0.0, 0.001, 0.01)[(i // 2) % 3],
        selective_scheduling=bool(i % 2),
        extended_trim=bool((i // 3) % 2),
        rotate_streams=(i % 4 == 1),
        stay_disk=(1 if i % 4 == 3 else None),
    )


def _placement_for(i: int):
    """(num_disks, memory_kb): one or two disks, always out of core."""
    return 1 + i % 2, (64, 256, 1024)[i % 3]


def _roots_for(graph: Graph, i: int) -> list:
    """The scenario's root, then a second root for the two-root paths,
    taking turns: the same root again (identical slots), a dead end (an
    early-converging query) where the graph has one, or the biggest hub
    other than the root (two deep traversals sharing each pass)."""
    deg = graph.out_degrees()
    candidates = np.flatnonzero(deg > 0)
    if i % 4 == 0 or not len(candidates):
        root = int(np.argmax(deg))
    else:
        root = int(candidates[i % len(candidates)])
    dead = np.flatnonzero(deg == 0)
    turn = ("same", "dead", "hub")[(i + i // 3) % 3]
    if turn == "same":
        return [root, root]
    if turn == "dead" and len(dead):
        return [root, int(dead[i % len(dead)])]
    hubs = np.argsort(-deg, kind="stable")
    return [root, int(hubs[0] if hubs[0] != root else hubs[1])]


#: Each ENGINES row on a scenario: ``(config, num_disks)`` from the
#: scenario's FastBFS config and disks.  A new ENGINES row fails
#: ``test_every_engine_has_a_row`` until it gets one here.
ENGINE_ROWS = {
    "fastbfs": lambda cfg, disks: (cfg, disks),
    # The paper's Fig. 10 placement: two disks, streams rotated.
    "fastbfs-2disk": lambda cfg, disks: (replace(cfg, rotate_streams=True), 2),
    "x-stream": lambda cfg, disks: (cfg, disks),
    # The case's partition count is GraphChi's shard count, its
    # selective-scheduling flag GraphChi's interval scheduler's.
    "graphchi": lambda cfg, disks: (
        GraphChiConfig(num_shards=cfg.num_partitions,
                       selective_scheduling=cfg.selective_scheduling),
        disks,
    ),
}

PAGERANK_ROUNDS = 3

#: Each kernel, built for its input graph.
KERNELS = {
    "bfs": lambda graph: BFSAlgorithm(),
    "unit-sssp": lambda graph: UnitSSSPAlgorithm(),
    "sssp": lambda graph: WeightedSSSPAlgorithm(),
    "pagerank": lambda graph: PageRankAlgorithm(graph.out_degrees(),
                                                rounds=PAGERANK_ROUNDS),
    "wcc": lambda graph: WCCAlgorithm(),
}

#: Kernels with a batched (MS-BFS) kernel; the rest run a batched call
#: serially and say so in ``extras["batched_fallback"]``.
BATCHED_KERNELS = ("bfs", "unit-sssp")

#: The kernels GraphChi's PSW relaxes; the rest are typed rejections.
GRAPHCHI_KERNELS = ("bfs", "wcc")

#: The query paths, in the order a cell runs them.
COLUMNS = ("run", "serial", "batched", "flush", "traced", "crash", "transient")

#: Seed of the deal of scenarios to the full rows (:func:`_deal`).
CELL_SEED = 12


def _deal() -> dict:
    """The scenarios each kernel's full rows run on: a seeded shuffle of
    all of them, dealt six to BFS and three to every other kernel."""
    order = np.random.RandomState(CELL_SEED).permutation(NUM_SCENARIOS).tolist()
    dealt = {"bfs": order[:6]}
    rest = [kernel for kernel in KERNELS if kernel != "bfs"]
    for k, kernel in enumerate(rest):
        dealt[kernel] = order[6 + 3 * k:9 + 3 * k]
    return {kernel: sorted(cases) for kernel, cases in dealt.items()}


CELL_SCENARIOS = _deal()

#: Transient faults: dense enough that every cell meets some, inside a
#: retry budget no request of the matrix exhausts.
TRANSIENT_PROBABILITY = 0.2
TRANSIENT_ATTEMPTS = 10


# ----------------------------------------------------------------------
# The reference and the checks every cell shares
# ----------------------------------------------------------------------
def _input_for(kernel: str, i: int) -> Graph:
    graph = _graph_for(i)
    return graph.symmetrized() if kernel == "wcc" else graph


def _reference(kernel: str, graph: Graph, root: int) -> np.ndarray:
    """The in-memory answer of ``kernel`` on ``graph`` from ``root``; BFS
    answers (unit SSSP's too) go through the :class:`BFSAnswerChecker`."""
    if kernel == "sssp":
        return reference_sssp(graph, root)
    if kernel == "pagerank":
        return reference_pagerank(graph, PAGERANK_ROUNDS)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(zip(graph.edges["src"].tolist(), graph.edges["dst"].tolist()))
    labels = np.empty(graph.num_vertices, dtype=np.uint32)
    for component in nx.connected_components(nxg):
        labels[list(component)] = min(component)
    return labels


def _assert_answer(kernel, expected, result, where) -> None:
    if kernel == "sssp":
        assert np.array_equal(result.output["distance"], expected), where
    elif kernel == "pagerank":
        # Float32 sums in stream order against the oracle's edge order.
        np.testing.assert_allclose(result.output["rank"], expected, rtol=1e-5, err_msg=where)
    else:
        assert np.array_equal(result.output["label"], expected), where


def _assert_reconciles(machine, report) -> None:
    """The machine's counters equal ``report`` bit for bit: per device,
    per stream role, and in the persistent-device totals."""
    registry = CounterRegistry.from_machine(machine)
    errors = registry.reconcile(report)
    assert errors == [], "\n".join(errors)
    for dev in report.devices:
        for kind, value in (("read", dev.bytes_read), ("write", dev.bytes_written)):
            assert registry.total("device_bytes_total", device=dev.name, kind=kind) == value
    persistent = [d for d in report.devices if d.kind != "ram"]
    assert sum(d.bytes_total for d in persistent) == report.bytes_total
    assert CounterRegistry.from_report(report).reconcile(report) == []


def _assert_same_output(result, other, where) -> None:
    """Every output array of ``result`` is ``other``'s, parents included."""
    assert result.output.keys() == other.output.keys(), where
    for key, values in result.output.items():
        assert np.array_equal(values, other.output[key]), f"{where}: {key}"


def _device_bytes(report) -> list:
    return [(d.name, d.bytes_read, d.bytes_written, d.bytes_by_role)
            for d in report.devices]


# ----------------------------------------------------------------------
# One row of the matrix, one method per column
# ----------------------------------------------------------------------
class Cell:
    """One (engine, kernel, scenario) row; each column method runs its
    path on fresh machines and checks it.  Later columns compare with
    what ``run``, ``serial`` and ``batched`` left on the row."""

    def __init__(self, engine_name: str, kernel: str, case: int) -> None:
        disks, memory_kb = _placement_for(case)
        self.config, disks = ENGINE_ROWS[engine_name](_config_for(case), disks)
        self.engine_name, self.kernel, self.case = engine_name, kernel, case
        self.engine = ENGINES[engine_name].engine(self.config)
        self.num_disks = disks
        self.new_machine = partial(fresh_machine, num_disks=disks,
                                   memory=memory_kb * 1024)
        self.graph = _input_for(kernel, case)
        self.roots = _roots_for(self.graph, case)
        self.runs = engine_name != "graphchi" or kernel in GRAPHCHI_KERNELS
        self.batches = (kernel in BATCHED_KERNELS
                        and isinstance(self.engine, EdgeCentricEngine))
        self._expected: dict = {}
        self.checker = (BFSAnswerChecker(self.graph)
                        if kernel in ("bfs", "unit-sssp") else None)
        #: The edge-centric BFS passes have the checker's volume formula.
        self.volumes = self.checker is not None and isinstance(
            self.engine, EdgeCentricEngine)

    def algorithm(self):
        return KERNELS[self.kernel](self.graph)

    def check(self, root: int, result, column: str, same_as=None,
              report=None) -> None:
        """``result`` is the reference answer from ``root``, and a query
        of its own reads the volumes the levels give (a batch's slot
        shares its passes: :meth:`check_volumes`); given ``same_as``, it
        is also that query bit for bit: every output array (parents
        included), every pass, and ``report`` (default ``same_as``'s)."""
        where = (f"{self.engine_name}/{self.kernel}/scenario {self.case}/"
                 f"{column} root {root}")
        if self.checker is not None:
            verdict = self.checker.check(root, result.levels, result.parents)
            assert verdict.ok, f"{where}: {verdict.errors}"
            if "query_slot" not in result.extras:
                self.check_volumes(root, result.iterations, result.extras, where)
        else:
            if root not in self._expected:
                self._expected[root] = _reference(self.kernel, self.graph, root)
            _assert_answer(self.kernel, self._expected[root], result, where)
        if same_as is None:
            return
        _assert_same_output(result, same_as, where)
        assert result.iterations == same_as.iterations, where
        report = same_as.report if report is None else report
        assert result.report.to_dict() == report.to_dict(), where

    def check_volumes(self, roots, iterations, extras, where) -> None:
        """The passes read the volume formula's for ``roots`` (several:
        one batch) and the run's stay cancellations."""
        if self.volumes:
            assert_reference_volumes(self.graph, self.engine, roots,
                                     iterations, extras)

    def run_query(self, machine):
        return self.engine.run(self.graph, machine,
                               algorithm=self.algorithm(), root=self.roots[0])

    def run_batch(self, machine):
        return self.engine.run_many(self.graph, machine, roots=self.roots,
                                    algorithm=self.algorithm(), mode="batched")

    def crashing_machine(self, after_index: int):
        """A traced machine, its graph staged, then a crash point armed."""
        machine = self.new_machine()
        machine.attach_tracer(Tracer())
        staged = self.engine.stage(self.graph, machine,
                                   algorithm=self.algorithm())
        machine.attach_fault_plan(FaultPlan.crash_point(after_index))
        return machine, staged

    # ------------------------------------------------------------------
    def run(self) -> None:
        """``engine.run`` on a fresh machine: the row's reference path."""
        machine = self.new_machine()
        self.result = self.run_query(machine)
        self.check(self.roots[0], self.result, "run")
        _assert_reconciles(machine, self.result.report)

    def serial(self) -> None:
        """``run_many`` in its default (serial) mode: its first query is
        the ``run`` query after the staging they share, report and all;
        a repeated root is the same query again."""
        machine = self.new_machine()
        batch = self.engine.run_many(self.graph, machine, roots=self.roots,
                                     algorithm=self.algorithm())
        assert batch.mode == "serial" and batch.num_queries == 2
        #: What the ``run`` query itself cost: its report after staging.
        self.query_report = self.result.report.minus(batch.staging_report)
        first, second = batch.queries
        self.check(self.roots[0], first, "serial", same_as=self.result,
                   report=self.query_report)
        self.check(self.roots[1], second, "serial",
                   same_as=first if self.roots[1] == self.roots[0] else None)
        assert [q.query_index for q in batch.queries] == [0, 1]
        _assert_reconciles(machine, machine.report())
        self.serial_batch = batch

    def batched(self) -> None:
        """``run_many(mode="batched")`` on the two roots: one shared
        timeline where the kernel has a batched form on this engine,
        else the serial queries under ``extras["batched_fallback"]``."""
        machine = self.new_machine()
        batch = self.run_batch(machine)
        serial = self.serial_batch
        for q, (root, mine) in enumerate(zip(self.roots, batch.queries)):
            theirs = serial.queries[q]
            if self.batches:
                self.check(root, mine, "batched")
                _assert_same_output(mine, theirs, f"batched root {root}")
                assert mine.num_iterations == theirs.num_iterations
                assert mine.updates_generated == theirs.updates_generated
            else:
                self.check(root, mine, "batched", same_as=theirs)
            assert mine.query_index == q
        if self.batches:
            assert batch.mode == "batched"
            assert "batched_fallback" not in batch.extras
            assert batch.extras["num_batches"] == len(batch.batch_times) == 1
            self.check_volumes(self.roots, batch.shared_iterations,
                               batch.queries[0].extras, "batched")
        else:
            assert batch.mode == "serial"
            assert batch.extras["batched_fallback"] == 1.0
            assert batch.total_time == serial.total_time
        _assert_reconciles(machine, machine.report())
        self.batched_batch = batch

    def flush(self) -> None:
        """One ``AdmissionController`` flush of one ticket, without HTTP:
        the served query is the ``run`` query.  GraphChi is not servable."""
        kwargs = dict(engine=self.engine_name, config=self.config,
                      machine_factory=self.new_machine)
        if not isinstance(self.engine, EdgeCentricEngine):
            with pytest.raises(ConfigError, match="not servable"):
                ArtifactRegistry(**kwargs)
            return
        entry = ArtifactRegistry(**kwargs).register("g", self.graph)
        # A BFS ticket carries no kernel: it is the one that can batch.
        kernel = None if self.kernel == "bfs" else self.algorithm()
        ticket = entry.admission.offer("r0", self.roots[0], algorithm=kernel)
        record = entry.admission.flush()
        assert ticket.error is None and record.size == 1
        assert ticket.flush_mode == ("batched" if kernel is None else "serial")
        assert record.report is ticket.result.report
        self.check(self.roots[0], ticket.result, "flush", same_as=self.result,
                   report=self.query_report)
        _assert_reconciles(entry.machine, entry.machine.report())

    def traced(self) -> None:
        """A ``Tracer`` on the machine changes no byte and no second of
        the ``run`` query, nor of the batched one."""
        machine = self.new_machine()
        self.tracer = Tracer()
        machine.attach_tracer(self.tracer)
        result = self.run_query(machine)
        self.check(self.roots[0], result, "traced", same_as=self.result)
        assert len(self.tracer.find("query")) == 1
        if self.batches:
            machine = self.new_machine()
            machine.attach_tracer(Tracer())
            batch = self.run_batch(machine)
            assert batch.total_time == self.batched_batch.total_time
            for root, mine, theirs in zip(self.roots, batch.queries,
                                          self.batched_batch.queries):
                self.check(root, mine, "traced batch", same_as=theirs)
            self.check_volumes(self.roots, batch.shared_iterations,
                               batch.queries[0].extras, "traced batch")

    def crash(self) -> None:
        """A crash point halfway through the query, attached after
        staging, replayed by ``run_with_recovery`` (and a two-root batch
        by ``run_staged_queries``, the serving layer's front door): the
        recovered queries are the clean ones; the trace keeps the crash
        and the replay."""
        (query,) = self.tracer.find("query")
        requests = [s for s in self.tracer.io_spans() if s.start >= query.start]
        # Each disk counts its own requests: some disk reaches this index.
        after_index = len(requests) // (2 * self.num_disks)
        machine, staged = self.crashing_machine(after_index)
        session = self.engine.session(staged, self.algorithm())
        (result,) = run_with_recovery(
            session, lambda: [session.run(root=self.roots[0])], 1
        )
        self.check(self.roots[0], result, "crash", same_as=self.result,
                   report=self.query_report)
        assert result.extras["recovered"] == 1.0
        _assert_one_crash_recovered(machine)
        if self.batches:
            machine, staged = self.crashing_machine(after_index)
            batch = run_staged_queries(
                self.engine, staged, machine.checkpoint(), self.roots,
                algorithm=self.algorithm(), mode="batched", max_recoveries=1,
            )
            for root, mine, theirs in zip(self.roots, batch.queries,
                                          self.batched_batch.queries):
                self.check(root, mine, "crash batch", same_as=theirs)
                assert mine.extras["recovered"] == 1.0
            self.check_volumes(self.roots, batch.shared_iterations,
                               batch.queries[0].extras, "crash batch")
            _assert_one_crash_recovered(machine)

    def transient(self) -> None:
        """Transient faults on every disk, staging included, all retried
        within the plan's ``max_attempts``: the answer and every byte are
        the ``run``'s; only the backoff waits add time."""
        machine = self.new_machine()
        machine.attach_fault_plan(FaultPlan(
            specs=(FaultSpec(kind="transient_error",
                             probability=TRANSIENT_PROBABILITY),),
            seed=self.case, max_attempts=TRANSIENT_ATTEMPTS,
        ))
        result = self.run_query(machine)
        self.check(self.roots[0], result, "transient")
        _assert_same_output(result, self.result, "transient")
        injector = machine.fault_injector
        faults = injector.total("fault_transient_error")
        assert faults > 0 and injector.total("io_retries") == faults
        assert injector.total("io_giveups") == 0
        assert _device_bytes(result.report) == _device_bytes(self.result.report)
        assert result.report.execution_time > self.result.report.execution_time
        _assert_reconciles(machine, result.report)

    # ------------------------------------------------------------------
    def rejected(self) -> None:
        """A kernel the engine does not run is a typed error before the
        machine is touched, through either front door."""
        machine = self.new_machine()
        for call in (self.run_query, self.run_batch):
            with pytest.raises(EngineError, match=self.kernel):
                call(machine)
            assert machine.clock.now == 0.0 and len(machine.vfs) == 0


def _assert_one_crash_recovered(machine) -> None:
    injector = machine.fault_injector
    assert injector.total("fault_crash") == injector.total("crash_recoveries") == 1
    names = [s.name for s in machine.tracer.spans]
    assert names.count("crash") == names.count("recover") == 1
    # The trace keeps the crashed attempt's device requests; the rewound
    # timelines, and so the byte counters, do not.
    io_bytes = sum(s.attrs["bytes"] for s in machine.tracer.io_spans())
    assert io_bytes > machine.counters().total("device_bytes_total")


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name, kernel, case", [
    (engine_name, kernel, case)
    for kernel, cases in CELL_SCENARIOS.items()
    for case in cases
    for engine_name in ENGINE_ROWS
])
def test_contract_cell(engine_name, kernel, case):
    cell = Cell(engine_name, kernel, case)
    if not cell.runs:
        cell.rejected()
        return
    for column in COLUMNS:
        getattr(cell, column)()


# ----------------------------------------------------------------------
# The matrix's own shape
# ----------------------------------------------------------------------
def test_every_engine_has_a_row():
    """A new ENGINES row fails here until the matrix runs it."""
    assert set(ENGINE_ROWS) == set(ENGINES)


def _second_root(i: int) -> str:
    graph = _graph_for(i)
    root, second = _roots_for(graph, i)
    if second == root:
        return "same"
    return "dead" if graph.out_degrees()[second] == 0 else "hub"


def test_scenarios_cover_the_advertised_axes():
    """The scenarios, and the subset the full rows run on, really span
    the axes the module docstring names."""
    dealt = sorted({i for cases in CELL_SCENARIOS.values() for i in cases})
    for cases in (range(NUM_SCENARIOS), dealt):
        configs = [_config_for(i) for i in cases]
        placements = [_placement_for(i) for i in cases]
        assert {_kind_for(i) for i in cases} == set(GRAPH_KINDS)
        assert {c.trim_enabled for c in configs} == {True, False}
        assert len({c.trim_start_iteration for c in configs}) >= 3
        assert len({c.trim_trigger_fraction for c in configs}) >= 2
        assert len({c.cancellation_grace for c in configs}) == 3
        assert {c.selective_scheduling for c in configs} == {True, False}
        assert {c.extended_trim for c in configs} == {True, False}
        assert {c.num_partitions for c in configs} >= {1, 2, 4}
        assert {p[0] for p in placements} == {1, 2}
        assert {p[1] for p in placements} == {64, 256, 1024}
        # Stays leave the first disk by rotation and by a pinned disk.
        assert any(c.rotate_streams for c in configs)
        assert any(c.stay_disk == 1 and not c.rotate_streams for c in configs)
        # The second root is the same root, a dead end or another hub.
        assert {_second_root(i) for i in cases} == {"same", "dead", "hub"}
    for kernel in BATCHED_KERNELS:
        # Every batched kernel shares a batch between two deep queries.
        assert "hub" in {_second_root(i) for i in CELL_SCENARIOS[kernel]}
    for kind in GRAPH_KINDS[:6]:
        # Every kind of the first 30 meets both disk counts and every
        # trimming mode (off, immediate, delayed by a trigger fraction).
        cases = [i for i in range(30) if _kind_for(i) == kind]
        assert {_placement_for(i)[0] for i in cases} == {1, 2}, kind
        assert {i % 3 for i in cases} == {0, 1, 2}, kind
    for i in range(NUM_SCENARIOS):
        # A stay stream placed on the second disk always has one.
        cfg = _config_for(i)
        if cfg.rotate_streams or cfg.stay_disk is not None:
            assert _placement_for(i)[0] == 2

    graphs = {_kind_for(i): _graph_for(i) for i in range(NUM_SCENARIOS)}
    loopy = graphs["selfloop"]
    assert (loopy.edges["src"] == loopy.edges["dst"]).any()
    disc = graphs["disconnected"]
    assert (bfs_levels(disc, int(np.argmax(disc.out_degrees()))) < 0).any()
    star = graphs["star-in"]
    assert star.out_degrees()[0] == 0 and (star.edges["dst"] == 0).all()


def test_pinned_stay_disk_writes_stays_to_the_second_disk():
    """The pinned ``stay_disk`` scenarios put their stays on ``hdd1``."""
    cases = [i for i in range(NUM_SCENARIOS)
             if _config_for(i).stay_disk == 1
             and _config_for(i).trim_enabled]
    assert cases
    for i in cases:
        cell = Cell("fastbfs", "bfs", i)
        cell.run()
        (hdd0, hdd1) = cell.result.report.devices[:2]
        roles = {role for role, _ in hdd1.bytes_by_role}
        assert "stay" in roles and not any(
            role == "stay" for role, _ in hdd0.bytes_by_role
        ), (i, hdd0.bytes_by_role, hdd1.bytes_by_role)
