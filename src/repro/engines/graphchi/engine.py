"""GraphChi BFS execution: parallel sliding windows over sorted shards.

One iteration processes every *scheduled* interval in order.  For interval
*j*:

* read interval *j*'s vertex values;
* read shard *j* (the memory shard) in full — these are *j*'s in-edges —
  and pay the per-load shard assembly sort the paper calls out ("the
  computing-intensive sorting operation needed for every sharding", §I);
* read the sliding window of every other shard (the block of its edges
  whose source lies in interval *j*);
* run the vertex update function (asynchronous: values written by earlier
  intervals of the same iteration are visible, so GraphChi converges in
  fewer passes than a BSP engine);
* write back the *edge values* (4 bytes per touched edge — GraphChi's
  adjacency structure is immutable, only the value columns are dirty) and
  the vertex values, when anything improved.

Selective scheduling (GraphChi's own, dynamic): when a vertex improves, the
intervals holding its out-edges are scheduled — within the *same* pass if
they come later in interval order, otherwise for the next pass; iteration
stops when nothing is scheduled.  For BFS the update function is the
label-correcting relaxation ``level[v] = min(level[v], min over in-edges
(level[u] + 1))``; at the fixpoint levels equal true BFS levels.

Despite fewer iterations and scheduling, GraphChi loses on this workload:
each touched edge moves ~record+value bytes both ways per pass, the window
reads seek once per (interval, shard) pair, and the per-load sort burns CPU
— which is also why its measured iowait *ratio* sits below the streaming
engines' (paper Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.algorithms.streaming import StreamingAlgorithm
from repro.engines.base import Engine, _RunState
from repro.engines.costs import COST_MODEL
from repro.engines.graphchi.shards import build_shards
from repro.engines.result import IterationStats
from repro.errors import ConfigError, EngineError
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, UNVISITED
from repro.storage.faults import submit_with_retry
from repro.storage.machine import IOReport, Machine
from repro.tooling.sanitizer import check_report

_INF = np.int32(2**30)

#: The kernels GraphChi relaxes, by name: a min-propagation over in-edges
#: of ``value[src] + delta`` (BFS levels; WCC labels, on a graph carrying
#: both directions of every edge, e.g. ``Graph.symmetrized()``).
RELAXATION_DELTA = {"bfs": np.int32(1), "wcc": np.int32(0)}


@dataclass
class _PreparedShards:
    """GraphChi's staged artifact: shards + scheduling metadata.

    The PSW analogue of the edge-centric engines' ``StagedGraph``: built
    once per (graph, machine), reusable across queries, and read by the
    same :class:`~repro.engines.session.QuerySession` and
    ``run_staged_queries``.  Shard files carry no VFS data (timing uses
    explicit byte counts), so preparing them charges no simulated I/O —
    the ``preprocessing`` estimate is reported separately, matching the
    paper's methodology of excluding sharding from measured execution.
    """

    graph: Graph
    machine: Machine
    sharded: object
    windows: np.ndarray
    window_offsets: np.ndarray
    shard_files: list
    vertex_files: list
    out_indptr: np.ndarray
    out_dst_interval: np.ndarray
    preprocessing: float
    #: Delta report covering exactly the staging phase.
    staging_report: IOReport

    @property
    def num_intervals(self) -> int:
        return self.sharded.num_intervals

    @staticmethod
    def compatible_with(algorithm: StreamingAlgorithm) -> bool:
        """The shards serve every kernel GraphChi has a relaxation for."""
        return algorithm.name in RELAXATION_DELTA

    @staticmethod
    def runs_batched(algorithm: StreamingAlgorithm) -> bool:
        """PSW has no MS-BFS kernel: batched mode runs serial chunks."""
        return False


#: On-disk bytes per edge in a shard (delta-compressed adjacency plus the
#: 4-byte value column; GraphChi's source-sorted shards compress adjacency
#: to ~half the raw 8 bytes).
EDGE_RECORD_BYTES = 8
#: Bytes written back per touched edge (the dirty value column only).
EDGE_VALUE_BYTES = 4
#: On-disk bytes per vertex value record.
VERTEX_RECORD_BYTES = 8
#: One memory shard must fit in this fraction of working memory.
MEMBUDGET_FRACTION = 0.25


@dataclass
class GraphChiConfig:
    """GraphChi runtime knobs."""

    threads: int = 4
    #: Override the derived shard count.
    num_shards: Optional[int] = None
    #: GraphChi's own interval-level selective scheduling.
    selective_scheduling: bool = True

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.num_shards is not None and self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")


class GraphChiEngine(Engine):
    """Vertex-centric PSW engine running label-correcting BFS.

    ``run``, ``run_many`` and ``session`` are :class:`~repro.engines.base.
    Engine`'s: GraphChi supplies ``stage`` (the shard build) and its PSW
    interval loop (:meth:`_run_passes`).  The kernel's name picks the
    relaxation (:data:`RELAXATION_DELTA`); any other kernel is an
    :class:`~repro.errors.EngineError` before staging.
    """

    name = "graphchi"

    def __init__(self, config: Optional[GraphChiConfig] = None) -> None:
        self.config = config if config is not None else GraphChiConfig()

    # ------------------------------------------------------------------
    def plan_shard_count(self, graph: Graph, machine: Machine) -> int:
        cfg = self.config
        if cfg.num_shards is not None:
            return cfg.num_shards
        edge_bytes = graph.num_edges * EDGE_RECORD_BYTES
        budget = machine.memory_bytes * MEMBUDGET_FRACTION
        return max(1, int(np.ceil(edge_bytes / budget)))

    def _kernel(self, algorithm: Optional[StreamingAlgorithm]) -> StreamingAlgorithm:
        algo = super()._kernel(algorithm)
        if algo.name not in RELAXATION_DELTA:
            raise EngineError(
                f"GraphChi runs the bfs and wcc kernels, got {algo.name!r}"
            )
        return algo

    def stage(
        self, graph: Graph, machine: Machine, algorithm=None
    ) -> _PreparedShards:
        """Build the reusable shard artifact (GraphChi's staging phase);
        the shards serve every kernel, so ``algorithm`` is not read."""
        baseline = machine.report()
        files_before = machine.vfs.snapshot()
        with machine.tracer.span(
            "stage", engine=self.name, graph=graph.name, edges=graph.num_edges
        ) as stage_span:
            prep = self._prepare_body(graph, machine, baseline)
            stage_span.set(partitions=prep.num_intervals, in_memory=False)
        check_report(prep.staging_report, machine.vfs, files_before)
        return prep

    def _prepare_body(
        self, graph: Graph, machine: Machine, baseline: IOReport
    ) -> _PreparedShards:
        cfg = self.config
        cm = COST_MODEL
        disk = machine.disk(0)
        n = graph.num_vertices

        num_shards = self.plan_shard_count(graph, machine)
        sharded = build_shards(graph, num_shards)
        p = sharded.num_intervals
        windows = sharded.window_counts()
        window_offsets = np.zeros((p, p + 1), dtype=np.int64)
        np.cumsum(windows, axis=1, out=window_offsets[:, 1:])

        # Preprocessing estimate (sharding is excluded from the measured
        # execution, matching the paper's methodology, but reported).
        e = graph.num_edges
        preprocessing = (
            graph.nbytes / disk.spec.read_bandwidth
            + (e * EDGE_RECORD_BYTES) / disk.spec.write_bandwidth
            + cm.graphchi_sort_per_edge * e * max(1.0, np.log2(max(e, 2)))
            / cm.effective_parallelism(cfg.threads, machine.cores)
        )

        shard_files = [machine.vfs.create(f"shard:{j}", disk) for j in range(p)]
        vertex_files = [machine.vfs.create(f"chivert:{j}", disk) for j in range(p)]

        # Out-adjacency in CSR form, mapping each vertex to the intervals
        # its out-edges land in — the data the dynamic scheduler needs.
        src_order = np.argsort(graph.edges["src"], kind="stable")
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(graph.edges["src"], minlength=n), out=out_indptr[1:]
        )
        out_dst_interval = np.searchsorted(
            sharded.boundaries[1:],
            graph.edges["dst"][src_order].astype(np.int64),
            side="right",
        )
        return _PreparedShards(
            graph=graph,
            machine=machine,
            sharded=sharded,
            windows=windows,
            window_offsets=window_offsets,
            shard_files=shard_files,
            vertex_files=vertex_files,
            out_indptr=out_indptr,
            out_dst_interval=out_dst_interval,
            preprocessing=preprocessing,
            staging_report=machine.report().minus(baseline),
        )

    def _open_query(self, prep: _PreparedShards, kernel) -> _RunState:
        rt = super()._open_query(prep, kernel)
        rt.extras["shards"] = float(prep.num_intervals)
        rt.extras["preprocessing_time"] = float(prep.preprocessing)
        return rt

    def _run_passes(self, prep: _PreparedShards, rt: _RunState) -> None:
        """The PSW interval loop, to the fixpoint.

        Seeds from the kernel's state (BFS: the roots at level 0; WCC:
        every vertex with its own label) and writes the final levels and
        parents, or labels, back into it, so ``kernel.result`` builds the
        output.
        """
        cfg = self.config
        cm = COST_MODEL
        machine = rt.machine
        clock = machine.clock
        state = rt.state
        sharded = prep.sharded
        p = prep.num_intervals
        windows = prep.windows
        window_offsets = prep.window_offsets
        shard_files = prep.shard_files
        vertex_files = prep.vertex_files
        out_indptr = prep.out_indptr
        out_dst_interval = prep.out_dst_interval

        bfs = rt.algo.name == "bfs"
        delta = RELAXATION_DELTA[rt.algo.name]
        if bfs:
            level = state["level"]
            dist = np.where(level == UNVISITED, _INF, level).astype(np.int32)
        else:
            dist = state["label"].astype(np.int32)
        parent = np.full(len(state), NO_PARENT, dtype=np.uint32)

        def shards_touched(vertices: np.ndarray) -> np.ndarray:
            """Intervals receiving out-edges from any of ``vertices``."""
            starts = out_indptr[vertices]
            lengths = out_indptr[vertices + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                return np.empty(0, dtype=np.int64)
            offs = np.zeros(len(vertices) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offs[1:])
            idx = np.arange(total, dtype=np.int64)
            which = np.searchsorted(offs[1:], idx, side="right")
            gathered = out_dst_interval[starts[which] + (idx - offs[which])]
            return np.unique(gathered)

        scheduled = np.zeros(p, dtype=bool)
        if cfg.selective_scheduling:
            scheduled[shards_touched(np.flatnonzero(state["active"]))] = True
        else:
            scheduled[:] = True

        iteration = 0
        while scheduled.any():
            stats = IterationStats(iteration=iteration)
            rt.iterations.append(stats)
            next_scheduled = np.zeros(p, dtype=bool)
            with machine.tracer.span(
                "iteration",
                iteration=iteration,
                frontier=int(scheduled.sum()),
            ) as it_span:
                for j in range(p):
                    if not scheduled[j]:
                        stats.partitions_skipped += 1
                        continue
                    scheduled[j] = False
                    stats.partitions_processed += 1
                    with machine.tracer.span("interval", partition=j) as iv_span:
                        cm.charge_phase(clock, cfg.threads)
                        lo, hi = sharded.interval_range(j)
                        shard = sharded.shards[j]
                        # --- I/O: vertex values in.
                        self._submit_wait(
                            machine, vertex_files[j], "read",
                            (hi - lo) * VERTEX_RECORD_BYTES,
                        )
                        # --- I/O: memory shard in (one sequential read) +
                        # the per-load in-memory shard assembly sort.
                        self._submit_wait(
                            machine, shard_files[j], "read",
                            len(shard) * EDGE_RECORD_BYTES,
                        )
                        if len(shard):
                            cm.charge(
                                clock, "graphchi-sort",
                                cm.graphchi_sort_per_edge
                                * max(1.0, np.log2(len(shard))),
                                len(shard), cfg.threads, machine.cores,
                            )
                        # --- I/O: sliding windows of the other shards.
                        window_edges = 0
                        for k in range(p):
                            if k == j or windows[k, j] == 0:
                                continue
                            window_edges += int(windows[k, j])
                            offset = int(window_offsets[k, j]) * EDGE_RECORD_BYTES
                            self._submit_wait(
                                machine, shard_files[k], "read",
                                int(windows[k, j]) * EDGE_RECORD_BYTES,
                                offset=offset,
                            )
                        # --- compute: relax interval j's in-edges (async
                        # semantics).
                        touched = len(shard) + window_edges
                        cm.charge(
                            clock, "graphchi-update", cm.graphchi_per_edge,
                            touched, cfg.threads, machine.cores,
                        )
                        stats.edges_scanned += touched
                        improved = self._relax(shard, dist, parent, delta)
                        changed = len(improved)
                        stats.activated += changed
                        if changed and cfg.selective_scheduling:
                            hit = shards_touched(improved.astype(np.int64))
                            later = hit[hit > j]
                            earlier = hit[hit <= j]
                            scheduled[later] = True  # same pass (dynamic)
                            next_scheduled[earlier] = True
                        elif changed:
                            next_scheduled[:] = True
                        if changed:
                            # --- I/O: dirty value columns + vertex values
                            # out.
                            for k in range(p):
                                if k == j or windows[k, j] == 0:
                                    continue
                                offset = (
                                    int(window_offsets[k, j]) * EDGE_VALUE_BYTES
                                )
                                self._submit_wait(
                                    machine, shard_files[k], "write",
                                    int(windows[k, j]) * EDGE_VALUE_BYTES,
                                    offset=offset,
                                )
                            self._submit_wait(
                                machine, shard_files[j], "write",
                                len(shard) * EDGE_VALUE_BYTES,
                            )
                            self._submit_wait(
                                machine, vertex_files[j], "write",
                                (hi - lo) * VERTEX_RECORD_BYTES,
                            )
                        iv_span.set(edges_touched=touched, improved=changed)
                it_span.set(
                    edges_scanned=stats.edges_scanned,
                    activated=stats.activated,
                    partitions_processed=stats.partitions_processed,
                    partitions_skipped=stats.partitions_skipped,
                )
            scheduled = next_scheduled
            stats.clock_end = clock.now
            iteration += 1

        if bfs:
            levels = np.where(dist >= _INF, UNVISITED, dist)
            parent[levels == UNVISITED] = NO_PARENT
            state["level"] = levels
            state["parent"] = parent
        else:
            state["label"] = dist

    # ------------------------------------------------------------------
    @staticmethod
    def _submit_wait(machine, file, kind, nbytes, offset=0):
        """Synchronous request (GraphChi blocks on each block transfer),
        retried within the fault plan's I/O budget like every stream's."""
        if nbytes <= 0:
            return
        req = submit_with_retry(
            machine.clock, file, kind, int(nbytes), int(offset), file.name
        )
        machine.clock.wait_until(req.end)

    @staticmethod
    def _relax(shard, dist, parent, delta=np.int32(1)) -> np.ndarray:
        """Apply min-relaxation (``dist[src] + delta``) over one shard.

        Returns the ids of vertices that improved.  First-improver (lowest
        source value, then lowest source id) wins the parent slot via the
        lexsort.  ``delta=1`` is BFS; ``delta=0`` is WCC label propagation.
        """
        empty = np.empty(0, dtype=np.int64)
        if len(shard) == 0:
            return empty
        src_dist = dist[shard.src]
        valid = src_dist < _INF
        if not valid.any():
            return empty
        cand_dst = shard.dst[valid]
        cand_val = src_dist[valid] + delta
        cand_src = shard.src[valid]
        better = cand_val < dist[cand_dst]
        if not better.any():
            return empty
        cand_dst = cand_dst[better]
        cand_val = cand_val[better]
        cand_src = cand_src[better]
        order = np.lexsort((cand_src, cand_val, cand_dst))
        cand_dst = cand_dst[order]
        cand_val = cand_val[order]
        cand_src = cand_src[order]
        first = np.ones(len(cand_dst), dtype=bool)
        first[1:] = cand_dst[1:] != cand_dst[:-1]
        upd_dst = cand_dst[first]
        dist[upd_dst] = cand_val[first]
        parent[upd_dst] = cand_src[first]
        return upd_dst
