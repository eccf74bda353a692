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

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.engines.costs import COST_MODEL
from repro.engines.graphchi.shards import build_shards
from repro.engines.result import BatchResult, EngineResult, IterationStats
from repro.errors import ConfigError, EngineError
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, UNVISITED
from repro.storage.machine import IOReport, Machine

_INF = np.int32(2**30)


@dataclass
class _PreparedShards:
    """GraphChi's staged artifact: shards + scheduling metadata.

    The PSW analogue of the edge-centric engines' ``StagedGraph``: built
    once per (graph, machine) and reusable across queries.  Shard files
    carry no VFS data (timing uses explicit byte counts), so preparing
    them charges no simulated I/O — the ``preprocessing`` estimate is
    reported separately, matching the paper's methodology of excluding
    sharding from measured execution.
    """

    sharded: object
    windows: np.ndarray
    window_offsets: np.ndarray
    shard_files: list
    vertex_files: list
    out_indptr: np.ndarray
    out_dst_interval: np.ndarray
    preprocessing: float

    @property
    def num_intervals(self) -> int:
        return self.sharded.num_intervals


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

    def with_(self, **kwargs) -> "GraphChiConfig":
        return replace(self, **kwargs)


class GraphChiEngine:
    """Vertex-centric PSW engine running label-correcting BFS."""

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

    def run(
        self,
        graph: Graph,
        machine: Machine,
        root: int = 0,
        roots: Optional[Sequence[int]] = None,
        algorithm: str = "bfs",
    ) -> EngineResult:
        """Run ``algorithm`` ("bfs" or "wcc") over the PSW machinery.

        Both are min-propagation fixpoints over in-edges: BFS relaxes
        ``dist[src] + 1``, WCC relaxes ``label[src]`` (the graph must carry
        both directions of every edge, e.g. ``Graph.symmetrized()``).
        """
        self._check_fresh(machine)
        root_list = self._check_query(graph, root, roots, algorithm)
        prep = self._prepare(graph, machine)
        return self._run_query(graph, machine, prep, root_list, algorithm)

    def run_many(
        self,
        graph: Graph,
        machine: Machine,
        roots: Sequence,
        algorithm: str = "bfs",
        mode: str = "serial",
    ) -> BatchResult:
        """One query per ``roots`` entry over a single shard build.

        Mirrors the edge-centric engines' batch front door: shards are
        built once, the machine is rewound to the post-preparation
        checkpoint between queries, and each query's report is a delta.
        (Sharding charges no simulated I/O here, so the staging report is
        empty; the preprocessing estimate rides in the extras.)  GraphChi's
        vertex-centric kernels have no batched (MS-BFS) variant, so
        ``mode="batched"`` falls back to this serial path (recorded as
        ``extras["batched_fallback"]``), matching the edge-centric
        engines' non-batchable behaviour.
        """
        if len(roots) == 0:
            raise EngineError("run_many needs at least one root entry")
        if mode not in ("serial", "batched"):
            raise ConfigError(
                f"run_many mode must be 'serial' or 'batched', got {mode!r}"
            )
        self._check_fresh(machine)
        entries = []
        for entry in roots:
            if isinstance(entry, (list, tuple, np.ndarray)):
                entries.append(self._check_query(graph, 0, entry, algorithm))
            else:
                entries.append(self._check_query(graph, int(entry), None, algorithm))
        prep = self._prepare(graph, machine)
        staging_report = machine.report()
        checkpoint = machine.checkpoint()
        queries = []
        for q, root_list in enumerate(entries):
            if q:
                machine.restore(checkpoint)
            result = self._run_query(
                graph, machine, prep, root_list, algorithm,
                baseline=staging_report,
            )
            result.query_index = q
            result.extras["query_index"] = float(result.query_index)
            queries.append(result)
        extras = {
            "shards": float(prep.num_intervals),
            "preprocessing_time": float(prep.preprocessing),
        }
        if mode == "batched":
            extras["batched_fallback"] = 1.0
        return BatchResult(
            engine=self.name,
            algorithm=algorithm,
            graph_name=graph.name,
            staging_report=staging_report,
            queries=queries,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def _check_fresh(self, machine: Machine) -> None:
        if machine.clock.now != 0.0 or len(machine.vfs) != 0:
            raise EngineError(
                "machine has already been used; GraphChi needs a fresh Machine"
            )

    def _check_query(
        self,
        graph: Graph,
        root: int,
        roots: Optional[Sequence[int]],
        algorithm: str,
    ) -> list:
        if algorithm not in ("bfs", "wcc"):
            raise EngineError(
                f"GraphChi supports 'bfs' and 'wcc', got {algorithm!r}"
            )
        n = graph.num_vertices
        root_list = list(roots) if roots is not None else [root]
        for r in root_list:
            if not 0 <= r < n:
                raise EngineError(f"root {r} out of range for {n} vertices")
        return root_list

    def _prepare(self, graph: Graph, machine: Machine) -> _PreparedShards:
        """Build the reusable shard artifact (GraphChi's staging phase)."""
        with machine.tracer.span(
            "stage", engine=self.name, graph=graph.name, edges=graph.num_edges
        ) as stage_span:
            prep = self._prepare_body(graph, machine)
            stage_span.set(partitions=prep.num_intervals, in_memory=False)
        return prep

    def _prepare_body(self, graph: Graph, machine: Machine) -> _PreparedShards:
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
            sharded=sharded,
            windows=windows,
            window_offsets=window_offsets,
            shard_files=shard_files,
            vertex_files=vertex_files,
            out_indptr=out_indptr,
            out_dst_interval=out_dst_interval,
            preprocessing=preprocessing,
        )

    def _run_query(
        self,
        graph: Graph,
        machine: Machine,
        prep: _PreparedShards,
        root_list: list,
        algorithm: str,
        baseline: Optional[IOReport] = None,
    ) -> EngineResult:
        cfg = self.config
        cm = COST_MODEL
        clock = machine.clock
        n = graph.num_vertices
        sharded = prep.sharded
        p = prep.num_intervals
        windows = prep.windows
        window_offsets = prep.window_offsets
        shard_files = prep.shard_files
        vertex_files = prep.vertex_files
        preprocessing = prep.preprocessing
        out_indptr = prep.out_indptr
        out_dst_interval = prep.out_dst_interval

        if algorithm == "bfs":
            dist = np.full(n, _INF, dtype=np.int32)
            dist[root_list] = 0
            delta = np.int32(1)
            seeds = np.asarray(root_list, dtype=np.int64)
        else:  # wcc: every vertex seeds its own label
            dist = np.arange(n, dtype=np.int32)
            delta = np.int32(0)
            seeds = np.arange(n, dtype=np.int64)
        parent = np.full(n, NO_PARENT, dtype=np.uint32)

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
            scheduled[shards_touched(seeds)] = True
        else:
            scheduled[:] = True

        iterations = []
        iteration = 0
        with machine.tracer.span(
            "query",
            engine=self.name,
            algorithm=algorithm,
            graph=graph.name,
            roots=[int(r) for r in root_list],
        ) as q_span:
            while scheduled.any():
                stats = IterationStats(iteration=iteration)
                iterations.append(stats)
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
                        with machine.tracer.span(
                            "interval", partition=j
                        ) as iv_span:
                            cm.charge_phase(clock, cfg.threads)
                            lo, hi = sharded.interval_range(j)
                            shard = sharded.shards[j]
                            # --- I/O: vertex values in.
                            self._submit_wait(
                                machine, vertex_files[j], "read",
                                (hi - lo) * VERTEX_RECORD_BYTES,
                            )
                            # --- I/O: memory shard in (one sequential read)
                            # + the per-load in-memory shard assembly sort.
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
                                offset = (
                                    int(window_offsets[k, j])
                                    * EDGE_RECORD_BYTES
                                )
                                self._submit_wait(
                                    machine, shard_files[k], "read",
                                    int(windows[k, j]) * EDGE_RECORD_BYTES,
                                    offset=offset,
                                )
                            # --- compute: relax interval j's in-edges
                            # (async semantics).
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
                                # --- I/O: dirty value columns + vertex
                                # values out.
                                for k in range(p):
                                    if k == j or windows[k, j] == 0:
                                        continue
                                    offset = (
                                        int(window_offsets[k, j])
                                        * EDGE_VALUE_BYTES
                                    )
                                    self._submit_wait(
                                        machine, shard_files[k], "write",
                                        int(windows[k, j])
                                        * EDGE_VALUE_BYTES,
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
                            iv_span.set(
                                edges_touched=touched, improved=changed
                            )
                    it_span.set(
                        edges_scanned=stats.edges_scanned,
                        activated=stats.activated,
                        partitions_processed=stats.partitions_processed,
                        partitions_skipped=stats.partitions_skipped,
                    )
                scheduled = next_scheduled
                stats.clock_end = clock.now
                iteration += 1
            q_span.set(iterations=len(iterations))

        if algorithm == "wcc":
            output = {"label": dist.astype(np.uint32)}
        else:
            levels = np.where(dist >= _INF, UNVISITED, dist).astype(np.int32)
            parent[levels == UNVISITED] = NO_PARENT
            output = {"level": levels, "parent": parent}
        report = machine.report()
        if baseline is not None:
            report = report.minus(baseline)
        return EngineResult(
            engine=self.name,
            algorithm=algorithm,
            graph_name=graph.name,
            output=output,
            report=report,
            iterations=iterations,
            extras={
                "shards": float(p),
                "preprocessing_time": float(preprocessing),
            },
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _submit_wait(machine, file, kind, nbytes, offset=0):
        """Synchronous request (GraphChi blocks on each block transfer)."""
        if nbytes <= 0:
            return
        req = file.device.submit(
            submit_time=machine.clock.now,
            kind=kind,
            nbytes=int(nbytes),
            file_id=file.file_id,
            offset=int(offset),
            group=file.name,
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
