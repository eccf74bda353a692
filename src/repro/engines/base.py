"""Shared edge-centric BSP scaffolding (the X-Stream execution model).

One engine run executes an algorithm (BFS by default) as a sequence of
scatter/gather iterations over streaming partitions (paper §II-A):

1. an initial pass splits the raw edge list into per-partition out-edge
   files (a single sequential read + sequential writes — the "no expensive
   preprocessing" property);
2. iteration 0 is a pure scatter pass; every later pass merges "gather of
   iteration i" with "scatter of iteration i+1" per partition so each
   partition's vertex set is read once per pass (the staging optimization
   FastBFS inherits from X-Stream, §III);
3. updates are shuffled into per-destination-partition update files using
   two alternating stream sets (in/out parity, §III), with a drain barrier
   before the pass that consumes them;
4. when the whole working set fits the memory budget the run switches to
   in-memory mode: the input is read from disk once and every stream lives
   on the RAM pseudo-device (the Fig. 9 cliff).

Subclass hooks (``_should_process_partition``, ``_edge_input_file``,
``_pre_partition_scatter``, ``_on_scatter_run``, ``_post_partition_scatter``,
...) are where FastBFS adds trimming, cancellation and selective scheduling
without duplicating the pipeline.

Modeled buffers and host runs.  What the simulation is *charged* is one
device request and one or two compute charges per modeled stream buffer
(``edge_buffer_bytes`` / ``update_buffer_bytes``).  What the host *computes*
is decoupled from that: the three streaming loops (staging split, scatter,
gather) cut a file into host runs of :data:`HOST_RUN_RECORDS` records
(whole modeled buffers), run the kernel, the survivor selection and the
partition routing once per run, and derive every per-buffer count from that
one result.  The per-buffer loop then only replays the schedule: it steps
the :class:`StreamReader` and issues the charges in the order a
buffer-at-a-time loop would, and it feeds each writer once per flush: at a
buffer where the writer's own rule (:meth:`StreamWriter.flush_buffers`)
says it flushes, one slice holding everything since its last flush, and
after the run the tail, which fills no buffer (:func:`_appends_due`).  The
order of device requests and clock charges is an invariant: stay-file
cancellation races and fault-plan positions depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.streaming import (
    AlgoContext,
    BFSAlgorithm,
    StagedColumns,
    StreamingAlgorithm,
)
from repro.engines.costs import COST_MODEL
from repro.engines.result import EngineResult, IterationStats
from repro.errors import ConfigError, EngineError
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning, plan_partition_count
from repro.sim.timeline import ScheduledRequest
from repro.storage.device import Device
from repro.storage.faults import RetryPolicy, submit_with_retry
from repro.storage.machine import Machine
from repro.storage.streams import StreamReader, StreamWriter
from repro.storage.vfs import VirtualFile
from repro.utils.units import KB, parse_bytes

#: Working set estimate = IN_MEMORY_FACTOR * edge bytes + vertex bytes.
#: The factor covers input and output edge streams, both update stream sets,
#: stream buffers and allocator slack; 6x edge bytes reproduces the paper's
#: Fig. 9 behaviour (rmat22 fits at 4GB, not at 2GB).
IN_MEMORY_FACTOR = 6.0

#: Disk index for edge and vertex set files (and stay files, unless
#: ``stay_disk`` or ``rotate_streams`` places them).
EDGE_DISK = 0

#: Records of one host run: how much of a stream the kernels, the survivor
#: selection and the partition routing see per call.  Rounded down to whole
#: modeled buffers (at least one).  Host granularity only; nothing the
#: simulation charges depends on it, which is why it is not a config field.
HOST_RUN_RECORDS = 1 << 18


def _host_runs(reader: StreamReader) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Cut ``reader``'s file into host runs of whole modeled buffers.

    Yields ``(run, bounds)``: a zero-copy view of the run's records and the
    positions where its modeled buffers begin and end, so buffer ``b`` of
    the run is ``run[bounds[b]:bounds[b + 1]]``, exactly what the reader's
    next ``__next__`` returns.  The caller steps the reader itself, once per
    modeled buffer, after computing on the run.
    """
    per_buffer = reader.records_per_buffer
    if not per_buffer:  # empty file that never learned its dtype
        return
    records = reader.file.records()
    per_run = max(1, HOST_RUN_RECORDS // per_buffer) * per_buffer
    for start in range(0, len(records), per_run):
        run = records[start:start + per_run]
        bounds = np.minimum(
            np.arange(0, len(run) + per_buffer, per_buffer), len(run)
        )
        yield run, bounds


def _route(
    part: VertexPartitioning,
    vertices: np.ndarray,
    records: np.ndarray,
    positions: np.ndarray,
    bounds: np.ndarray,
) -> List[Tuple[int, np.ndarray, List[int]]]:
    """Route one run's ``records`` to their owning partitions in one split.

    ``positions[k]`` is where in the run ``records[k]`` comes from
    (ascending).  Returns ``(p, records_p, cuts_p)`` per receiving partition,
    in partition order; ``records_p[cuts_p[b]:cuts_p[b + 1]]`` is what
    modeled buffer ``b`` of the run sends to partition ``p``.
    """
    return [
        (p, chunk, np.searchsorted(origin, bounds).tolist())
        for p, (_, chunk, origin) in part.split_by_partition(
            vertices, records, positions
        )
    ]


def _feeds(
    writer: StreamWriter, records: np.ndarray, cuts: List[int]
) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
    """What a replay appends to ``writer`` when modeled buffer ``b`` of a
    run sends it ``records[cuts[b]:cuts[b + 1]]``.

    Returns ``(flushes, tail)``: per buffer at which the writer flushes
    (:meth:`StreamWriter.flush_buffers`), one slice holding everything since
    its previous flush, and the records after the last flush, which fill no
    buffer.  Appending each slice at its buffer and the tail after the run
    submits the same writes, with the same bytes, at the same points as one
    append per buffer.
    """
    flushes: Dict[int, np.ndarray] = {}
    start = 0
    for b in writer.flush_buffers(cuts, records.itemsize):
        stop = cuts[b + 1]
        flushes[b] = records[start:stop]
        start = stop
    return flushes, records[start:]


_Append = Tuple[StreamWriter, np.ndarray]


def _appends_due(
    routed: List[Tuple[int, np.ndarray, List[int]]],
    writers: Sequence[StreamWriter],
) -> Tuple[Dict[int, List[_Append]], List[_Append]]:
    """:func:`_feeds` for each partition of a routed run.

    Returns ``(due, tails)``: ``due[b]`` lists, in partition order, the
    ``(writer, records)`` appends that flush at buffer ``b``, and ``tails``
    the non-empty rest of each writer, for after the run's last buffer.
    """
    due: Dict[int, List[_Append]] = {}
    tails: List[_Append] = []
    for p, chunk, cuts in routed:
        writer = writers[p]
        flushes, tail = _feeds(writer, chunk, cuts)
        for b, records in flushes.items():
            due.setdefault(b, []).append((writer, records))
        if len(tail):
            tails.append((writer, tail))
    return due, tails


@dataclass
class EngineConfig:
    """Runtime knobs shared by the streaming engines.

    Sizes accept ints or strings ("64KB").  Defaults are pre-scaled for the
    reduced-scale reproduction datasets (see ``repro.analysis.calibration``
    for the scaling rules that map them back to the paper's values).
    """

    threads: int = 4
    #: Size of one edge streaming buffer (paper: chosen for sequential BW).
    edge_buffer_bytes: Union[int, str] = 64 * KB
    #: Number of edge buffers = read prefetch depth (paper §III).
    num_edge_buffers: int = 2
    #: Size of one update stream buffer.
    update_buffer_bytes: Union[int, str] = 32 * KB
    #: Override the planned partition count (None = derive from memory).
    num_partitions: Optional[int] = None
    #: Cap on scatter passes (None = run to convergence).  Fixed-round
    #: algorithms like PageRank set this; the final gather still runs.
    max_iterations: Optional[int] = None
    #: Allow switching to in-memory mode when the working set fits RAM.
    allow_in_memory: bool = True
    #: Disk index for update files.
    update_disk: int = 0
    #: Stream-layer recovery from transient I/O faults: bounded retries
    #: with simulated-clock backoff (see repro.storage.faults.RetryPolicy).
    #: Only matters when the machine carries a fault plan — fault-free
    #: runs never enter the retry loop.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        self.edge_buffer_bytes = parse_bytes(self.edge_buffer_bytes)
        self.update_buffer_bytes = parse_bytes(self.update_buffer_bytes)
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.num_edge_buffers < 1:
            raise ConfigError("num_edge_buffers must be >= 1")
        if self.edge_buffer_bytes <= 0 or self.update_buffer_bytes <= 0:
            raise ConfigError("buffer sizes must be positive")
        if self.num_partitions is not None and self.num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.update_disk < 0:
            raise ConfigError("update_disk must be >= 0")

    def with_(self, **kwargs) -> "EngineConfig":
        """Copy with some fields replaced (sweep helper)."""
        return replace(self, **kwargs)


class _RunState:
    """Mutable per-query bundle so engines stay reusable across queries.

    This is session-internal state: outside the ``engines``/``core``
    subsystems nothing may construct one (analyzer rule FB107) — go through
    ``engine.run()`` / ``engine.run_many()`` or a
    :class:`~repro.engines.session.QuerySession`.
    """

    def __init__(self) -> None:
        self.graph: Graph = None  # type: ignore[assignment]
        self.machine: Machine = None  # type: ignore[assignment]
        self.algo: StreamingAlgorithm = None  # type: ignore[assignment]
        self.state: np.ndarray = None  # type: ignore[assignment]
        self.partitioning: VertexPartitioning = None  # type: ignore[assignment]
        self.in_memory = False
        self.dev_edges: Device = None  # type: ignore[assignment]
        self.dev_updates: Device = None  # type: ignore[assignment]
        self.dev_vertices: Device = None  # type: ignore[assignment]
        self.edge_files: List[VirtualFile] = []
        self.vertex_files: List[VirtualFile] = []
        self.update_in: List[Optional[VirtualFile]] = []
        self.update_writers: List[StreamWriter] = []
        self.pending_vertex_writes: List[ScheduledRequest] = []
        self.iterations: List[IterationStats] = []
        self.extras: Dict[str, float] = {}
        #: Staged-artifact file names this query must not delete/displace.
        self.protected_files: frozenset = frozenset()
        # FastBFS session state (attached by FastBFSEngine._before_run;
        # declared here so the per-query ownership is explicit).
        self.stay = None  # StayStreamManager
        self.trim_policy = None  # TrimPolicy
        self.trim_active_iteration = -1
        self.trim_active = False


class EdgeCentricEngine:
    """X-Stream-style scatter/gather engine; subclass hooks add FastBFS."""

    name = "edge-centric"

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        machine: Machine,
        algorithm: Optional[StreamingAlgorithm] = None,
        root: int = 0,
        roots: Optional[Sequence[int]] = None,
    ) -> EngineResult:
        """Execute ``algorithm`` (default BFS from ``root``) on ``machine``.

        The machine must be fresh (zero clock, empty VFS) so the report
        covers exactly this run.  This is ``stage()`` plus one
        :class:`~repro.engines.session.QuerySession`, with the result's
        report widened from the session's delta to the machine's
        cumulative one (staging + query).  For several traversals of one
        graph use :meth:`run_many`.
        """
        algo = algorithm if algorithm is not None else BFSAlgorithm()

        def drive(staged, validated):
            result = self.session(staged, algo).run(validated_roots=validated[0])
            result.report = machine.report()
            return result

        return self._staged_run(
            graph, machine, algo,
            [list(roots) if roots is not None else root], "serial", drive,
        )

    def run_many(
        self,
        graph: Graph,
        machine: Machine,
        roots: Sequence,
        algorithm: Optional[StreamingAlgorithm] = None,
        mode: str = "serial",
    ):
        """Run one query per entry of ``roots``, staging the graph once.

        Each entry is a root vertex (or a sequence of roots for a
        multi-source query).  The graph is staged once; every root entry is
        validated before staging, so a bad query fails before any machine
        state changes.  (``run_staged_queries`` validates its entries
        again: it is also the serving layer's front door, which has no
        staging step to validate ahead of.)

        ``mode="serial"`` (default): before every query the machine is
        rewound to the post-staging checkpoint, so every query starts from
        an identical clock/VFS/device state and its report covers only
        that query.

        ``mode="batched"``: entries are packed into MS-BFS batches of up to
        :data:`~repro.algorithms.streaming.BATCH_WIDTH` queries, each batch
        advanced by one shared scatter/gather timeline (one edge scan for
        the whole batch) and demultiplexed into per-query results that are
        bit-identical to the serial ones.  The machine is rewound before
        every *batch*; algorithms without a batched kernel
        (``algo.batched()`` is None) silently fall back to the serial path,
        recorded as ``extras["batched_fallback"]``.

        Returns a :class:`~repro.engines.result.BatchResult`.
        """
        from repro.engines.session import run_staged_queries

        algo = algorithm if algorithm is not None else BFSAlgorithm()

        def drive(staged, validated):
            return run_staged_queries(
                self, staged, machine.checkpoint(), roots,
                algorithm=algo, mode=mode,
            )

        return self._staged_run(graph, machine, algo, roots, mode, drive)

    def _staged_run(self, graph, machine, algo, roots, mode, drive):
        """The body ``run``/``run_many`` share: check the arguments and the
        machine, stage, ``drive(staged, validated)``, sanitizer epilogue."""
        from repro.engines.session import validate_entries

        validated = validate_entries(algo, graph.num_vertices, roots, mode)
        self._check_fresh(machine)
        sanitizer = machine.sanitizer
        outcome = drive(self.stage(graph, machine, algorithm=algo), validated)
        if sanitizer is not None:
            outcome.extras["sanitizer_past_waits"] = float(sanitizer.past_waits)
            sanitizer.finalize_run()
            outcome.extras["sanitizer_violations"] = float(
                len(sanitizer.violations)
            )
        return outcome

    def session(self, staged, algorithm: Optional[StreamingAlgorithm] = None):
        """A fresh single-use :class:`QuerySession` against ``staged``."""
        from repro.engines.session import QuerySession

        return QuerySession(self, staged, algorithm=algorithm)

    def _check_fresh(self, machine: Machine) -> None:
        if machine.clock.now != 0.0 or len(machine.vfs) != 0:
            raise EngineError(
                "machine has already been used; engines need a fresh Machine "
                "per run (build a new one, or use run_many, which rewinds "
                "with Machine.checkpoint()/restore() between queries)"
            )

    # ------------------------------------------------------------------
    # planning & input staging
    # ------------------------------------------------------------------
    def stage(
        self,
        graph: Graph,
        machine: Machine,
        algorithm: Optional[StreamingAlgorithm] = None,
    ):
        """Build the reusable staged artifact for ``graph`` on ``machine``.

        Plans the partitioning (memory-budget driven) and splits the raw
        edge list into per-partition edge files: one sequential read plus
        parallel sequential writes, charged like any other I/O (the input
        file pre-exists on disk 0; creating it is not charged).  Ends with
        a drain barrier, so the machine is quiescent — a valid
        :meth:`~repro.storage.machine.Machine.checkpoint` point.  Returns a
        :class:`~repro.engines.session.StagedGraph`.
        """
        cfg = self.config
        algo = algorithm if algorithm is not None else BFSAlgorithm()
        baseline = machine.report()
        with machine.tracer.span(
            "stage", engine=self.name, graph=graph.name, edges=graph.num_edges
        ) as stage_span:
            staged = self._stage_body(graph, machine, cfg, algo, baseline)
            stage_span.set(
                partitions=staged.partitioning.count, in_memory=staged.in_memory
            )
        return staged

    def _stage_body(self, graph, machine, cfg, algo, baseline):
        from repro.engines.session import StagedGraph

        # Plan: partition count and device placement.
        n = graph.num_vertices
        vertex_bytes = n * algo.disk_record_bytes
        working_set = graph.nbytes * IN_MEMORY_FACTOR + vertex_bytes
        in_memory = bool(
            cfg.allow_in_memory and working_set <= machine.memory_bytes
        )
        count = cfg.num_partitions or plan_partition_count(
            n, algo.disk_record_bytes, machine.memory_bytes
        )
        part = VertexPartitioning(n, count)
        if in_memory:
            dev_edges = dev_updates = dev_vertices = machine.ram
        else:
            dev_edges = dev_vertices = machine.disk(EDGE_DISK)
            dev_updates = machine.disk(cfg.update_disk)

        vfs = machine.vfs
        input_file = vfs.create(f"input:{graph.name}", machine.disk(0))
        if graph.num_edges:
            input_file.append_records(graph.edges)
        input_file.seal()

        # Vertex set files (timing anchors; the state array is the data path).
        vertex_files = [vfs.create(f"vertices:p{p}", dev_vertices) for p in part]

        if part.count == 1 and dev_edges is machine.disk(0) and not in_memory:
            # Single streaming partition on the input disk: stream the input
            # directly, exactly like X-Stream with one partition.
            edge_files = [input_file]
        else:
            reader = StreamReader(
                machine.clock,
                input_file,
                cfg.edge_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group="input",
                retry=cfg.retry,
            )
            writers = [
                StreamWriter(
                    machine.clock,
                    vfs.create(f"edges:p{p}", dev_edges),
                    cfg.edge_buffer_bytes,
                    group=f"partition:p{p}",
                    retry=cfg.retry,
                )
                for p in part
            ]
            cm = COST_MODEL
            for run, bounds in _host_runs(reader):
                due, tails = _appends_due(
                    _route(part, run["src"], run, np.arange(len(run)), bounds),
                    writers,
                )
                for b in range(len(bounds) - 1):
                    cm.charge(
                        machine.clock,
                        "partition",
                        cm.partition_per_edge,
                        len(next(reader)),
                        cfg.threads,
                        machine.cores,
                    )
                    for writer, records in due.get(b, ()):
                        writer.append(records)
                for writer, records in tails:
                    writer.append(records)
            for w in writers:
                w.close(drain=False)
            last_ends = [w.last_end for w in writers if w.last_end is not None]
            if last_ends:
                machine.clock.wait_until(max(last_ends))
            edge_files = [w.file for w in writers]
        for f in edge_files:
            f.seal()

        return StagedGraph(
            graph=graph,
            machine=machine,
            config=cfg,
            record_bytes=algo.disk_record_bytes,
            partitioning=part,
            in_memory=in_memory,
            dev_edges=dev_edges,
            dev_updates=dev_updates,
            dev_vertices=dev_vertices,
            input_file=input_file,
            edge_files=edge_files,
            vertex_files=vertex_files,
            staging_report=machine.report().minus(baseline),
        )

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _scatter_only_pass(self, rt: _RunState) -> int:
        """Iteration 0: scatter the initial frontier, no gather yet."""
        ctx = AlgoContext(0)
        stats = IterationStats(iteration=0)
        rt.iterations.append(stats)
        part = rt.partitioning
        active_per_part = self._active_per_partition(rt)
        with rt.machine.tracer.span(
            "iteration", iteration=0, frontier=int(active_per_part.sum())
        ) as it_span:
            self._open_update_writers(rt, iteration=0)
            for p in part:
                if not self._should_process_partition(
                    rt, p, False, int(active_per_part[p])
                ):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_processed += 1
                COST_MODEL.charge_phase(
                    rt.machine.clock, self.config.threads
                )
                self._read_vertices(rt, p)
                stats.updates_generated += self._scatter_partition(rt, p, ctx, stats)
                self._write_vertices(rt, p)
            self._finish_pass(rt, stats)
            it_span.set(
                edges_scanned=stats.edges_scanned,
                updates_generated=stats.updates_generated,
                partitions_processed=stats.partitions_processed,
                partitions_skipped=stats.partitions_skipped,
            )
        return stats.updates_generated

    def _merged_pass(self, rt: _RunState, iteration: int) -> int:
        """Gather iteration-1's updates and scatter this iteration, merged."""
        gather_ctx = AlgoContext(iteration - 1)
        scatter_ctx = AlgoContext(iteration)
        stats = IterationStats(iteration=iteration)
        rt.iterations.append(stats)
        prev_updates = rt.update_in
        frontier = sum(
            f.num_records for f in prev_updates if f is not None
        )
        with rt.machine.tracer.span(
            "iteration", iteration=iteration, frontier=int(frontier)
        ) as it_span:
            self._open_update_writers(rt, iteration=iteration)
            for p in rt.partitioning:
                update_file = prev_updates[p]
                has_updates = update_file is not None and update_file.num_records > 0
                if not self._should_process_partition(rt, p, has_updates, 0):
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_processed += 1
                COST_MODEL.charge_phase(
                    rt.machine.clock, self.config.threads
                )
                self._read_vertices(rt, p)
                activated = (
                    self._gather_partition(rt, p, gather_ctx, update_file)
                    if has_updates
                    else 0
                )
                lo, hi = rt.partitioning.range_of(p)
                rt.algo.after_gather(gather_ctx, rt.state[lo:hi])
                stats.activated += activated
                scatter_allowed = (
                    self.config.max_iterations is None
                    or iteration < self.config.max_iterations
                )
                if scatter_allowed and self._should_scatter(rt, p, activated):
                    stats.updates_generated += self._scatter_partition(
                        rt, p, scatter_ctx, stats
                    )
                self._write_vertices(rt, p)
            for f in prev_updates:
                if f is not None:
                    rt.machine.vfs.delete(f.name)
            self._finish_pass(rt, stats)
            it_span.set(
                edges_scanned=stats.edges_scanned,
                updates_generated=stats.updates_generated,
                activated=stats.activated,
                partitions_processed=stats.partitions_processed,
                partitions_skipped=stats.partitions_skipped,
            )
        return stats.updates_generated

    def _finish_pass(self, rt: _RunState, stats: IterationStats) -> None:
        """Barrier: updates (and vertex writes) durable before the next pass."""
        clock = rt.machine.clock
        with rt.machine.tracer.span(
            "shuffle", iteration=stats.iteration
        ) as shuffle_span:
            new_updates: List[Optional[VirtualFile]] = []
            ends = []
            for w in rt.update_writers:
                w.close(drain=False)
                if w.last_end is not None:
                    ends.append(w.last_end)
                if w.file.num_records > 0:
                    new_updates.append(w.file)
                else:
                    rt.machine.vfs.delete(w.file.name)
                    new_updates.append(None)
            ends.extend(r.end for r in rt.pending_vertex_writes)
            if ends:
                clock.wait_until(max(ends))
            shuffle_span.set(
                updates_persisted=sum(
                    f.num_records for f in new_updates if f is not None
                ),
                update_bytes=sum(f.nbytes for f in new_updates if f is not None),
            )
        rt.pending_vertex_writes = []
        rt.update_writers = []
        rt.update_in = new_updates
        stats.clock_end = clock.now

    # ------------------------------------------------------------------
    # per-partition work
    # ------------------------------------------------------------------
    def _scatter_partition(
        self, rt: _RunState, p: int, ctx: AlgoContext, stats: IterationStats
    ) -> int:
        cfg = self.config
        cm = COST_MODEL
        machine = rt.machine
        lo, hi = rt.partitioning.range_of(p)
        state_view = rt.state[lo:hi]
        with machine.tracer.span("scatter", partition=p) as sc_span:
            in_file = self._edge_input_file(rt, p, ctx, stats)
            self._pre_partition_scatter(rt, p, ctx)
            reader = StreamReader(
                machine.clock,
                in_file,
                cfg.edge_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group=f"edges:p{p}",
                retry=cfg.retry,
            )
            generated = 0
            streamed = 0
            # The partition's state is read-only for the whole scatter, so
            # one staging of the indexed columns serves every run.
            columns = StagedColumns(state_view, rt.algo.scatter_columns)
            for run, bounds in _host_runs(reader):
                src_local = run["src"].astype(np.int64)
                src_local -= lo
                updates, sources, eliminate = rt.algo.scatter(
                    ctx, columns, src_local, run["src"], run["dst"]
                )
                trim = self._on_scatter_run(
                    rt, p, columns, run, src_local, eliminate, bounds, stats
                )
                sent = np.searchsorted(sources, bounds)
                # Batched kernels weight the charge by liveness-mask
                # popcount (one unit per query served); serial kernels
                # weight by record count — identical values there.
                weights = rt.algo.update_weights(updates, sent).tolist()
                produced = np.diff(sent).tolist()
                due, tails = _appends_due(
                    _route(
                        rt.partitioning, updates["dst"], updates, sources, bounds
                    ),
                    rt.update_writers,
                )
                # Replay the run's schedule, one modeled buffer at a time;
                # a writer is fed only where it flushes, and its tail after.
                for b, weight in enumerate(weights):
                    count = len(next(reader))
                    stats.edges_scanned += count
                    streamed += count
                    cm.charge(
                        machine.clock,
                        "scatter",
                        cm.scatter_per_edge,
                        count,
                        cfg.threads,
                        machine.cores,
                    )
                    if trim is not None:
                        trim(b)
                    if produced[b]:
                        cm.charge(
                            machine.clock,
                            "shuffle",
                            cm.shuffle_per_update,
                            weight,
                            cfg.threads,
                            machine.cores,
                        )
                        for writer, records in due.get(b, ()):
                            writer.append(records)
                for writer, records in tails:
                    writer.append(records)
                generated += len(updates)
            state_view["active"][:] = 0
            rt.algo.after_partition_scatter(ctx, state_view)
            self._post_partition_scatter(rt, p, ctx)
            sc_span.set(edges_streamed=streamed, updates_produced=generated)
        return generated

    def _gather_partition(
        self,
        rt: _RunState,
        p: int,
        ctx: AlgoContext,
        update_file: VirtualFile,
    ) -> int:
        cfg = self.config
        cm = COST_MODEL
        machine = rt.machine
        lo, _hi = rt.partitioning.range_of(p)
        state_view = rt.state[lo:_hi]
        with machine.tracer.span("gather", partition=p) as g_span:
            reader = StreamReader(
                machine.clock,
                update_file,
                cfg.update_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group=f"updates:p{p}",
                retry=cfg.retry,
            )
            activated = 0
            gathered = 0
            columns = StagedColumns(state_view, rt.algo.gather_columns)
            whole_run = rt.algo.gather_run_invariant
            for run, bounds in _host_runs(reader):
                dst_local = run["dst"].astype(np.int64)
                dst_local -= lo
                payload = rt.algo.gather_payload(run)
                weights = rt.algo.update_weights(run, bounds).tolist()
                if whole_run:
                    activated += rt.algo.gather(ctx, columns, dst_local, payload)
                for b, weight in enumerate(weights):
                    gathered += len(next(reader))
                    cm.charge(
                        machine.clock,
                        "gather",
                        cm.gather_per_update,
                        weight,
                        cfg.threads,
                        machine.cores,
                    )
                    if not whole_run:
                        # The kernel's count depends on where the buffers
                        # end (it says so): apply them one by one.
                        cut = slice(bounds[b], bounds[b + 1])
                        activated += rt.algo.gather(
                            ctx, columns, dst_local[cut], payload[cut]
                        )
            columns.write_back()
            g_span.set(updates_gathered=gathered, activated=activated)
        return activated

    # ------------------------------------------------------------------
    # vertex set I/O (timing anchors; state array is the data path)
    # ------------------------------------------------------------------
    def _vertex_nbytes(self, rt: _RunState, p: int) -> int:
        return rt.partitioning.size_of(p) * rt.algo.disk_record_bytes

    def _read_vertices(self, rt: _RunState, p: int) -> None:
        f = rt.vertex_files[p]
        req = submit_with_retry(
            rt.machine.clock,
            f,
            kind="read",
            nbytes=self._vertex_nbytes(rt, p),
            offset=0,
            group="vertices",
            retry=self.config.retry,
        )
        rt.machine.clock.wait_until(req.end)

    def _write_vertices(self, rt: _RunState, p: int) -> None:
        f = rt.vertex_files[p]
        req = submit_with_retry(
            rt.machine.clock,
            f,
            kind="write",
            nbytes=self._vertex_nbytes(rt, p),
            offset=0,
            group="vertices",
            retry=self.config.retry,
        )
        rt.pending_vertex_writes.append(req)

    # ------------------------------------------------------------------
    # update stream plumbing
    # ------------------------------------------------------------------
    def _open_update_writers(self, rt: _RunState, iteration: int) -> None:
        cfg = self.config
        parity = iteration % 2
        device = self._update_device(rt, iteration)
        rt.update_writers = [
            StreamWriter(
                rt.machine.clock,
                rt.machine.vfs.create(f"updates:{parity}:p{p}", device),
                cfg.update_buffer_bytes,
                group=f"updates:{parity}:p{p}",
                retry=cfg.retry,
            )
            for p in rt.partitioning
        ]

    def _update_device(self, rt: _RunState, iteration: int) -> Device:
        """Device for the update streams written during ``iteration``."""
        return rt.dev_updates

    def _active_per_partition(self, rt: _RunState) -> np.ndarray:
        active = np.flatnonzero(rt.state["active"])
        counts = np.zeros(rt.partitioning.count, dtype=np.int64)
        if len(active):
            parts = rt.partitioning.partition_of(active)
            counts += np.bincount(parts, minlength=rt.partitioning.count)
        return counts

    # ------------------------------------------------------------------
    # subclass hooks (X-Stream semantics by default)
    # ------------------------------------------------------------------
    def _before_run(self, rt: _RunState) -> None:
        """Called after planning/staging, before iteration 0."""

    def _after_run(self, rt: _RunState) -> None:
        """Called after the final pass, before the result is assembled."""

    def _should_process_partition(
        self, rt: _RunState, p: int, has_updates: bool, initial_active: int
    ) -> bool:
        """X-Stream touches every partition every pass (its weakness)."""
        return True

    def _should_scatter(self, rt: _RunState, p: int, activated: int) -> bool:
        """X-Stream streams the full edge list even with an empty frontier."""
        return True

    def _edge_input_file(
        self, rt: _RunState, p: int, ctx: AlgoContext, stats: IterationStats
    ) -> VirtualFile:
        """Which edge file scatter streams for partition ``p``."""
        return rt.edge_files[p]

    def _pre_partition_scatter(self, rt: _RunState, p: int, ctx: AlgoContext) -> None:
        """Hook before streaming a partition's edges."""

    def _on_scatter_run(
        self,
        rt: _RunState,
        p: int,
        columns: StagedColumns,
        run: np.ndarray,
        src_local: np.ndarray,
        eliminate: Optional[np.ndarray],
        bounds: np.ndarray,
        stats: IterationStats,
    ) -> Optional[Callable[[int], None]]:
        """Hook per host run of edges, after its scatter kernel.

        May return ``replay(b)``, which the schedule replay calls for each
        modeled buffer ``b`` of the run between that buffer's scatter and
        shuffle charges (FastBFS selects the run's surviving edges here and
        replays the trim charge per buffer and the stay appends at the
        buffers where the stay writer flushes, see :func:`_feeds`).
        """
        return None

    def _post_partition_scatter(self, rt: _RunState, p: int, ctx: AlgoContext) -> None:
        """Hook after a partition's scatter finished."""
