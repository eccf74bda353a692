"""Shared edge-centric BSP scaffolding (the X-Stream execution model).

One engine run executes an algorithm (BFS by default) as a sequence of
scatter/gather iterations over streaming partitions (paper §II-A):

1. an initial pass splits the raw edge list into per-partition out-edge
   files (a single sequential read + sequential writes — the "no expensive
   preprocessing" property);
2. every iteration is one pass of the same body
   (:meth:`EdgeCentricEngine._pass`): per partition, the gather of the
   previous pass's updates and this iteration's scatter share one load of
   the vertex set (the staging optimization FastBFS inherits from
   X-Stream, §III); pass 0 has nothing to gather and scatters the roots;
3. updates are shuffled into per-destination-partition update files using
   two alternating stream sets (in/out parity, §III), with a drain barrier
   before the pass that consumes them;
4. when the whole working set fits the memory budget the run switches to
   in-memory mode: the input is read from disk once and every stream lives
   on the RAM pseudo-device (the Fig. 9 cliff).

FastBFS's additions (paper §II-C, §III) run inline in the same loop, each
switched by the engine's :class:`~repro.core.config.FastBFSConfig` (the
one edge-centric config): at scatter entry the partition's pending stay
file is swapped in or cancelled
(:meth:`~repro.core.staystream.StayStreamManager.resolve_input`); where
the trim policy says so, the scatter selects each host run's surviving
edges into a stay writer; ``selective_scheduling`` skips partitions with
no frontier; ``rotate_streams`` alternates the disk a pass writes to; the
end of a run discards the outstanding stay files and reports the
``stay_*`` counters.  :class:`~repro.core.engine.FastBFSEngine` runs its
config as given; :class:`~repro.engines.xstream.XStreamEngine` pins every
addition off.

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
cancellation races and fault-plan positions depend on it.  When a
partition scans the same records again, the kernel of a run may see only
its live edges (:class:`_HeldEdges`); the replay still steps and charges
every buffer of the file.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.streaming import (
    AlgoContext,
    BFSAlgorithm,
    StreamingAlgorithm,
    VertexState,
)
from repro.core.config import FastBFSConfig
from repro.core.policies import TrimPolicy
from repro.core.staystream import StayStreamManager
from repro.engines.costs import COST_MODEL
from repro.engines.result import EngineResult, IterationStats
from repro.engines.session import (
    QuerySession,
    StagedGraph,
    run_staged_queries,
    staged_run,
)
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning, plan_partition_count
from repro.sim.timeline import ScheduledRequest
from repro.storage.device import Device
from repro.storage.faults import submit_with_retry
from repro.storage.machine import Machine
from repro.storage.streams import StreamReader, StreamWriter
from repro.storage.vfs import VirtualFile
from repro.tooling.sanitizer import check_report

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

#: A rescan compacts a partition's held edges to the live ones once at
#: least this share of them is dead.  Each compaction then at least halves
#: the set, so all of a query's compactions together copy no more than
#: its first rescan holds (docs/profiling.md, "A rescan hands the kernel
#: only the live edges").  Host work only, like ``HOST_RUN_RECORDS``.
COMPACT_DEAD_SHARE = 0.5


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


class _HeldEdges:
    """One partition's sealed edge records as its rescans in one query see
    them.

    A first scan casts per run and, for a trimming kernel, keeps references
    to the kernel's eliminate masks (``masks``).  The first rescan turns
    them into ``dead``; every rescan (:meth:`rescan`) compacts ``edges`` to
    the live ones, in stream order, once :data:`COMPACT_DEAD_SHARE` of them
    is dead, and holds ``src``, the sources of ``edges`` as read-only
    partition-local ``int64``.  ``positions`` are the file positions of
    ``edges`` (None until the first compaction: ``edges`` is the file).
    Sound because a trimming kernel never selects an edge it eliminated
    (:attr:`StreamingAlgorithm.supports_trimming`).
    """

    def __init__(self, records: np.ndarray, trims: bool) -> None:
        self.records = records
        self.masks: Optional[List[np.ndarray]] = [] if trims else None
        self.dead: Optional[np.ndarray] = None
        self.edges = records
        self.positions: Optional[np.ndarray] = None
        self.src: Optional[np.ndarray] = None

    def rescan(self, lo: int) -> None:
        """Ready the set for a rescan: the first one builds ``dead`` from
        the first scan's masks; any one compacts when due; ``src`` is cast
        after a compaction or when missing."""
        if self.masks is not None:
            self.dead = (
                np.concatenate(self.masks) if self.masks
                else np.zeros(len(self.records), dtype=bool)
            )
            self.masks = None
        if self.dead is not None:
            dead = np.count_nonzero(self.dead)
            if dead and dead >= COMPACT_DEAD_SHARE * len(self.dead):
                keep = np.flatnonzero(~self.dead)
                self.src = None
                self.edges = self.edges[keep]
                self.positions = (
                    keep if self.positions is None else self.positions[keep]
                )
                self.dead = np.zeros(len(keep), dtype=bool)
        if self.src is None:
            src = self.edges["src"].astype(np.int64)
            if lo:
                src -= lo
            src.flags.writeable = False
            self.src = src

    def keep(self, eliminate: Optional[np.ndarray]) -> None:
        """Keep a first scan's eliminate mask for the run it covers."""
        if self.masks is not None:
            if eliminate is None:
                self.masks = None
            else:
                self.masks.append(eliminate)

    def spend(
        self, i: int, j: int, eliminate: Optional[np.ndarray],
        sources: np.ndarray, start: int,
    ) -> np.ndarray:
        """Mark what the kernel eliminated in ``edges[i:j]`` dead, and map
        its ``sources`` to positions in the run that begins at ``start``."""
        if eliminate is not None:
            self.dead[i:j] |= eliminate
        if self.positions is None:
            return sources
        return self.positions[i:j].take(sources) - start

    def span(self, start: int, stop: int) -> Tuple[int, int]:
        """Where the file positions ``[start, stop)`` lie in ``edges``."""
        if self.positions is None:
            return start, stop
        i, j = np.searchsorted(self.positions, (start, stop)).tolist()
        return i, j


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


class _RunState:
    """Mutable per-query bundle so engines stay reusable across queries.

    Built by ``Engine._open_query``: the staged artifact the query runs
    against (``staged``, whose layout the passes read: partitioning,
    devices, vertex files), the machine, and per-query state only.
    GraphChi reads only the common head (machine, kernel, state,
    iterations, extras).  This is session-internal state: outside the
    ``engines``/``core`` subsystems nothing may construct one (analyzer
    rule FB107) — go through ``engine.run()`` / ``engine.run_many()`` or a
    :class:`~repro.engines.session.QuerySession`.
    """

    def __init__(self) -> None:
        self.staged = None  # StagedGraph, or GraphChi's prepared shards
        self.machine: Machine = None  # type: ignore[assignment]
        self.algo: StreamingAlgorithm = None  # type: ignore[assignment]
        self.state: VertexState = None  # type: ignore[assignment]
        #: The edge file each partition scans; a swapped-in stay file
        #: replaces the staged one for the rest of the query.
        self.edge_files: List[VirtualFile] = []
        self.update_in: List[Optional[VirtualFile]] = []
        self.update_writers: List[StreamWriter] = []
        self.pending_vertex_writes: List[ScheduledRequest] = []
        #: Per partition, the sealed edge records it last scanned, as its
        #: rescans see them.
        self.held_edges: Dict[int, _HeldEdges] = {}
        self.iterations: List[IterationStats] = []
        self.extras: Dict[str, float] = {}
        # Stay streams and the trim policy, set by an edge-centric run.
        self.stay: Optional[StayStreamManager] = None
        self.trim_policy: Optional[TrimPolicy] = None
        #: The trim policy's call for the current pass: whether its
        #: scatters write stay streams.
        self.trimming = False


class Engine:
    """The query front doors every engine inherits.

    ``run``, ``run_many`` and ``session`` are one implementation over
    :mod:`repro.engines.session`: validate the roots, check that the
    machine is fresh, ``stage``, then drive query sessions
    (:class:`~repro.engines.session.QuerySession`), which own the session
    protocol (entry checkpoint, delta report, ``query`` span, sanitizer
    check, crash recovery).  An engine supplies ``stage`` and the passes
    in between: :meth:`_open_query` builds a query's :class:`_RunState`
    and :meth:`_run_passes` runs it to convergence.
    """

    name = "engine"

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
        covers exactly this run.  This is the one front door,
        :func:`~repro.engines.session.staged_run`, driving one
        :class:`~repro.engines.session.QuerySession`, with the result's
        report widened from the session's delta to the machine's
        cumulative one (staging + query).  For several traversals of one
        graph use :meth:`run_many`.
        """
        algo = self._kernel(algorithm)

        def drive(staged, validated):
            result = self.session(staged, algo).run(roots=validated[0])
            result.report = machine.report()
            return result

        return staged_run(
            self, graph, machine, algo,
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
        multi-source query).  The graph is staged once, through the same
        front door as :meth:`run`: every root entry is validated before
        staging, so a bad query fails before any machine state changes.
        (``run_staged_queries`` validates its entries again: it is also the
        serving layer's front door, which has no staging step to validate
        ahead of.)

        ``mode="serial"`` (default): before every query the machine is
        rewound to the post-staging checkpoint, so every query starts from
        an identical clock/VFS/device state and its report covers only
        that query.

        ``mode="batched"``: entries are packed into MS-BFS batches of up to
        :data:`~repro.algorithms.streaming.BATCH_WIDTH` queries, each batch
        advanced by one shared scatter/gather timeline (one edge scan for
        the whole batch) and demultiplexed into per-query results that are
        bit-identical to the serial ones.  The machine is rewound before
        every *batch*.  Where the artifact cannot run the algorithm
        batched (no batched kernel, or GraphChi's shards) the queries run
        serially, recorded as ``extras["batched_fallback"]``.

        Returns a :class:`~repro.engines.result.BatchResult`.
        """
        algo = self._kernel(algorithm)

        def drive(staged, validated):
            return run_staged_queries(
                self, staged, machine.checkpoint(), roots,
                algorithm=algo, mode=mode,
            )

        return staged_run(self, graph, machine, algo, roots, mode, drive)

    def session(self, staged, algorithm: Optional[StreamingAlgorithm] = None):
        """A fresh single-use :class:`QuerySession` against ``staged``."""
        return QuerySession(self, staged, algorithm=algorithm)

    # ------------------------------------------------------------------
    # what an engine supplies
    # ------------------------------------------------------------------
    def _kernel(self, algorithm: Optional[StreamingAlgorithm]) -> StreamingAlgorithm:
        """The kernel a query runs (default BFS); checked before staging."""
        return algorithm if algorithm is not None else BFSAlgorithm()

    def _open_query(self, staged, kernel: StreamingAlgorithm) -> _RunState:
        """The per-query bundle of ``kernel`` against ``staged``; the
        session then sets its ``state``."""
        rt = _RunState()
        rt.staged = staged
        rt.machine = staged.machine
        rt.algo = kernel
        return rt

    def _run_passes(self, staged, rt: _RunState) -> None:
        """Run the query's passes to convergence, leaving the answer in
        ``rt.state`` and the per-pass counters in ``rt.iterations``."""
        raise NotImplementedError


class EdgeCentricEngine(Engine):
    """X-Stream's scatter/gather engine with FastBFS's additions, each
    switched by the engine's :class:`~repro.core.config.FastBFSConfig`."""

    name = "edge-centric"

    def __init__(self, config: Optional[FastBFSConfig] = None) -> None:
        self.config = config if config is not None else FastBFSConfig()

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
        files_before = machine.vfs.snapshot()
        with machine.tracer.span(
            "stage", engine=self.name, graph=graph.name, edges=graph.num_edges
        ) as stage_span:
            staged = self._stage_body(graph, machine, cfg, algo, baseline)
            stage_span.set(
                partitions=staged.partitioning.count, in_memory=staged.in_memory
            )
        check_report(staged.staging_report, machine.vfs, files_before)
        return staged

    def _stage_body(self, graph, machine, cfg, algo, baseline):
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
            )
            writers = [
                StreamWriter(
                    machine.clock,
                    vfs.create(f"edges:p{p}", dev_edges),
                    cfg.edge_buffer_bytes,
                    group=f"partition:p{p}",
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
                w.close()
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
    # one query
    # ------------------------------------------------------------------
    def _open_query(self, staged, kernel: StreamingAlgorithm) -> _RunState:
        rt = super()._open_query(staged, kernel)
        rt.edge_files = list(staged.edge_files)
        rt.update_in = [None] * staged.partitioning.count
        rt.extras["partitions"] = float(staged.partitioning.count)
        rt.extras["in_memory"] = float(staged.in_memory)
        return rt

    def _run_passes(self, staged, rt: _RunState) -> None:
        """The scatter/gather timeline to convergence; then the discard of
        every outstanding stay file, the ``stay_*`` counters, and the
        release of any per-query file swapped in over a staged edge file (a
        stay file promoted to edge-input duty is session state; the
        artifact's own files are never displaced)."""
        cfg = self.config
        machine = rt.machine
        if staged.in_memory:
            stay_device = machine.ram
        else:
            stay_device = machine.disk(
                cfg.stay_disk if cfg.stay_disk is not None else EDGE_DISK
            )
        rt.stay = StayStreamManager(
            machine.clock, machine.vfs, stay_device, cfg,
            protected=staged.protected_names(),
            tracer=machine.tracer,
        )
        rt.trim_policy = TrimPolicy(cfg, rt.algo.supports_trimming)
        iteration = 0
        while self._pass(rt, iteration) > 0:
            iteration += 1
        rt.stay.discard_all()
        counts, passes = asdict(rt.stay.stats), rt.iterations
        records = sum(it.stay_records_written for it in passes)
        counts.update(
            swaps=sum(it.stay_swaps for it in passes),
            cancellations=sum(len(it.stay_cancelled) for it in passes),
            records_written=records,
            bytes_written=records * staged.input_file.record_size,
        )
        rt.extras.update((f"stay_{k}", float(v)) for k, v in counts.items())
        for p, f in enumerate(rt.edge_files):
            if f is not staged.edge_files[p]:
                rt.machine.vfs.delete_if_exists(f.name)

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _pass(self, rt: _RunState, iteration: int) -> int:
        """Pass ``iteration``: per partition, gather the updates the last
        pass shuffled to it, then scatter this iteration, sharing one
        vertex load (the staging X-Stream does, §III).  Pass 0 gathers
        nothing: its frontier is the roots.  Returns the updates it
        generated; the run ends at a pass that generates none."""
        cfg = self.config
        gather_ctx = AlgoContext(iteration - 1)
        scatter_ctx = AlgoContext(iteration)
        previous = rt.iterations[-1] if rt.iterations else None
        rt.trimming = rt.trim_policy.trimming_active(iteration, previous)
        stats = IterationStats(iteration=iteration)
        rt.iterations.append(stats)
        part = rt.staged.partitioning
        update_in = rt.update_in
        if iteration:
            frontier = [0 if f is None else f.num_records for f in update_in]
        else:
            frontier = self._active_per_partition(rt).tolist()
        with rt.machine.tracer.span(
            "iteration", iteration=iteration, frontier=sum(frontier)
        ) as it_span:
            self._open_update_writers(rt, iteration=iteration)
            for p in part:
                # Selective scheduling (§II-C3): skip a partition with no
                # frontier; X-Stream touches every partition every pass.
                if cfg.selective_scheduling and not frontier[p]:
                    stats.partitions_skipped += 1
                    continue
                stats.partitions_processed += 1
                COST_MODEL.charge_phase(rt.machine.clock, cfg.threads)
                self._read_vertices(rt, p)
                scatters = True
                if iteration:
                    activated = (
                        self._gather_partition(rt, p, gather_ctx, update_in[p])
                        if frontier[p]
                        else 0
                    )
                    lo, hi = part.range_of(p)
                    rt.algo.after_gather(gather_ctx, rt.state[lo:hi])
                    stats.activated += activated
                    scatters = (
                        rt.algo.rounds is None or iteration < rt.algo.rounds
                    ) and (activated > 0 or not cfg.selective_scheduling)
                if scatters:
                    stats.updates_generated += self._scatter_partition(
                        rt, p, scatter_ctx, stats
                    )
                self._write_vertices(rt, p)
            for f in update_in:
                if f is not None:
                    rt.machine.vfs.delete(f.name)
            self._finish_pass(rt, stats)
            it_span.set(
                edges_scanned=stats.edges_scanned,
                updates_generated=stats.updates_generated,
                **({"activated": stats.activated} if iteration else {}),
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
                w.close()
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
        lo, hi = rt.staged.partitioning.range_of(p)
        state_view = rt.state[lo:hi]
        with machine.tracer.span("scatter", partition=p) as sc_span:
            # The cross-iteration swap (§II-C2): the stay file the last
            # trimming scatter wrote becomes the input, or is cancelled.
            in_file, outcome = rt.stay.resolve_input(p, rt.edge_files[p])
            if outcome == "swap":
                rt.edge_files[p] = in_file
                stats.stay_swaps += 1
            elif outcome == "cancel":
                stats.stay_cancelled.append(p)
            stay = (
                rt.stay.open(
                    p, ctx.iteration,
                    device=self._write_disk(rt, ctx.iteration),
                    input_file=in_file,
                )
                if rt.trimming else None
            )
            reader = StreamReader(
                machine.clock,
                in_file,
                cfg.edge_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group=f"edges:p{p}",
            )
            generated = 0
            streamed = 0
            held = self._held_edges(rt, p, in_file.records(), lo)
            rescan = held is not None and held.src is not None
            # A rescan hands the kernel only the edges it has not eliminated,
            # unless it writes a stay file: its survivors include the edges
            # dead only here, so each run then goes to the kernel whole.
            live = rescan and held.dead is not None and stay is None
            start = 0
            for run, bounds in _host_runs(reader):
                stop = start + len(run)
                trim = None
                if live:
                    i, j = held.span(start, stop)
                    edges = held.edges[i:j]
                    updates, sources, eliminate = rt.algo.scatter(
                        ctx, state_view, held.src[i:j], edges["src"], edges["dst"]
                    )
                    sources = held.spend(i, j, eliminate, sources, start)
                else:
                    if rescan and held.positions is None:
                        src_local = held.src[start:stop]
                    else:
                        src_local = run["src"].astype(np.int64)
                        if lo:
                            src_local -= lo
                    updates, sources, eliminate = rt.algo.scatter(
                        ctx, state_view, src_local, run["src"], run["dst"]
                    )
                    if not rescan:
                        held.keep(eliminate)
                    if stay is not None and eliminate is not None:
                        trim = self._select_survivors(
                            rt, p, state_view, run, src_local, eliminate,
                            bounds, stats,
                        )
                start = stop
                sent = np.searchsorted(sources, bounds)
                # Batched kernels weight the charge by liveness-mask
                # popcount (one unit per query served); serial kernels
                # weight by record count — identical values there.
                weights = rt.algo.update_weights(updates, sent).tolist()
                produced = np.diff(sent).tolist()
                due, tails = _appends_due(
                    _route(
                        rt.staged.partitioning, updates["dst"], updates, sources, bounds
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
            rt.stay.finish_partition(p)
            sc_span.set(edges_streamed=streamed, updates_produced=generated)
        return generated

    def _select_survivors(
        self,
        rt: _RunState,
        p: int,
        state: VertexState,
        run: np.ndarray,
        src_local: np.ndarray,
        eliminate: np.ndarray,
        bounds: np.ndarray,
        stats: IterationStats,
    ) -> Callable[[int], None]:
        """Select a host run's surviving edges into partition ``p``'s stay
        writer, once, and return ``replay(b)``, which the schedule replay
        calls for each modeled buffer ``b`` of the run between its scatter
        and shuffle charges: it charges the buffer's trim and appends the
        survivors at the buffers where the stay writer flushes
        (:func:`_feeds`), the tail at the run's last buffer."""
        cfg = self.config
        if cfg.extended_trim:
            eliminate = rt.algo.extended_eliminate(state, src_local, eliminate)
        # Each modeled buffer's share of the survivors is a slice, found
        # from where the buffer bounds fall among the surviving positions.
        keep = np.flatnonzero(~eliminate)
        survivors = rt.stay.stage_survivors(p, run, keep)
        cuts = np.searchsorted(keep, bounds).tolist()
        scanned = np.diff(bounds).tolist()
        flushes, tail = _feeds(rt.stay.current(p), survivors, cuts)
        if len(tail):
            flushes[len(scanned) - 1] = tail

        def replay(b: int) -> None:
            kept = cuts[b + 1] - cuts[b]
            stats.edges_eliminated += scanned[b] - kept
            stats.stay_records_written += kept
            COST_MODEL.charge(
                rt.machine.clock,
                "trim",
                COST_MODEL.trim_per_edge,
                kept,
                cfg.threads,
                rt.machine.cores,
            )
            records = flushes.get(b)
            if records is not None:
                rt.stay.append(p, records)

        return replay

    def _held_edges(
        self, rt: _RunState, p: int, records: np.ndarray, lo: int
    ) -> Optional[_HeldEdges]:
        """Partition ``p``'s held edge set for a scan of ``records``: a
        fresh one on a first scan (``src`` None), the same one, readied by
        :meth:`_HeldEdges.rescan`, when it scans them again.

        Keyed on the sealed array's identity, not on its file: a file whose
        array is replaced (``VirtualFile.corrupt_at``) is new input.  Held
        in the query's state, so it goes with the query.
        """
        if records.dtype.names is None:  # empty file that never learned its dtype
            return None
        held = rt.held_edges.get(p)
        if held is None or held.records is not records:
            held = rt.held_edges[p] = _HeldEdges(
                records, rt.algo.supports_trimming
            )
        else:
            held.rescan(lo)
        return held

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
        lo, _hi = rt.staged.partitioning.range_of(p)
        state_view = rt.state[lo:_hi]
        with machine.tracer.span("gather", partition=p) as g_span:
            reader = StreamReader(
                machine.clock,
                update_file,
                cfg.update_buffer_bytes,
                prefetch=cfg.num_edge_buffers,
                group=f"updates:p{p}",
            )
            activated = 0
            gathered = 0
            whole_run = rt.algo.gather_run_invariant
            for run, bounds in _host_runs(reader):
                dst_local = run["dst"].astype(np.int64)
                if lo:
                    dst_local -= lo
                payload = rt.algo.gather_payload(run)
                weights = rt.algo.update_weights(run, bounds).tolist()
                if whole_run:
                    activated += rt.algo.gather(ctx, state_view, dst_local, payload)
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
                            ctx, state_view, dst_local[cut], payload[cut]
                        )
            g_span.set(updates_gathered=gathered, activated=activated)
        return activated

    # ------------------------------------------------------------------
    # vertex set I/O (timing anchors; state array is the data path)
    # ------------------------------------------------------------------
    def _vertex_nbytes(self, rt: _RunState, p: int) -> int:
        return rt.staged.partitioning.size_of(p) * rt.algo.disk_record_bytes

    def _read_vertices(self, rt: _RunState, p: int) -> None:
        f = rt.staged.vertex_files[p]
        req = submit_with_retry(
            rt.machine.clock,
            f,
            kind="read",
            nbytes=self._vertex_nbytes(rt, p),
            offset=0,
            group="vertices",
        )
        rt.machine.clock.wait_until(req.end)

    def _write_vertices(self, rt: _RunState, p: int) -> None:
        f = rt.staged.vertex_files[p]
        req = submit_with_retry(
            rt.machine.clock,
            f,
            kind="write",
            nbytes=self._vertex_nbytes(rt, p),
            offset=0,
            group="vertices",
        )
        rt.pending_vertex_writes.append(req)

    # ------------------------------------------------------------------
    # update stream plumbing
    # ------------------------------------------------------------------
    def _open_update_writers(self, rt: _RunState, iteration: int) -> None:
        cfg = self.config
        parity = iteration % 2
        device = self._write_disk(rt, iteration)
        if device is None:
            device = rt.staged.dev_updates
        rt.update_writers = [
            StreamWriter(
                rt.machine.clock,
                rt.machine.vfs.create(f"updates:{parity}:p{p}", device),
                cfg.update_buffer_bytes,
                group=f"updates:{parity}:p{p}",
            )
            for p in rt.staged.partitioning
        ]

    def _write_disk(self, rt: _RunState, iteration: int) -> Optional[Device]:
        """Target disk for streams produced during ``iteration``.

        With ``rotate_streams`` every write of iteration *i* (stay-out and
        updates) lands on disk ``(i+1) % 2`` and is read back from there in
        iteration *i+1*, so on a two-disk machine reads and writes never
        contend (paper Fig. 10).  ``None``: the stream's own device.
        """
        if rt.staged.in_memory or not self.config.rotate_streams:
            return None
        return rt.machine.disk((iteration + 1) % 2)

    def _active_per_partition(self, rt: _RunState) -> np.ndarray:
        active = np.flatnonzero(rt.state["active"])
        counts = np.zeros(rt.staged.partitioning.count, dtype=np.int64)
        if len(active):
            parts = rt.staged.partitioning.partition_of(active)
            counts += np.bincount(parts, minlength=rt.staged.partitioning.count)
        return counts
