"""Staged-graph artifacts and query sessions.

The monolithic ``EdgeCentricEngine.run()`` conflated two phases with very
different lifetimes:

* **staging** — splitting the raw edge list into per-partition edge files
  (plus the vertex-set files), one sequential read + sequential writes.
  This depends only on (graph, machine profile, engine config, vertex
  record size) and is reusable across traversals;
* **querying** — one BFS/WCC/... execution: frontier state, update
  streams, the FastBFS stay/trim machinery, iteration stats.

This module makes the cut explicit.  A :class:`StagedGraph` is the sealed
artifact produced by ``engine.stage()``; a :class:`QuerySession` owns all
per-query state and runs exactly one algorithm execution against a staged
artifact.  ``engine.run()`` is literally ``stage() + one session``, and
``engine.run_many()`` stages once, then rewinds the machine before every
session via the ``Machine.checkpoint()/restore()`` protocol — amortizing
staging I/O to ~1/Q of its monolithic cost over Q queries.

There is one session driver, :meth:`QuerySession._execute`, and one
crash-replay loop, :func:`run_with_recovery`, for every engine: the
driver keeps the protocol (entry checkpoint, reports, ``query`` span,
sanitizer check, crash bookkeeping) and asks the engine only for the
passes (``engine._open_query`` / ``engine._run_passes``: the edge-centric
scatter/gather timeline, or GraphChi's PSW interval loop over its own
artifact).  Serial execution is the one-slot case of the driver;
:class:`BatchedQuerySession` runs many slots through it by swapping the
kernel and overriding a few hooks.

Session internals (the ``_RunState`` bundle) are private to the engine
layer; external code must go through the session API (enforced by
analyzer rule FB107).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.algorithms.streaming import (
    BATCH_WIDTH,
    BatchedBFSAlgorithm,
    BFSAlgorithm,
    StreamingAlgorithm,
    check_roots,
)
from repro.core.config import FastBFSConfig
from repro.engines.result import BatchResult, EngineResult, IterationStats
from repro.errors import ConfigError, CrashError, EngineError
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning
from repro.storage.device import Device
from repro.storage.machine import IOReport, Machine
from repro.storage.vfs import VirtualFile
from repro.tooling.sanitizer import check_report

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.engines.base import Engine


@dataclass
class StagedGraph:
    """The reusable partitioning artifact of one ``engine.stage()`` call.

    Holds the partitioning plan, the sealed per-partition edge files and
    the vertex-set files, all living in ``machine``'s VFS.  The artifact is
    valid for any algorithm whose ``disk_record_bytes`` matches
    ``record_bytes`` (the value the partition count was planned with), on
    this machine, under the config it was staged with.
    """

    graph: Graph
    machine: Machine
    config: FastBFSConfig
    record_bytes: int
    partitioning: VertexPartitioning
    in_memory: bool
    dev_edges: Device
    dev_updates: Device
    dev_vertices: Device
    input_file: VirtualFile
    edge_files: List[VirtualFile] = field(default_factory=list)
    vertex_files: List[VirtualFile] = field(default_factory=list)
    #: Delta report covering exactly the staging I/O and compute.
    staging_report: Optional[IOReport] = None

    @property
    def num_partitions(self) -> int:
        return self.partitioning.count

    @property
    def staging_time(self) -> float:
        return self.staging_report.execution_time if self.staging_report else 0.0

    def protected_names(self) -> frozenset:
        """VFS names a query session must never delete or displace."""
        names = {self.input_file.name}
        names.update(f.name for f in self.edge_files)
        names.update(f.name for f in self.vertex_files)
        return frozenset(names)

    def compatible_with(self, algorithm: StreamingAlgorithm) -> bool:
        """Whether the partition plan is valid for ``algorithm``."""
        return algorithm.disk_record_bytes == self.record_bytes

    def runs_batched(self, algorithm: StreamingAlgorithm) -> bool:
        """Whether ``algorithm`` has a batched (MS-BFS) kernel to run here."""
        return algorithm.batched(1) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StagedGraph({self.graph.name!r}, partitions={self.num_partitions}, "
            f"in_memory={self.in_memory})"
        )


def validate_entries(
    num_vertices: int, roots: Sequence, mode: str
) -> List[np.ndarray]:
    """The typed checks every query front door makes on its arguments.

    Returns one validated root array per ``roots`` entry (a root vertex,
    or a sequence of roots for a multi-source query).  Touches no machine
    state, so the engines call it before staging.
    """
    if len(roots) == 0:
        raise EngineError("a query batch needs at least one root entry")
    if mode not in ("serial", "batched"):
        raise ConfigError(f"mode must be 'serial' or 'batched', got {mode!r}")
    return [check_roots(num_vertices, entry) for entry in roots]


def staged_run(
    engine, graph: Graph, machine: Machine, algorithm, roots, mode, drive
):
    """The one query front door every engine's ``run``/``run_many`` goes
    through: validate the arguments, check that the machine is fresh,
    ``engine.stage(...)``, then ``drive(staged, validated)``.  A bad
    query fails before any machine state changes, and the report of a
    fresh machine covers exactly this call.
    """
    validated = validate_entries(graph.num_vertices, roots, mode)
    if machine.clock.now != 0.0 or len(machine.vfs) != 0:
        raise EngineError(
            "machine has already been used; engines need a fresh Machine "
            "per run (build a new one, or use run_many, which rewinds "
            "with Machine.checkpoint()/restore() between queries)"
        )
    return drive(engine.stage(graph, machine, algorithm=algorithm), validated)


#: Crash/resume replays the serving layer's admission flushes and the
#: chaos harness arm inside one ``run_staged_queries`` call.  Crash specs
#: carry ``max_fires`` budgets, so this bounds plans whose crashes never
#: stop firing, not correct ones.
MAX_RECOVERIES = 4


def run_with_recovery(session: "QuerySession", invoke, max_recoveries: int):
    """Run ``invoke()``; on :class:`CrashError`, replay via ``session.recover()``.

    The crash/resume loop shared by the serving layer's admission flushes
    and the chaos harness.  ``invoke`` must return the session's results
    as a list, the shape ``recover()`` returns.  Up to ``max_recoveries``
    replays are attempted — each rewinds the machine to the session's
    entry checkpoint and re-runs, so a surviving replay is bit-identical
    to an uncrashed run.  With ``max_recoveries=0`` the first crash
    propagates untouched.
    """
    attempt = invoke
    for _ in range(max_recoveries):
        try:
            return attempt()
        except CrashError:
            attempt = session.recover
    return attempt()


def run_staged_queries(
    engine: "Engine",
    staged: StagedGraph,
    checkpoint,
    roots: Sequence,
    algorithm: Optional[StreamingAlgorithm] = None,
    mode: str = "serial",
    span_attrs: Optional[dict] = None,
    max_recoveries: int = 0,
):
    """Run one query per ``roots`` entry against an existing artifact.

    The registry-safe core of ``engine.run_many``: instead of demanding a
    fresh machine and staging inline, this takes a :class:`StagedGraph`
    plus the post-staging :class:`~repro.storage.machine.MachineCheckpoint`
    and rewinds the machine to that quiescent point before every
    execution.  A long-lived front door (``repro.serve``) stages once at
    registration and calls this for every request batch; sessions never
    displace the artifact's files, so the checkpoint stays valid forever.

    Modes are as in ``run_many``: ``"serial"`` cuts the entries into
    chunks of one, ``"batched"`` into chunks of up to
    :data:`~repro.algorithms.streaming.BATCH_WIDTH`, falling back to
    serial (recorded in ``extras["batched_fallback"]``) where the artifact
    cannot run the algorithm batched (``staged.runs_batched``: no batched
    kernel, or GraphChi's shards).  Either way it is one loop over chunks,
    and the chunk's width picks the session: a chunk of two or more runs as
    one :class:`BatchedQuerySession` (an MS-BFS batch), a chunk of one as
    a :class:`QuerySession` on the serial kernel, so a one-root batched
    call, a 65th root or a one-ticket serving flush is exactly a serial
    query (same answer, report and iteration stats).  In batched mode
    every chunk, one-root ones included, adds its timeline to
    ``shared_iterations`` and ``batch_times``.  Returns a
    :class:`~repro.engines.result.BatchResult` whose ``staging_report`` is
    the artifact's (staging was paid when the artifact was built, not
    here).

    ``span_attrs`` attaches extra attributes to every ``query`` span this
    call opens (purely observational — attrs never touch the clock).  The
    serving layer uses it for end-to-end request tracing: it passes
    ``{"flush_id": ..., "request_ids": [...]}`` with one request id per
    root entry, and the ``request_ids`` list is sliced to match each
    chunk; the query slots of a batch of two or more additionally carry
    their own ``request_id`` on the ``query_slot`` marker.

    ``max_recoveries > 0`` arms :func:`run_with_recovery`: a
    :class:`~repro.errors.CrashError` inside any session triggers up to
    that many ``session.recover()`` replays (each marked in
    ``extras["recovered"]`` and traced as a ``recover`` span) before the
    crash propagates.  Only meaningful on fault-injected machines.
    """
    algo = algorithm if algorithm is not None else BFSAlgorithm()
    validated = validate_entries(staged.graph.num_vertices, roots, mode)
    extras: dict = {}
    batched = mode == "batched" and staged.runs_batched(algo)
    if mode == "batched" and not batched:
        extras["batched_fallback"] = 1.0
    queries: List[EngineResult] = []
    shared_iterations: List[IterationStats] = []
    batch_times: List[float] = []
    width = BATCH_WIDTH if batched else 1
    for index, start in enumerate(range(0, len(validated), width)):
        chunk = validated[start:start + width]
        attrs = dict(span_attrs or {})
        if isinstance(attrs.get("request_ids"), (list, tuple)):
            attrs["request_ids"] = list(
                attrs["request_ids"][start:start + width]
            )
        staged.machine.restore(checkpoint)
        # A chunk of one is a serial query whatever the mode: the batched
        # kernel's 64-bit query mask only pays for itself when it is shared.
        if len(chunk) > 1:
            session = BatchedQuerySession(
                engine,
                staged,
                algo.batched(len(chunk)),
                serial_algorithm=algo,
                batch_index=index,
                span_attrs=attrs,
            )
            invoke = lambda: session.run(chunk)
        else:
            session = QuerySession(
                engine, staged, algorithm=algo, span_attrs=attrs
            )
            invoke = lambda: [session.run(roots=chunk[0])]
        queries.extend(run_with_recovery(session, invoke, max_recoveries))
        if batched:
            shared_iterations.extend(session.iterations)
            batch_times.append(session.report.execution_time)
    if batched:
        extras["num_batches"] = float(len(batch_times))
    for q, result in enumerate(queries):
        result.query_index = q
    return BatchResult(
        engine=engine.name,
        algorithm=algo.name,
        graph_name=staged.graph.name,
        staging_report=staged.staging_report,
        queries=queries,
        extras=extras,
        mode="batched" if batched else "serial",
        shared_iterations=shared_iterations,
        batch_times=batch_times,
    )


class QuerySession:
    """One algorithm execution against a :class:`StagedGraph` (or
    GraphChi's shard artifact).

    A session owns every piece of per-query state: the vertex state array,
    the update streams, the FastBFS stay-stream manager and trim policy,
    and the per-iteration stats.  Sessions are single-use — open a new one
    per query (``engine.session(staged)``), or let ``engine.run_many``
    drive the checkpoint/restore loop for you.

    The artifact stays intact: FastBFS stay-file swaps leave the staged
    edge files in place, and swapped-in per-query files are deleted when
    the session finishes.  The result's report covers only what this
    session cost — the machine's counters at session end minus session
    start.

    There is one driver, :meth:`_execute`, which runs a list of *slots*
    (one validated root array per query) through one scatter/gather
    timeline.  This class is its one-slot case; the methods below
    ``_execute`` are the hooks :class:`BatchedQuerySession` overrides to
    run several slots per timeline.
    """

    def __init__(
        self,
        engine: "Engine",
        staged: StagedGraph,
        algorithm: Optional[StreamingAlgorithm] = None,
        span_attrs: Optional[dict] = None,
    ) -> None:
        self.engine = engine
        self.staged = staged
        #: The algorithm the artifact was planned for; names the results.
        self.algorithm = algorithm if algorithm is not None else BFSAlgorithm()
        #: The algorithm whose kernels drive the passes.
        self.kernel = self.algorithm
        if not staged.compatible_with(self.algorithm):
            raise EngineError(
                f"the staged artifact cannot run algorithm "
                f"{self.algorithm.name!r} — re-stage for this algorithm"
            )
        self.span_attrs = dict(span_attrs) if span_attrs else {}
        self._used = False
        # Crash/resume state: the quiescent entry checkpoint (taken only on
        # fault-injected machines) and the slots of a crashed run.
        self._checkpoint = None
        self._crashed: Optional[list] = None
        #: Per-pass counters of the timeline (set when the run finishes).
        self.iterations: List[IterationStats] = []
        #: Delta report of the timeline (set when the run finishes).
        self.report: Optional[IOReport] = None

    # ------------------------------------------------------------------
    def run(
        self, root: int = 0, roots: Optional[Sequence[int]] = None
    ) -> EngineResult:
        """Execute the session's algorithm from ``root`` (or ``roots``).

        The kernel's ``init_state`` checks the roots, before the session
        touches the machine.  Returns an :class:`EngineResult` whose report
        covers this query only.  Raises on reuse: per-query state is
        consumed by the run.
        """
        return self._execute([roots if roots is not None else [root]])[0]

    # ------------------------------------------------------------------
    def _execute(self, slots: list) -> List[EngineResult]:
        """Run ``slots`` through one timeline; one result per slot."""
        if self._used:
            raise EngineError(
                f"{type(self).__name__} is single-use: open another "
                "session for the next execution"
            )
        engine = self.engine
        staged = self.staged
        machine = staged.machine
        kernel = self.kernel
        rt = engine._open_query(staged, kernel)
        self._init_state(rt, slots)  # checks the roots; the machine is untouched
        if "active" not in rt.state.dtype.names:
            raise EngineError("algorithm state must contain an 'active' field")
        self._used = True
        if getattr(machine, "fault_injector", None) is not None:
            # Session entry is a quiescent point (post-staging barrier or
            # post-restore), so this checkpoint is the crash/resume anchor:
            # recover() rewinds here and replays the whole execution.
            self._checkpoint = machine.checkpoint()
        baseline = machine.report()
        files_before = machine.vfs.snapshot()
        try:
            with machine.tracer.span(
                "query",
                engine=engine.name,
                algorithm=kernel.name,
                graph=staged.graph.name,
                roots=[int(r) for slot in slots for r in slot],
                **self._query_attrs(),
                **self.span_attrs,
            ) as q_span:
                engine._run_passes(staged, rt)
                q_span.set(iterations=len(rt.iterations))
                self._mark_slots(rt, slots)
            self.iterations = rt.iterations
            self.report = machine.report().minus(baseline)
            check_report(
                self.report,
                machine.vfs,
                files_before,
                rt.stay.stats if rt.stay is not None else None,
                rt.iterations,
            )
            return self._results(rt, self.report)
        except CrashError:
            # Remember what was being asked so recover() can replay it.
            # The injected "crash" span was already emitted by the fault
            # injector at the failure point; the open query/iteration spans
            # were closed by their context managers as the error unwound.
            self._crashed = slots
            raise

    # ------------------------------------------------------------------
    def recover(self) -> List[EngineResult]:
        """Resume after a :class:`CrashError` killed the execution.

        Rewinds the machine to this session's entry checkpoint (the sealed
        :class:`StagedGraph` is untouched by queries, so staging is never
        repeated) and replays the same slots from re-initialized state.
        Because the simulation is deterministic and the fault injector's
        one-shot budgets are *not* rewound by restore, the replay runs
        past the crash point and produces bit-identical output to an
        uncrashed run.

        Returns the replayed results, one per slot (a one-element list
        for a one-root session), each carrying ``extras["recovered"]``.
        Raises :class:`EngineError` if the session did not crash.  If the
        replay crashes again (another crash fault with remaining budget)
        the session is recoverable again from the same anchor.
        """
        if self._crashed is None:
            raise EngineError(
                "nothing to recover: the session did not crash "
                "(recover() is only valid after run() raised CrashError)"
            )
        if self._checkpoint is None:
            raise EngineError(
                "cannot recover: no entry checkpoint was taken "
                "(the machine has no fault injector)"
            )
        machine = self.staged.machine
        machine.restore(self._checkpoint)
        resumed_at = machine.clock.now
        slots, self._crashed = self._crashed, None
        self._used = False
        results = self._execute(slots)
        if machine.fault_injector is not None:
            machine.fault_injector.record_recovery()
        machine.tracer.emit(
            "recover",
            start=resumed_at,
            end=resumed_at,
            engine=self.engine.name,
            roots=[int(r) for slot in slots for r in slot],
            **self._query_attrs(),
        )
        for result in results:
            result.extras["recovered"] = 1.0
        return results

    # ------------------------------------------------------------------
    # hooks: the one-slot case
    # ------------------------------------------------------------------
    def _init_state(self, rt, slots: list) -> None:
        """Build ``rt.state`` for ``slots``."""
        rt.state = self.kernel.init_state(
            self.staged.graph.num_vertices, slots[0]
        )

    def _query_attrs(self) -> dict:
        """Extra attributes of the ``query`` span and ``recover`` marker."""
        return {}

    def _mark_slots(self, rt, slots: list) -> None:
        """Emit per-slot trace markers inside the ``query`` span."""

    def _results(self, rt, report: IOReport) -> List[EngineResult]:
        """Assemble one :class:`EngineResult` per slot."""
        return [
            EngineResult(
                engine=self.engine.name,
                algorithm=self.algorithm.name,
                graph_name=self.staged.graph.name,
                output=self.kernel.result(rt.state),
                report=report,
                iterations=rt.iterations,
                extras=dict(rt.extras),
            )
        ]


class BatchedQuerySession(QuerySession):
    """One MS-BFS batch: 2 to 64 queries sharing a single scatter/gather
    timeline against a :class:`StagedGraph`.

    The same driver as :class:`QuerySession` with a :class:`~repro.
    algorithms.streaming.BatchedBFSAlgorithm` as the kernel — one `query`
    span, one sequence of iteration spans, one delta report — and hooks
    that demultiplex the batch state into per-query
    :class:`EngineResult` objects whose levels/parents are bit-identical to Q
    serial runs.  Per-query iteration stats are synthesized from the
    kernel's per-pass bookkeeping (updates/activated per query per pass);
    shared-scan counters (edges scanned, partitions processed) belong to
    the batch timeline and are exposed as :attr:`iterations`, with each
    demuxed query reporting zero edge scans of its own.

    ``run_staged_queries`` opens one only for two or more queries: a
    width-1 batch would stream the same edges as the serial kernel but
    write 16-byte update records and round-trip two mask words per vertex
    per pass, so a query alone runs as a plain :class:`QuerySession`.
    """

    def __init__(
        self,
        engine: "Engine",
        staged: StagedGraph,
        algorithm: BatchedBFSAlgorithm,
        serial_algorithm: Optional[StreamingAlgorithm] = None,
        batch_index: int = 0,
        span_attrs: Optional[dict] = None,
    ) -> None:
        # The artifact's partition plan was made for the *serial* record
        # width, which is what the base class checks; the batched kernel
        # streams the same staged files and charges its own (mask-word)
        # width for per-pass vertex I/O.
        super().__init__(
            engine,
            staged,
            serial_algorithm if serial_algorithm is not None else algorithm.serial,
            span_attrs=span_attrs,
        )
        self.kernel = algorithm
        self.batch_index = batch_index

    # ------------------------------------------------------------------
    def run(self, roots: Sequence) -> List[EngineResult]:
        """Execute the batch; one root entry per query slot (a root vertex
        or a sequence of roots for a multi-source slot).  Returns one
        demultiplexed :class:`EngineResult` per slot, in order.
        """
        return self._execute([np.atleast_1d(np.asarray(r)) for r in roots])

    # ------------------------------------------------------------------
    # hooks: many slots per timeline
    # ------------------------------------------------------------------
    def _init_state(self, rt, slots: list) -> None:
        rt.extras["batch_size"] = float(self.kernel.num_queries)
        rt.state = self.kernel.init_state(
            self.staged.graph.num_vertices, slots
        )

    def _query_attrs(self) -> dict:
        return {"batch": self.batch_index, "batch_size": self.kernel.num_queries}

    def _mark_slots(self, rt, slots: list) -> None:
        # Zero-width per-slot markers inside the batch's query span;
        # purely observational (never touches the clock).
        machine = self.staged.machine
        parent = machine.tracer.current_id
        now = machine.clock.now
        slot_ids = self.span_attrs.get("request_ids")
        for q, slot in enumerate(slots):
            slot_attrs = {}
            if isinstance(slot_ids, (list, tuple)) and q < len(slot_ids):
                slot_attrs["request_id"] = slot_ids[q]
            machine.tracer.emit(
                "query_slot",
                start=now,
                end=now,
                parent_id=parent,
                batch=self.batch_index,
                query_slot=q,
                roots=[int(r) for r in slot],
                iterations=self.kernel.query_iterations(q, len(rt.iterations)),
                **slot_attrs,
            )

    def _results(self, rt, report: IOReport) -> List[EngineResult]:
        return [
            self._demux_query(rt, report, q)
            for q in range(self.kernel.num_queries)
        ]

    def _demux_query(self, rt, report: IOReport, q: int) -> EngineResult:
        """Per-query result: slot ``q``'s output columns plus iteration
        stats synthesized from the kernel's per-pass bookkeeping.

        ``updates_generated``/``activated`` match what a serial run of the
        slot would report per pass; edge scans and partition scheduling
        happened once for the whole batch and are *not* attributed to any
        query (they live in :attr:`iterations`).
        """
        kernel = self.kernel
        num_passes = len(rt.iterations)
        iterations = []
        for i in range(kernel.query_iterations(q, num_passes)):
            shared = rt.iterations[i] if i < num_passes else None
            iterations.append(
                IterationStats(
                    iteration=i,
                    updates_generated=int(kernel.per_query_updates(i)[q]),
                    activated=int(kernel.per_query_activated(i)[q]),
                    clock_end=shared.clock_end if shared else 0.0,
                )
            )
        extras = dict(rt.extras)
        extras["batch"] = float(self.batch_index)
        extras["query_slot"] = float(q)
        return EngineResult(
            engine=self.engine.name,
            algorithm=self.algorithm.name,
            graph_name=self.staged.graph.name,
            output=kernel.query_output(q),
            report=report,
            iterations=iterations,
            extras=extras,
        )
