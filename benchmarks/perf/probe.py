"""Timing probe for the traced pass: spans at each layer boundary.

The probe wraps the functions named in :data:`TARGETS` (resolved by dotted
name when it is installed, so ``src/`` needs no edit) with timing wrappers
that keep a per-thread stack.  Every call becomes one :class:`Span`
carrying its layer, name, start, end, parent span and the id of the
operation it ran under.  Spans stay in memory until the caller drains them.

Self time is a span's duration minus the time its child spans cover.  A
span's children are exactly the probed calls made on the same thread while
it was open, so they never overlap and the covered interval is the sum of
their durations; with integer nanosecond stamps the self times of an
operation's spans sum *exactly* to the duration of its root span.

A target that no longer resolves is recorded in ``Probe.missing`` and
skipped; it is never an error, so a refactor below the entry points cannot
break the benchmark, only blank one layer's numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional


class Target(NamedTuple):
    """One function to wrap: spans are charged to ``layer`` as ``name``."""

    layer: str
    name: str
    path: str
    #: ``args -> operation id``: set on the call that roots an operation's
    #: span tree in a process that does not open operations itself.
    op: Optional[Callable] = None
    #: ``(args, result) -> value`` kept on the span (a count or an outcome).
    note: Optional[Callable] = None


class Span(NamedTuple):
    id: int
    parent: int          # 0 for the root of a tree
    layer: str
    name: str
    op: Optional[str]
    start: int           # time.perf_counter_ns()
    end: int
    note: object = None
    failed: bool = False

    @property
    def duration(self) -> int:
        return self.end - self.start


def _request_id(args) -> Optional[str]:
    """The id the load generator put on the request ``do_POST`` handles."""
    return args[0].headers.get("X-Request-Id")


def _edge_count(args, result) -> int:
    # scatter(self, ctx, state, src_local, src_global, dst_global)
    return len(args[3])


def _stay_outcome(args, result) -> str:
    # resolve_input -> (file, "keep" | "swap" | "cancel")
    return result[1]


def _record_count(args, result) -> int:
    # append(self, p, records)
    return len(args[2])


TARGETS = (
    Target("graph", "generate", "repro.graph.generators.rmat_graph"),
    Target("graph", "generate", "repro.graph.datasets.build_dataset"),
    Target("graph.partition", "split",
           "repro.graph.partition.VertexPartitioning.split_by_partition"),
    Target("engines.base", "stage", "repro.engines.base.EdgeCentricEngine.stage"),
    Target("engines.session", "run", "repro.engines.session.QuerySession.run"),
    Target("engines.session", "run",
           "repro.engines.session.BatchedQuerySession.run"),
    Target("engines.session", "run_staged",
           "repro.engines.session.run_staged_queries"),
    Target("algorithms.streaming", "scatter",
           "repro.algorithms.streaming.BFSAlgorithm.scatter", note=_edge_count),
    Target("algorithms.streaming", "scatter",
           "repro.algorithms.streaming.BatchedBFSAlgorithm.scatter",
           note=_edge_count),
    Target("algorithms.streaming", "gather",
           "repro.algorithms.streaming.BFSAlgorithm.gather"),
    Target("algorithms.streaming", "gather",
           "repro.algorithms.streaming.BatchedBFSAlgorithm.gather"),
    Target("core.staystream", "append",
           "repro.core.staystream.StayStreamManager.append", note=_record_count),
    Target("core.staystream", "resolve",
           "repro.core.staystream.StayStreamManager.resolve_input",
           note=_stay_outcome),
    Target("core.staystream", "resolve",
           "repro.core.staystream.StayStreamManager.finish_partition"),
    Target("storage.streams", "read", "repro.storage.streams.StreamReader.__next__"),
    Target("storage.streams", "write", "repro.storage.streams.StreamWriter.append"),
    Target("storage.streams", "write", "repro.storage.streams.StreamWriter.flush"),
    Target("storage.streams", "write", "repro.storage.streams.StreamWriter.close"),
    Target("storage.streams", "write",
           "repro.storage.streams.AsyncStreamWriter.append"),
    Target("storage.device", "submit", "repro.storage.device.Device.submit"),
    Target("sim.timeline", "schedule", "repro.sim.timeline.Timeline.schedule"),
    Target("engines.costs", "charge", "repro.engines.costs.CostModel.charge"),
    Target("storage.vfs", "op", "repro.storage.vfs.VFS.create"),
    Target("storage.vfs", "op", "repro.storage.vfs.VFS.get"),
    Target("storage.vfs", "op", "repro.storage.vfs.VFS.replace"),
    Target("storage.vfs", "op", "repro.storage.vfs.VFS.delete"),
    Target("storage.vfs", "op", "repro.storage.vfs.VFS.snapshot"),
    Target("storage.vfs", "op", "repro.storage.vfs.VFS.restore"),
    Target("storage.vfs", "op", "repro.storage.vfs.VirtualFile.seal"),
    Target("storage.machine", "restore", "repro.storage.machine.Machine.restore"),
    Target("storage.machine", "checkpoint",
           "repro.storage.machine.Machine.checkpoint"),
    Target("storage.machine", "report", "repro.storage.machine.Machine.report"),
    Target("serve.registry", "register",
           "repro.serve.registry.ArtifactRegistry.register"),
    Target("serve.admission", "offer",
           "repro.serve.admission.AdmissionController.offer"),
    Target("serve.admission", "flush",
           "repro.serve.admission.AdmissionController.flush"),
    Target("serve.admission", "submit",
           "repro.serve.admission.AdmissionController.submit"),
    Target("obs.tracer", "span", "repro.obs.tracer.Tracer.span"),
    Target("obs.counters", "update",
           "repro.obs.counters.CounterRegistry.from_report"),
    Target("obs.counters", "update", "repro.obs.counters.CounterRegistry.merge"),
    Target("obs.counters", "update",
           "repro.obs.counters.CounterRegistry.ingest_result"),
    Target("obs.counters", "update",
           "repro.obs.counters.CounterRegistry.ingest_spans"),
    Target("serve.app", "handle_query",
           "repro.serve.app.GraphService.handle_query"),
    Target("serve.app", "do_post", "repro.serve.app._Handler.do_POST",
           op=_request_id),
)

#: Layer and name of the span :meth:`Probe.operation` opens.
OP_LAYER, OP_NAME = "bench", "op"


def _resolve(path: str):
    """``(owner, attribute)`` for a dotted path, importing its module."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        if parts[-1] not in vars(owner):
            raise AttributeError(path)
        return owner, parts[-1]
    raise ImportError(path)


class Probe:
    """Installs and removes the timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: List[tuple] = []    # Span fields; list.append is atomic under the GIL
        self._undo: List[tuple] = []
        self.missing: List[str] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self, targets: Iterable[Target] = TARGETS) -> "Probe":
        self.missing = []
        for target in targets:
            try:
                owner, attr = _resolve(target.path)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            if isinstance(owner, type):
                holders = [owner]
            else:
                # A module-level function: ``from m import f`` copied the
                # binding, so rebind it in every module that holds it.
                holders = [
                    mod for mod in list(sys.modules.values())
                    if mod is not None and getattr(mod, "__dict__", {}).get(attr) is raw
                ]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._undo.append((holder, attr, raw))
        return self

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        # This runs tens of thousands of times per operation, and whatever it
        # costs outside start..end lands in the caller's self time: locals
        # only, and a plain tuple per span (drain() names the fields).
        local, ids, record = self._local, self._ids, self._spans.append
        clock = time.perf_counter_ns
        layer, name, op_of, note_of = target.layer, target.name, target.op, target.note

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent, op = stack[-1] if stack else (0, None)
            if op_of is not None:
                op = op_of(args)
            span_id = next(ids)
            stack.append((span_id, op))
            note, failed = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if note_of is not None:
                    note = note_of(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                record((span_id, parent, layer, name, op, start, end, note, failed))

        return wrapper

    @contextmanager
    def operation(self, op_id: str) -> Iterator[None]:
        """Open the root span of one operation on the calling thread."""
        stack = self._stack()
        span_id = next(self._ids)
        stack.append((span_id, op_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._spans.append((span_id, 0, OP_LAYER, OP_NAME, op_id, start, end))

    def drain(self) -> List[Span]:
        """Every span recorded so far; the probe forgets them."""
        spans, self._spans[:] = [Span(*row) for row in self._spans], []
        return spans


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its child spans cover (ns)."""
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    for span in spans:
        covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def by_operation(spans: Iterable[Span]) -> Dict[Optional[str], List[Span]]:
    groups: Dict[Optional[str], List[Span]] = defaultdict(list)
    for span in spans:
        groups[span.op].append(span)
    return groups


def check_operation_sums(spans: Iterable[Span]) -> int:
    """Assert, per operation, that self times sum to the root's duration.

    The sum telescopes, so what can actually go wrong is the premise: the
    check is that every span lies inside its parent and beside, not over,
    its siblings.  Then no self time is negative, the covered interval is
    the sum of the child durations, and the equality (exact, the stamps
    being integer nanoseconds) lets a layer table be read as shares of the
    operation.  Returns the number of operations checked.
    """
    checked = 0
    for op, group in by_operation(spans).items():
        if op is None:
            continue
        by_id = {span.id: span for span in group}
        children: Dict[int, List[Span]] = defaultdict(list)
        roots = []
        for span in group:
            if span.parent in by_id:
                children[span.parent].append(span)
            else:
                roots.append(span)
        for parent_id, kids in children.items():
            parent = by_id[parent_id]
            reached = parent.start
            for kid in sorted(kids, key=lambda span: span.start):
                if kid.start < reached or kid.end > parent.end:
                    raise AssertionError(
                        f"operation {op!r}: span {kid.layer}.{kid.name} "
                        f"[{kid.start}, {kid.end}] is not nested in its parent "
                        f"or overlaps a sibling"
                    )
                reached = kid.end
        total_self = sum(self_times(group).values())
        total_root = sum(span.duration for span in roots)
        if total_self != total_root:
            raise AssertionError(
                f"operation {op!r}: self times sum to {total_self} ns, "
                f"root spans last {total_root} ns"
            )
        checked += 1
    return checked


class LayerTotal(NamedTuple):
    self_ns: int
    total_ns: int
    calls: int
    failed: int
    notes: list


def layer_totals(spans: Iterable[Span]) -> Dict[str, LayerTotal]:
    """``"layer.name"`` -> self time, inclusive time, calls, notes."""
    spans = list(spans)
    selfs = self_times(spans)
    acc: Dict[str, list] = {}
    for span in spans:
        row = acc.setdefault(f"{span.layer}.{span.name}", [0, 0, 0, 0, []])
        row[0] += selfs[span.id]
        row[1] += span.duration
        row[2] += 1
        row[3] += span.failed
        if span.note is not None:
            row[4].append(span.note)
    return {key: LayerTotal(*row) for key, row in acc.items()}


# ----------------------------------------------------------------------
# trace files: one JSON array per span
# ----------------------------------------------------------------------
def write_spans(path, spans: Iterable[Span], mode: str = "w") -> None:
    with open(path, mode, encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(list(span)))
            handle.write("\n")


def read_spans(path) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle if line.strip()]
