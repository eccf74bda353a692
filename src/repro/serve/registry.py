"""Artifact registry: named staged graphs pinned behind an LRU cache.

The serving cost model of the ROADMAP's "millions of users" goal: a graph
is staged **once** when it is registered (the sequential split into
per-partition edge files — the expensive part), and every query thereafter
rewinds the pinned machine to the post-staging checkpoint and replays only
the traversal (see :func:`repro.engines.session.run_staged_queries`).  A
:class:`GraphEntry` bundles everything one graph needs to serve forever:
the sealed :class:`~repro.engines.session.StagedGraph`, the warm
:class:`~repro.storage.machine.Machine`, the quiescent checkpoint, the
monitor that serializes executions on that machine and the graph's
admission queue.

Registry capacity is bounded (``max_graphs``); registering beyond it
evicts the least-recently-used entry, and the registry holds nothing
else of it: once its in-flight tickets are answered, its machine, artifact
and queue are garbage.
Boot-time warmup takes a list of graph specs (see :func:`parse_graph_spec`)
so a server starts with its working set already staged.

Faults reach the server here: the registry-wide
:class:`~repro.storage.faults.FaultPlan` is attached to each entry's
machine **after** staging and **before** the post-staging checkpoint, so
the artifact is built clean but every query replay runs on faulty
simulated devices; the engine config's ``retry`` sets its I/O-level
retries.  Each entry also carries its own
:class:`~repro.serve.health.CircuitBreaker` — the per-graph
healthy/degraded/quarantined state machine the admission layer drives,
and its own :class:`~repro.serve.admission.AdmissionController`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.calibration import engine_kind, make_engine
from repro.engines.base import EdgeCentricEngine
from repro.engines.session import StagedGraph
from repro.errors import ConfigError, GraphError, UnknownGraphError
from repro.graph.datasets import DATASETS, build_dataset
from repro.graph.generators import (
    grid_graph,
    path_graph,
    RMAT_MAX_SCALE,
    powerlaw_graph,
    random_graph,
    rmat_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.obs.counters import CounterRegistry
from repro.obs.hostprof import HostClock
from repro.serve.admission import AdmissionController, check_admission_settings
from repro.serve.health import CircuitBreaker
from repro.storage.faults import FaultPlan
from repro.storage.machine import Machine

#: Generator spec kinds accepted by :func:`parse_graph_spec`, mapping
#: ``kind`` to (builder, integer parameter names in builder order, the
#: larger of the vertex and edge counts the builder would allocate for
#: those parameters).  The estimate runs before the builder and on anything
#: a client sends: it only has to be right for parameters the builder
#: accepts (an R-MAT scale the builder refuses is left for it to refuse,
#: not shifted by).
_GENERATORS: Dict[str, Tuple[Callable, Tuple[str, ...], Callable[..., int]]] = {
    "rmat": (
        rmat_graph, ("scale", "edge_factor", "seed"),
        lambda scale, edge_factor=16, seed=0: (
            edge_factor << scale if 0 <= scale <= RMAT_MAX_SCALE else 0
        ),
    ),
    "random": (
        random_graph, ("num_vertices", "num_edges", "seed"),
        lambda num_vertices, num_edges, seed=0: max(num_vertices, num_edges),
    ),
    "powerlaw": (
        powerlaw_graph, ("num_vertices", "num_edges", "seed"),
        lambda num_vertices, num_edges, seed=0: max(num_vertices, num_edges),
    ),
    "grid": (grid_graph, ("width", "height"), lambda width, height: 2 * width * height),
    "path": (path_graph, ("num_vertices",), lambda num_vertices: num_vertices),
    "star": (star_graph, ("num_leaves",), lambda num_leaves: num_leaves),
}


def parse_graph_spec(
    spec: str, max_edges: Optional[int] = None
) -> Tuple[str, Graph]:
    """Resolve one warmup/registration spec to ``(name, graph)``.

    Three forms:

    * a Table II dataset name (``"rmat22"``, ``"twitter_rv"``) — built at
      the active scale divisor;
    * a generator spec ``"kind:key=value,key=value"`` with kinds
      ``rmat`` / ``random`` / ``powerlaw`` / ``grid`` / ``path`` /
      ``star`` (e.g. ``"rmat:scale=12,edge_factor=8,seed=7"``);
    * either of the above aliased as ``"name@spec"`` — the registry name
      to serve the graph under (defaults to the graph's own name).

    With ``max_edges``, a generator spec whose parameters ask for more
    edges or vertices than that is refused before the generator runs.
    """
    alias: Optional[str] = None
    if "@" in spec:
        alias, spec = spec.split("@", 1)
        if not alias:
            raise ConfigError(f"empty alias in graph spec {alias}@{spec}")
    if ":" not in spec:
        if spec not in DATASETS:
            raise ConfigError(
                f"unknown dataset {spec!r}; options: {sorted(DATASETS)} "
                "(or a generator spec like 'rmat:scale=12,edge_factor=8')"
            )
        graph = build_dataset(spec)
        return alias or spec, graph
    kind, _, body = spec.partition(":")
    if kind not in _GENERATORS:
        raise ConfigError(
            f"unknown generator kind {kind!r}; options: "
            f"{sorted(_GENERATORS)}"
        )
    builder, param_names, edge_estimate = _GENERATORS[kind]
    params: Dict[str, int] = {}
    for item in filter(None, body.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(
                f"malformed generator parameter {item!r} in {spec!r} "
                "(expected key=value)"
            )
        if key not in param_names:
            raise ConfigError(
                f"unknown parameter {key!r} for generator {kind!r}; "
                f"options: {param_names}"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise ConfigError(
                f"generator parameter {key!r} must be an int, got {value!r}"
            )
    try:
        if max_edges is not None:
            estimate = edge_estimate(**params)
            if estimate > max_edges:
                raise ConfigError(
                    f"generator spec {spec!r} asks for about {estimate} "
                    f"edges or vertices; the limit is {max_edges}"
                )
        graph = builder(**params)
    except TypeError:
        raise ConfigError(
            f"generator spec {spec!r} is missing required parameters "
            f"(accepted: {param_names})"
        )
    except GraphError as exc:
        raise ConfigError(f"generator spec {spec!r} is refused: {exc}")
    return alias or graph.name, graph


class GraphEntry:
    """One registered graph: sealed artifact, warm machine, monitor,
    breaker, admission queue.

    ``monitor``, the graph's one sync primitive, guards the admission
    queue, its tickets' ``done`` flags, the serving counters, the breaker
    and ``flushing``: set while a flush runs on ``machine`` (which rewinds
    to ``checkpoint`` around each run, so two runs at once would corrupt
    each other), and waited on by the next flush.  It lives on the entry,
    not in ``admission``, so a second controller of the entry (a
    benchmark's own) cannot run on the machine at the same time.
    """

    #: The graph's admission queue, built by :meth:`ArtifactRegistry.register`.
    admission: AdmissionController

    def __init__(
        self,
        name: str,
        graph: Graph,
        engine,
        machine: Machine,
        staged: StagedGraph,
        checkpoint,
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[HostClock] = None,
        on_transition: Optional[Callable[[str, str, str, str], None]] = None,
    ) -> None:
        self.name = name
        self.graph = graph
        self.engine = engine
        self.machine = machine
        self.staged = staged
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        self.monitor = threading.Condition()
        self.flushing = False
        self.health = CircuitBreaker(
            self.monitor, name, clock=clock, on_transition=on_transition
        )
        #: Monotonic serving counters, maintained by the admission layer.
        self.queries_served = 0
        self.flushes = 0

    def stats(self) -> Dict:
        """JSON-safe snapshot for the ``/graphs/{name}/stats`` endpoint."""
        staged = self.staged
        return {
            "name": self.name,
            "graph": {
                "name": self.graph.name,
                "num_vertices": int(self.graph.num_vertices),
                "num_edges": int(self.graph.num_edges),
            },
            "engine": self.engine.name,
            "partitions": int(staged.num_partitions),
            "in_memory": bool(staged.in_memory),
            "staging_report": (
                staged.staging_report.to_dict()
                if staged.staging_report is not None
                else None
            ),
            "queries_served": int(self.queries_served),
            "flushes": int(self.flushes),
            "fault_plan": (
                {"specs": len(self.fault_plan.specs), "seed": self.fault_plan.seed}
                if self.fault_plan is not None
                else None
            ),
            "health": self.health.snapshot(include_transitions=False),
        }


class ArtifactRegistry:
    """Bounded name -> :class:`GraphEntry` LRU of staged artifacts."""

    def __init__(
        self,
        engine: str = "fastbfs",
        config=None,
        machine_factory: Optional[Callable[[], Machine]] = None,
        max_graphs: int = 4,
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[HostClock] = None,
        on_transition: Optional[Callable[[str, str, str, str], None]] = None,
        capacity: int = 128,
        default_deadline_ms: Optional[float] = None,
        metrics_sink: Optional[Callable[[CounterRegistry], None]] = None,
    ) -> None:
        engine_class = engine_kind(engine).engine
        # Serving is scoped to the edge-centric engines; GraphChi is a
        # baseline of the paper's measurements.  (Its shard artifact does
        # rewind and recover through the same query sessions.)
        if not issubclass(engine_class, EdgeCentricEngine):
            raise ConfigError(
                f"engine {engine!r} is not servable: the query service runs "
                "the edge-centric engines only"
            )
        if max_graphs < 1:
            raise ConfigError(f"max_graphs must be >= 1, got {max_graphs}")
        check_admission_settings(capacity, default_deadline_ms)
        self.engine_name = engine
        self._make_engine = lambda: make_engine(engine, config)
        self._machine_factory = machine_factory or Machine.commodity_server
        self.max_graphs = max_graphs
        #: Attached to every entry's machine after staging.
        self.fault_plan = fault_plan
        self.clock = clock
        self.on_transition = on_transition
        #: Every entry's admission settings (see AdmissionController).
        self.capacity = capacity
        self.default_deadline_ms = default_deadline_ms
        self.metrics_sink = metrics_sink
        self._entries: "OrderedDict[str, GraphEntry]" = OrderedDict()
        self._lock = threading.Lock()

    def register(self, name: str, graph: Graph) -> GraphEntry:
        """Stage ``graph`` under ``name``; evict LRU beyond capacity.

        Staging happens outside the registry lock (it is the slow part);
        if two racers register the same name the later result wins.
        Re-registering an existing name replaces its entry.

        Staging always runs on clean devices; the registry's fault plan is
        attached after staging and before the post-staging
        :meth:`~repro.storage.machine.Machine.checkpoint`, so the
        checkpoint captures the injector's initial schedule state and
        every rewind-and-replay query faces the same fault timeline.
        """
        engine = self._make_engine()
        machine = self._machine_factory()
        staged = engine.stage(graph, machine)
        machine.attach_fault_plan(self.fault_plan)
        checkpoint = machine.checkpoint()
        entry = GraphEntry(
            name,
            graph,
            engine,
            machine,
            staged,
            checkpoint,
            fault_plan=self.fault_plan,
            clock=self.clock,
            on_transition=self.on_transition,
        )
        entry.admission = AdmissionController(
            entry,
            capacity=self.capacity,
            metrics_sink=self.metrics_sink,
            clock=self.clock,
            default_deadline_ms=self.default_deadline_ms,
        )
        with self._lock:
            self._entries.pop(name, None)
            self._entries[name] = entry
            while len(self._entries) > self.max_graphs:
                self._entries.popitem(last=False)
        return entry

    def get(self, name: str) -> GraphEntry:
        """Fetch an entry (marking it most-recently-used) or raise."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownGraphError(
                    f"graph {name!r} is not registered; "
                    f"registered: {sorted(self._entries)}"
                )
            self._entries.move_to_end(name)
            return entry

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def entries(self) -> Dict[str, GraphEntry]:
        """Snapshot of every entry WITHOUT touching LRU order.

        Health/readiness polling (``/healthz``, ``/debug/health``) must
        not count as "use" or a dashboard would pin dead graphs in cache.
        """
        with self._lock:
            return dict(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def warmup(self, specs: Sequence[str]) -> List[GraphEntry]:
        """Register every spec in order (see :func:`parse_graph_spec`)."""
        entries = []
        for spec in specs:
            name, graph = parse_graph_spec(spec)
            entries.append(self.register(name, graph))
        return entries


__all__ = [
    "ArtifactRegistry",
    "GraphEntry",
    "parse_graph_spec",
]
