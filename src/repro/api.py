"""One-call convenience front-end.

:func:`run_bfs` wires together a dataset, a machine and an engine with
sensible defaults — the examples go through it, and it is the quickest
way to reproduce a single data point of the paper.
:func:`run_queries` is the batch front door: stage the graph once, run one
query per root entry, and report per-query plus amortized costs.  The CLI
traces and exports through the same :func:`_prepare_tracing` and
:func:`export_observability`.  Engine names resolve through
:data:`~repro.analysis.calibration.ENGINES`; the service is
:class:`repro.serve.GraphService` and the static analyzer
:func:`repro.tooling.analyzer.analyze_paths`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.analysis.calibration import ENGINES, make_engine
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.result import BatchResult, EngineResult
from repro.engines.xstream import XStreamEngine
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.obs import (
    CounterRegistry,
    Tracer,
    profile_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.storage.faults import FaultPlan
from repro.storage.machine import Machine

__all__ = [
    "ENGINES",
    "export_observability",
    "make_engine",
    "profile_trace",
    "run_bfs",
    "run_queries",
]

#: Anything run_bfs accepts as an engine instance.
AnyEngine = Union[FastBFSEngine, XStreamEngine, GraphChiEngine]
AnyEngineConfig = Union[FastBFSConfig, GraphChiConfig]


def _resolve_machine(
    machine: Optional[Machine],
    machine_kwargs: dict,
    fault_plan: Optional[FaultPlan] = None,
) -> Machine:
    if machine is None:
        return Machine.commodity_server(fault_plan=fault_plan, **machine_kwargs)
    if machine_kwargs:
        raise ConfigError("pass either a machine or machine kwargs, not both")
    if fault_plan is not None:
        raise ConfigError(
            "pass fault_plan only when run_bfs builds the machine; for your "
            "own machine use Machine(..., fault_plan=...) directly"
        )
    return machine


def _prepare_tracing(
    machine: Machine,
    trace_path: Optional[str],
    host_profile: bool = False,
) -> None:
    """Attach a fresh tracer when a trace export or host profile was
    requested; ``host_profile`` additionally binds the shared
    :class:`~repro.obs.hostprof.HostClock` so spans carry host stamps."""
    if (trace_path is not None or host_profile) and not machine.tracer.enabled:
        machine.attach_tracer(Tracer())
    if host_profile and machine.tracer.enabled:
        from repro.obs.hostprof import HOST_CLOCK

        machine.tracer.bind_host_clock(HOST_CLOCK)


def export_observability(
    machine: Machine,
    result: Union[EngineResult, BatchResult],
    trace_path: Optional[str],
    metrics_path: Optional[str],
) -> None:
    """Attach the counter snapshot to ``result`` and write export files.

    Counters are sampled from the machine (so they reconcile exactly with
    ``machine.report()``) and the run's engine-level counters are folded
    in.  Export is strictly post-run: nothing here touches the simulated
    clock or devices.
    """
    registry = CounterRegistry.from_machine(machine).ingest_result(result)
    if isinstance(result, BatchResult):
        for q in result.queries:
            q.metrics = CounterRegistry.from_report(q.report).ingest_result(q)
    if machine.tracer.enabled:
        registry.ingest_spans(machine.tracer)
    result.metrics = registry
    if trace_path is not None:
        write_spans_jsonl(machine.tracer, trace_path)
    if metrics_path is not None:
        write_prometheus(registry, metrics_path)


def run_bfs(
    graph: Graph,
    engine: Union[str, AnyEngine] = "fastbfs",
    machine: Optional[Machine] = None,
    root: int = 0,
    roots: Optional[Sequence[int]] = None,
    config: Optional[AnyEngineConfig] = None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    host_profile: bool = False,
    **machine_kwargs: object,
) -> EngineResult:
    """Run BFS on ``graph`` with the named engine and return its result.

    A fresh 4GB/4-core single-HDD commodity server is built unless
    ``machine`` is given; extra keyword arguments (``memory=``, ``cores=``,
    ``num_disks=``, ``disk_kind=``) configure that default machine.
    ``roots`` makes the single traversal multi-source (every engine
    supports it); for a *batch* of independent traversals use
    :func:`run_queries`.

    ``fault_plan`` attaches a seeded
    :class:`~repro.storage.faults.FaultPlan` to the default machine, so
    the run executes under deterministic fault injection (see
    ``docs/fault_injection.md``); injected failures the engine cannot
    absorb surface as typed :class:`~repro.errors.ReproError` subclasses.

    ``trace_path`` writes the span trace as JSONL (attaching a tracer to
    the machine if none is installed); ``metrics_path`` writes a
    Prometheus-style counter snapshot.  Either also attaches the sampled
    :class:`~repro.obs.CounterRegistry` as ``result.metrics``.  Tracing
    never changes simulated timings or byte totals.

    ``host_profile=True`` binds the host wall clock to the tracer
    (attaching one if needed) so every span carries host-side stamps;
    ``profile_trace(...).host()`` then yields the per-stage
    ``host_seconds_per_sim_second`` breakdown.  Host stamping is strictly
    neutral for simulated results (see :mod:`repro.obs.hostprof`).
    """
    machine = _resolve_machine(machine, machine_kwargs, fault_plan)
    _prepare_tracing(machine, trace_path, host_profile)
    eng = make_engine(engine, config) if isinstance(engine, str) else engine
    result = eng.run(graph, machine, root=root, roots=roots)
    export_observability(machine, result, trace_path, metrics_path)
    return result


def run_queries(
    graph: Graph,
    roots: Sequence,
    engine: Union[str, AnyEngine] = "fastbfs",
    machine: Optional[Machine] = None,
    config: Optional[AnyEngineConfig] = None,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    mode: str = "serial",
    host_profile: bool = False,
    **machine_kwargs: object,
) -> BatchResult:
    """Run one BFS per ``roots`` entry, staging the graph exactly once.

    Each entry is a root vertex (or a sequence of roots for one
    multi-source query).  The staged artifact is shared: staging I/O is
    paid once and the returned
    :class:`~repro.engines.result.BatchResult` carries the staging report,
    one per-query result, and amortized timings.

    ``mode`` selects the scheduler policy: ``"serial"`` (default) rewinds
    the machine between queries — the historical behaviour, bit for bit;
    ``"batched"`` packs the queries into MS-BFS batches of up to 64 that
    share one edge-scan timeline (see ``docs/batched_bfs.md``), returning
    bit-identical per-query levels/parents at a fraction of the edge
    scans.  Engines/algorithms without a batched kernel fall back to
    serial execution (``batch.extras["batched_fallback"]``).

    ``trace_path``/``metrics_path`` export the batch's span trace (one
    ``query`` span per root entry in serial mode; in batched mode one per
    batch of two or more roots, with ``query_slot`` markers, and a plain
    serial ``query`` span for a root left alone, such as the 65th) and
    counter snapshot, and
    attach registries to the batch (``batch.metrics``) and to every query
    (``query.metrics``, built from that query's delta report).
    """
    machine = _resolve_machine(machine, machine_kwargs)
    _prepare_tracing(machine, trace_path, host_profile)
    eng = make_engine(engine, config) if isinstance(engine, str) else engine
    batch = eng.run_many(graph, machine, roots=roots, mode=mode)
    export_observability(machine, batch, trace_path, metrics_path)
    return batch
