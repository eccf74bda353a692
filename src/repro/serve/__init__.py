"""Long-lived graph query service over staged artifacts.

``repro serve`` boots :class:`~repro.serve.app.GraphService`: an
:class:`~repro.serve.registry.ArtifactRegistry` of named staged graphs,
an :class:`~repro.serve.admission.AdmissionController` per graph that
coalesces concurrent BFS requests into MS-BFS batches, a per-graph
:class:`~repro.serve.health.CircuitBreaker` (healthy → degraded →
quarantined under flush failures), and a stdlib HTTP/JSON API.  See
docs/serving.md.
"""

from repro.serve.admission import AdmissionController, FlushRecord, Ticket
from repro.serve.app import GraphService
from repro.serve.health import BreakerPolicy, CircuitBreaker
from repro.serve.registry import (
    ArtifactRegistry,
    GraphEntry,
    parse_graph_spec,
)

__all__ = [
    "AdmissionController",
    "ArtifactRegistry",
    "BreakerPolicy",
    "CircuitBreaker",
    "FlushRecord",
    "GraphEntry",
    "GraphService",
    "Ticket",
    "parse_graph_spec",
]
