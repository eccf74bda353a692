"""Bounded recent-request ring backing the ``/debug/requests`` endpoints.

End-to-end request tracing for the serving layer: every finished query
request — leader or follower of a coalesced flush, success or error —
deposits a :class:`RequestRecord` here.  A record remembers what the
response told the client (the ``X-Queue-Wait-Seconds`` / ``X-Sim-*``
timing breakdown, the flush id and size) *plus* the flush's full span
tree, so ``GET /debug/requests/{id}`` can reconstruct exactly where a
specific request's time went after the fact — which flush it coalesced
into, which iteration dominated, how long it sat in the admission queue.

Tickets of one flush share the flush tracer's span list (the admission
controller hands the same list to every drained ticket), so a 16-wide
flush costs one trace, not sixteen copies.  The ring is bounded
(:class:`collections.deque` ``maxlen``) — debugging state never grows
with uptime — and has no lock of its own: its owner, the service,
reads and writes it under the one lock that keeps its books.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.obs.tracer import Span

#: Number of requests the ring remembers.
REQUEST_LOG_CAPACITY = 64


class RequestRecord:
    """One served (or failed) request, as the client saw it."""

    __slots__ = (
        "request_id", "graph", "algorithm", "roots", "status",
        "flush_id", "flush_size", "timing", "error", "spans",
    )

    def __init__(
        self,
        request_id: str,
        graph: Optional[str],
        algorithm: Optional[str],
        roots: Optional[object] = None,
        status: int = 200,
        flush_id: Optional[str] = None,
        flush_size: int = 0,
        timing: Optional[Dict[str, float]] = None,
        error: Optional[Dict[str, str]] = None,
        spans: Optional[Sequence[Span]] = None,
    ) -> None:
        self.request_id = request_id
        self.graph = graph
        self.algorithm = algorithm
        self.roots = roots
        self.status = status
        self.flush_id = flush_id
        self.flush_size = flush_size
        #: The same queue-wait + sim-time breakdown the response's
        #: ``X-Queue-Wait-Seconds``/``X-Sim-*`` headers carried.
        self.timing = dict(timing) if timing else {}
        self.error = dict(error) if error else None
        self.spans = list(spans) if spans is not None else []

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """One line of ``GET /debug/requests``."""
        return {
            "request_id": self.request_id,
            "graph": self.graph,
            "algorithm": self.algorithm,
            "status": self.status,
            "flush_id": self.flush_id,
            "flush_size": self.flush_size,
            "queue_wait_seconds": self.timing.get("queue_wait_seconds", 0.0),
            "sim_execution_seconds": self.timing.get(
                "sim_execution_seconds", 0.0
            ),
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full ``GET /debug/requests/{id}`` payload: summary + span tree."""
        out = self.summary()
        out["roots"] = self.roots
        out["timing"] = dict(self.timing)
        out["spans"] = [sp.to_dict() for sp in self.spans]
        query = self._own_query_span()
        if query is not None:
            out["query_span_id"] = query.span_id
            if query.host_timed:
                out["host_service_seconds"] = query.host_duration
        return out

    def _own_query_span(self) -> Optional[Span]:
        """The ``query`` span whose ``request_ids`` names this request."""
        for sp in self.spans:
            if sp.name != "query":
                continue
            ids = sp.attrs.get("request_ids")
            if isinstance(ids, (list, tuple)) and self.request_id in ids:
                return sp
        return None


class RequestLog:
    """Bounded ring of :class:`RequestRecord` objects (owner-locked)."""

    def __init__(self) -> None:
        self._ring: "deque[RequestRecord]" = deque(maxlen=REQUEST_LOG_CAPACITY)

    def record(self, record: RequestRecord) -> None:
        self._ring.append(record)

    def get(self, request_id: str) -> Optional[RequestRecord]:
        """Newest record with this id (client-supplied ids may repeat)."""
        for record in reversed(self._ring):
            if record.request_id == request_id:
                return record
        return None

    def summaries(self) -> List[Dict[str, object]]:
        """Summary lines, newest request first."""
        return [r.summary() for r in reversed(self._ring)]

    def __len__(self) -> int:
        return len(self._ring)


__all__ = [
    "REQUEST_LOG_CAPACITY",
    "RequestLog",
    "RequestRecord",
]
