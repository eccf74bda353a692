"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch one
base class at API boundaries.  Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TimelineError(SimulationError):
    """A device timeline was asked to do something unschedulable."""


class StorageError(ReproError):
    """Virtual filesystem / device level failure."""


class OutOfSpaceError(StorageError):
    """A device ran out of modeled capacity."""


class IOFaultError(StorageError):
    """An injected device fault surfaced through the I/O path.

    Base class for the deterministic fault-injection subsystem
    (:mod:`repro.storage.faults`); raised variants say whether the fault
    is worth retrying.
    """


class TransientIOError(IOFaultError):
    """A fault that may succeed on retry (media glitch, timeout)."""


class PersistentIOError(IOFaultError):
    """A fault that will keep failing (bad sector, dead device)."""


class CrashError(ReproError):
    """An injected crash point killed the run mid-flight.

    Recoverable via :meth:`repro.engines.session.QuerySession.recover`,
    which replays the query from the sealed staged artifact plus the last
    machine checkpoint.
    """


class GraphError(ReproError):
    """Graph construction or I/O failure."""


class GraphFormatError(GraphError):
    """A binary graph file or its config sidecar is malformed."""


class PartitionError(GraphError):
    """Vertex partitioning request is infeasible."""


class EngineError(ReproError):
    """A graph engine reached an invalid state."""


class ValidationError(ReproError):
    """A computed result failed validation against a reference."""


class ServeError(ReproError):
    """A graph query service request could not be satisfied."""


class UnknownGraphError(ServeError):
    """A request named a graph the artifact registry has not staged."""


class QueueFullError(ServeError):
    """The admission queue is saturated; retry after the suggested delay.

    Carries ``retry_after`` (seconds) so the HTTP layer can emit a 429
    with a deterministic ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class GraphQuarantinedError(ServeError):
    """The graph's circuit breaker is open: serving is suspended.

    Raised at admission without touching the graph's machine.  Carries
    ``retry_after`` (seconds until probation re-entry) so the HTTP layer
    can emit a 503 with a deterministic ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class FlushFailedError(ServeError):
    """A served query's run failed and no other schedule was left to try.

    The only way an injected storage fault reaches a serving client: the
    run's checkpoint replays did not absorb it, and it was either a
    ticket's own serial re-run of a failed multi-ticket flush or a run of
    that ticket alone.  Mapped to HTTP 503 with ``Retry-After``.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceededError(ServeError):
    """A request's deadline expired before (or while) it was served.

    Raised for tickets whose ``deadline_ms`` budget ran out at dequeue or
    after their flush; mapped to HTTP 504.  ``queue_wait`` carries the
    seconds the ticket sat in the admission queue so latency accounting
    survives into the request log and time-series rings.
    """

    def __init__(
        self, message: str, deadline_ms: float = 0.0, queue_wait: float = 0.0
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.queue_wait = queue_wait


class SanitizerError(ReproError):
    """The runtime sanitizer detected a simulation-protocol violation."""
