"""The X-Stream baseline (Roy et al., SOSP'13), as the paper runs it.

X-Stream is exactly the shared edge-centric scaffolding with no FastBFS
additions: every partition is touched every pass, the full edge list is
streamed every iteration regardless of frontier size, and nothing is ever
trimmed.  Its strengths (sequential bandwidth, no preprocessing, in-memory
mode when the graph fits) all live in :class:`EdgeCentricEngine`; its
weakness — "indiscriminately traverses the whole graph in every iteration"
(paper §IV-B) — is the default hook behaviour.

The staged-graph/query-session split applies unchanged: ``stage()`` builds
the per-partition edge files once, and ``run_many()`` amortizes that cost
over a batch of traversals.  Because X-Stream never swaps stay files over
the staged inputs, a query session leaves the artifact untouched even
without the protection machinery FastBFS needs.

Fault resilience is likewise inherited from the scaffolding: every edge,
update and vertex stream goes through
:func:`~repro.storage.faults.submit_with_retry` within the machine's
fault plan's ``max_attempts``, and crash/resume works through
:meth:`QuerySession.recover <repro.engines.session.QuerySession.recover>`.
X-Stream has no stay files, so the checksum-fallback layer simply never
engages — the chaos harness (``repro chaos``) runs it as the
trimming-free control.
"""

from __future__ import annotations

from repro.engines.base import EdgeCentricEngine


class XStreamEngine(EdgeCentricEngine):
    """Edge-centric BSP engine without trimming or selective scheduling."""

    name = "x-stream"
