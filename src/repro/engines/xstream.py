"""The X-Stream baseline (Roy et al., SOSP'13), as the paper runs it.

X-Stream is the edge-centric loop with every FastBFS addition off: every
partition is touched every pass, the full edge list is streamed every
iteration regardless of frontier size, and nothing is ever trimmed.  Its
strengths (sequential bandwidth, no preprocessing, in-memory mode when the
graph fits) all live in :class:`EdgeCentricEngine`; its weakness —
"indiscriminately traverses the whole graph in every iteration" (paper
§IV-B) — is the ``x-stream`` config: whatever config the engine is given
runs with ``trim_enabled``, ``selective_scheduling`` and
``rotate_streams`` off and ``stay_disk=None``.

The staged-graph/query-session split, fault resilience and crash/resume
are the loop's own.  X-Stream writes no stay files, so its ``stay_*``
counters read zero, a query session never swaps a file over the staged
inputs, and the checksum-fallback layer never engages — the chaos harness
(``repro chaos``) runs it as the trimming-free control.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.engines.base import EdgeCentricEngine, EngineConfig


class XStreamEngine(EdgeCentricEngine):
    """Edge-centric BSP engine without trimming or selective scheduling."""

    name = "x-stream"

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        super().__init__(config)
        self.config = replace(
            self.config,
            trim_enabled=False,
            selective_scheduling=False,
            rotate_streams=False,
            stay_disk=None,
        )
