"""Out-of-core graph engines on the simulated storage substrate.

* :class:`~repro.engines.base.EdgeCentricEngine` — the one scatter/gather
  pass loop (streaming partitions, update shuffle, merged gather+scatter
  passes, in-memory mode) that X-Stream defined, with FastBFS's additions
  inline, each switched by the engine's config.
* :class:`~repro.engines.xstream.XStreamEngine` — the X-Stream baseline:
  that loop with trimming, selective scheduling and rotation pinned off.
* :class:`~repro.engines.graphchi.GraphChiEngine` — the GraphChi baseline:
  vertex-centric parallel sliding windows over sorted shards.
* The FastBFS engine itself lives in :mod:`repro.core` (it is the paper's
  contribution, not a baseline).
"""

from repro.engines.base import EdgeCentricEngine, EngineConfig
from repro.engines.costs import CostModel
from repro.engines.result import EngineResult, IterationStats
from repro.engines.xstream import XStreamEngine
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine

__all__ = [
    "EdgeCentricEngine",
    "EngineConfig",
    "CostModel",
    "EngineResult",
    "IterationStats",
    "XStreamEngine",
    "GraphChiEngine",
    "GraphChiConfig",
]
