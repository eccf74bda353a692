"""FastBFS — the paper's contribution.

:class:`FastBFSEngine` is the shared edge-centric pass loop
(:class:`~repro.engines.base.EdgeCentricEngine`) with the three mechanisms
of §II/§III on, as its :class:`FastBFSConfig` sets them:

1. **asynchronous trimming** — update-generating edges are dropped; the
   survivors stream to a per-partition *stay file* through a dedicated
   writer with private buffers (:mod:`repro.core.staystream`);
2. **cross-iteration latency hiding with cancellation** — a stay file from
   iteration *i* is swapped in when scatter reaches its partition in
   iteration *i+1*, or cancelled if it still isn't durable after a short
   grace wait;
3. **policy knobs** — deferred trimming for slow-converging graphs and
   selective scheduling of converged partitions
   (:mod:`repro.core.policies`), plus multi-disk stream placement.
"""

from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.core.policies import TrimPolicy
from repro.core.staystream import StayStreamManager

__all__ = ["FastBFSEngine", "FastBFSConfig", "TrimPolicy", "StayStreamManager"]
