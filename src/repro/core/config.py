"""FastBFS configuration: the base engine knobs plus trimming controls."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.engines.base import EngineConfig
from repro.errors import ConfigError
from repro.utils.units import KB, parse_bytes


@dataclass
class FastBFSConfig(EngineConfig):
    """All the FastBFS-specific knobs from paper §II-C and §III.

    * ``trim_enabled`` — master switch for the stay streams.  Off, with
      ``selective_scheduling`` and ``rotate_streams`` off too, the
      edge-centric loop is X-Stream: the ``x-stream`` config
      :class:`~repro.engines.xstream.XStreamEngine` pins.
    * ``trim_start_iteration`` / ``trim_trigger_fraction`` — the deferred
      trimming policy for slow-converging (high-diameter) graphs: trimming
      begins at the given iteration AND once the previous iteration
      eliminated at least the given fraction of scanned edges ("start the
      graph trimming several iterations later, till the stay list shrinks
      to a relatively small proportion", §II-C3).
    * ``extended_trim`` — ablation: also drop edges from already-visited
      sources (stricter than the paper's generate=>eliminate rule).
    * ``selective_scheduling`` — skip partitions that received no updates
      (§II-C3 coarse-granularity scheduling).
    * ``stay_buffer_bytes`` / ``num_stay_buffers`` — the dedicated writer's
      private edge buffers ("user can utilize larger memory space and more
      edge buffers", §III).
    * ``cancellation_grace`` — how long scatter waits for an unfinished stay
      file before cancelling it and reusing the previous edge file.
    * ``stay_disk`` — fixed disk index for the *stay stream out*; ``None``
      keeps it with the edge files.
    * ``rotate_streams`` — the paper's Fig. 10 placement: FastBFS "switches
      the roles of stay stream in and stay stream out at the beginning of
      each iteration, which guarantees that the largest amount of read and
      write operation are separated onto different disks".  With two disks,
      everything *written* during iteration *i* (stay-out + the outgoing
      update stream set) goes to disk ``(i+1) % 2`` and is *read* from there
      during iteration *i+1*, so reads and writes never share a spindle.
      Overrides ``stay_disk``/``update_disk``; a no-op on one disk.
    """

    trim_enabled: bool = True
    trim_start_iteration: int = 0
    trim_trigger_fraction: float = 0.0
    extended_trim: bool = False
    selective_scheduling: bool = True
    stay_buffer_bytes: Union[int, str] = 32 * KB
    num_stay_buffers: int = 4
    cancellation_grace: float = 0.005
    stay_disk: Optional[int] = None
    rotate_streams: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        self.stay_buffer_bytes = parse_bytes(self.stay_buffer_bytes)
        if self.stay_buffer_bytes <= 0:
            raise ConfigError("stay_buffer_bytes must be positive")
        if self.num_stay_buffers < 1:
            raise ConfigError("num_stay_buffers must be >= 1")
        if self.trim_start_iteration < 0:
            raise ConfigError("trim_start_iteration must be >= 0")
        if not 0.0 <= self.trim_trigger_fraction < 1.0:
            raise ConfigError("trim_trigger_fraction must be in [0, 1)")
        if self.cancellation_grace < 0:
            raise ConfigError("cancellation_grace must be >= 0")
        if self.stay_disk is not None and self.stay_disk < 0:
            raise ConfigError("stay_disk must be >= 0 or None")
