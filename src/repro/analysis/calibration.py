"""Scale calibration: mapping the paper's test bed to the reproduction.

**One divisor scales everything.**  The paper runs billion-edge graphs
through multi-GB memory budgets on real disks.  The reproduction divides
*datasets, memory budgets, stream buffer sizes and device seek times* by the
same constant ``SCALE_DIVISOR`` (default 256, the dataset registry's
default).  Why this preserves the paper's shape:

* transfer time = bytes / bandwidth — scales by 1/D automatically when the
  data scales;
* seek count ≈ (bytes / buffer size) + per-partition stream switches — is
  *invariant* when data and buffers scale together;
* therefore seek time must scale by 1/D so the seek:transfer balance (and
  with it the HDD-vs-SSD contrast and the single-disk read/write
  interference FastBFS's second disk removes) stays at the paper's ratio;
* memory budgets scale by 1/D so partition counts and the Fig. 9 in-memory
  cliff land where the paper's do;
* CPU cost constants are per-item rates and do not scale — compute:I/O
  ratio is preserved because both totals scale by 1/D.

Paper reference values mapped here:

=====================  ==================  =====================
quantity               paper               scaled (D=256)
=====================  ==================  =====================
working memory         4 GB                16 MB
edge stream buffer     16 MB               64 KB
update stream buffer   8 MB                32 KB
stay stream buffer     8 MB                32 KB
HDD seek               8.5 ms              33.2 us
cancellation grace     ~1.3 s              5 ms
=====================  ==================  =====================

:data:`ENGINES` maps each engine name to its class and its scaled config
builder; every front door that builds an engine by name reads it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, NamedTuple, Union

from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.xstream import XStreamEngine
from repro.errors import ConfigError
from repro.storage.device import DeviceSpec
from repro.storage.machine import Machine
from repro.utils.units import MB, parse_bytes

#: The one divisor. Must match the dataset registry's divisor for runs to be
#: internally consistent (``repro.graph.datasets.scale_divisor``).
SCALE_DIVISOR = 256

#: Paper buffer sizes (before scaling).
PAPER_EDGE_BUFFER = 16 * MB
PAPER_UPDATE_BUFFER = 8 * MB
PAPER_STAY_BUFFER = 8 * MB


def scaled_bytes(paper_value: Union[int, str], divisor: int = SCALE_DIVISOR) -> int:
    """Scale a paper-quoted byte count down to reproduction scale."""
    return max(1, parse_bytes(paper_value) // divisor)


def scaled_device(kind: str, name: str, divisor: int = SCALE_DIVISOR) -> DeviceSpec:
    """A device preset with seek time scaled to the reproduction."""
    if kind == "hdd":
        spec = DeviceSpec.hdd(name)
    elif kind == "ssd":
        spec = DeviceSpec.ssd(name)
    else:
        raise ConfigError(f"unknown device kind {kind!r}")
    return replace(spec, seek_time=spec.seek_time / divisor)


def scaled_machine(
    memory: Union[int, str] = "4GB",
    cores: int = 4,
    num_disks: int = 1,
    disk_kind: str = "hdd",
    divisor: int = SCALE_DIVISOR,
) -> Machine:
    """The paper's test bed at reproduction scale.

    ``memory`` is quoted at *paper* scale ("4GB", "256MB", ...) and divided
    by the divisor; disks get scaled seek times.
    """
    specs = [scaled_device(disk_kind, f"{disk_kind}{i}", divisor) for i in range(num_disks)]
    return Machine(specs, memory=scaled_bytes(memory, divisor), cores=cores)


def scaled_fastbfs_config(
    divisor: int = SCALE_DIVISOR, **overrides
) -> FastBFSConfig:
    """Edge-centric config with paper buffer sizes scaled down (X-Stream
    shares it: it opens no stay writer, so its stay buffer is unread)."""
    base = dict(
        edge_buffer_bytes=scaled_bytes(PAPER_EDGE_BUFFER, divisor),
        update_buffer_bytes=scaled_bytes(PAPER_UPDATE_BUFFER, divisor),
        stay_buffer_bytes=scaled_bytes(PAPER_STAY_BUFFER, divisor),
    )
    base.update(overrides)
    return FastBFSConfig(**base)


#: The old X-Stream builder's name, still imported by the perf harness.
scaled_engine_config = scaled_fastbfs_config


def scaled_graphchi_config(
    divisor: int = SCALE_DIVISOR, **overrides
) -> GraphChiConfig:
    """GraphChi config (record sizes are per-item; nothing to scale)."""
    return GraphChiConfig(**overrides)


class EngineKind(NamedTuple):
    """One row of :data:`ENGINES`: an engine class and its scaled config
    builder, ``scaled_config(divisor, **overrides)``."""

    engine: type
    scaled_config: Callable[..., Any]

    def scaled(self, divisor: int = SCALE_DIVISOR, **overrides):
        """The engine with its config scaled by ``divisor``."""
        return self.engine(self.scaled_config(divisor, **overrides))


#: The one place an engine is chosen by name: the CLI, ``run_bfs``, the
#: serve registry and the experiment runner all read it.  At the default
#: divisor every builder gives its class's default config.
#: ``fastbfs-2disk`` is FastBFS with the paper's Fig. 10 stream rotation.
ENGINES: Dict[str, EngineKind] = {
    "fastbfs": EngineKind(FastBFSEngine, scaled_fastbfs_config),
    "fastbfs-2disk": EngineKind(
        FastBFSEngine, partial(scaled_fastbfs_config, rotate_streams=True)
    ),
    "x-stream": EngineKind(XStreamEngine, scaled_fastbfs_config),
    "graphchi": EngineKind(GraphChiEngine, scaled_graphchi_config),
}

#: Other spellings of an :data:`ENGINES` name.
ENGINE_ALIASES = {"fast-bfs": "fastbfs", "xstream": "x-stream"}

#: The three systems the paper compares, in its figures' order.
PAPER_ENGINES = ("graphchi", "x-stream", "fastbfs")


def engine_kind(name: str, num_disks: int = 1) -> EngineKind:
    """The :data:`ENGINES` row ``name`` means on ``num_disks`` disks.

    FastBFS on two or more disks is ``fastbfs-2disk``: the paper's
    two-disk FastBFS rotates its streams (Fig. 10), and without the
    rotation every stream stays on the first disk.
    """
    name = ENGINE_ALIASES.get(name, name)
    if name not in ENGINES:
        raise ConfigError(
            f"unknown engine {name!r}; options: "
            f"{sorted([*ENGINES, *ENGINE_ALIASES])}"
        )
    if name == "fastbfs" and num_disks >= 2:
        name = "fastbfs-2disk"
    return ENGINES[name]


def make_engine(name: str, config=None):
    """Instantiate an engine by name or alias; with no ``config``, its row's
    scaled config at the default divisor."""
    kind = engine_kind(name)
    return kind.engine(config if config is not None else kind.scaled_config())
