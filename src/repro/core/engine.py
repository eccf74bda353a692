"""The FastBFS engine: edge-centric traversal with asynchronous trimming.

Implements the paper's execution loop (Fig. 2) on top of the shared
X-Stream scaffolding by overriding its partition hooks:

* ``_edge_input_file`` — the cross-iteration swap: take the stay file
  written during the *previous* iteration as this scatter's input, or
  cancel it if it isn't durable yet (§II-C2);
* ``_pre_partition_scatter`` / ``_on_scatter_run`` /
  ``_post_partition_scatter`` — produce the stay-out stream for surviving
  edges through the dedicated asynchronous writer (§III);
* ``_should_process_partition`` / ``_should_scatter`` — selective
  scheduling: converged partitions (no updates received) are skipped
  entirely (§II-C3).

Running a non-trimmable algorithm (e.g. WCC) degrades gracefully: the trim
policy disables stay streams and only selective scheduling remains.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.algorithms.streaming import AlgoContext, VertexState
from repro.core.config import FastBFSConfig
from repro.core.policies import TrimPolicy
from repro.core.staystream import StayStreamManager
from repro.engines.base import EDGE_DISK, EdgeCentricEngine, _feeds, _RunState
from repro.engines.costs import COST_MODEL
from repro.engines.result import IterationStats
from repro.storage.vfs import VirtualFile


class FastBFSEngine(EdgeCentricEngine):
    """FastBFS (paper §II-§III)."""

    name = "fastbfs"

    def __init__(self, config: Optional[FastBFSConfig] = None) -> None:
        super().__init__(config if config is not None else FastBFSConfig())
        if not isinstance(self.config, FastBFSConfig):
            # Accept a plain EngineConfig by upgrading it with defaults.
            base = self.config
            self.config = FastBFSConfig(
                **{
                    f: getattr(base, f)
                    for f in base.__dataclass_fields__  # type: ignore[attr-defined]
                }
            )

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def _before_run(self, rt: _RunState) -> None:
        cfg: FastBFSConfig = self.config  # type: ignore[assignment]
        machine = rt.machine
        if rt.staged.in_memory:
            stay_device = machine.ram
        else:
            stay_index = cfg.stay_disk if cfg.stay_disk is not None else EDGE_DISK
            stay_device = machine.disk(stay_index)
        rt.stay = StayStreamManager(
            machine.clock, machine.vfs, stay_device, cfg,
            protected=rt.staged.protected_names(),
            tracer=machine.tracer,
        )
        rt.trim_policy = TrimPolicy(cfg, rt.algo.supports_trimming)
        rt.trim_active_iteration = -1
        rt.trim_active = False

    def _after_run(self, rt: _RunState) -> None:
        rt.stay.discard_all()
        stats = rt.stay.stats
        rt.extras.update(
            {
                "stay_files_written": float(stats.files_written),
                "stay_swaps": float(stats.swaps),
                "stay_cancellations": float(stats.cancellations),
                "stay_records_written": float(stats.records_written),
                "stay_bytes_written": float(stats.bytes_written),
                "stay_pool_waits": float(stats.pool_waits),
                "stay_end_of_run_discards": float(stats.end_of_run_discards),
                "stay_integrity_failures": float(stats.integrity_failures),
                "stay_write_failures": float(stats.write_failures),
            }
        )

    # ------------------------------------------------------------------
    # selective scheduling (§II-C3)
    # ------------------------------------------------------------------
    def _should_process_partition(
        self, rt: _RunState, p: int, has_updates: bool, initial_active: int
    ) -> bool:
        cfg: FastBFSConfig = self.config  # type: ignore[assignment]
        if not cfg.selective_scheduling:
            return True
        return has_updates or initial_active > 0

    def _should_scatter(self, rt: _RunState, p: int, activated: int) -> bool:
        cfg: FastBFSConfig = self.config  # type: ignore[assignment]
        if not cfg.selective_scheduling:
            return True
        return activated > 0

    # ------------------------------------------------------------------
    # trimming hooks
    # ------------------------------------------------------------------
    def _trimming_active(self, rt: _RunState, iteration: int) -> bool:
        """Per-iteration policy decision, evaluated once per pass."""
        if rt.trim_active_iteration != iteration:
            previous = rt.iterations[-2] if len(rt.iterations) >= 2 else None
            rt.trim_active = rt.trim_policy.trimming_active(iteration, previous)
            rt.trim_active_iteration = iteration
        return rt.trim_active

    def _edge_input_file(
        self, rt: _RunState, p: int, ctx: AlgoContext, stats: IterationStats
    ) -> VirtualFile:
        input_file, outcome = rt.stay.resolve_input(p, rt.edge_files[p])
        if outcome == "swap":
            rt.edge_files[p] = input_file
            stats.stay_swaps += 1
        elif outcome == "cancel":
            stats.stay_cancellations += 1
        return input_file

    def _write_disk(self, rt: _RunState, iteration: int):
        """Target disk for streams produced during ``iteration``.

        With ``rotate_streams`` every write of iteration *i* lands on disk
        ``(i+1) % 2`` and is read back from there in iteration *i+1*, so on
        a two-disk machine reads and writes never contend (paper Fig. 10).
        """
        cfg: FastBFSConfig = self.config  # type: ignore[assignment]
        if rt.staged.in_memory or not cfg.rotate_streams:
            return None
        return rt.machine.disk((iteration + 1) % 2)

    def _update_device(self, rt: _RunState, iteration: int):
        rotated = self._write_disk(rt, iteration)
        return rotated if rotated is not None else rt.staged.dev_updates

    def _pre_partition_scatter(self, rt: _RunState, p: int, ctx: AlgoContext) -> None:
        if self._trimming_active(rt, ctx.iteration):
            # ``_edge_input_file`` ran first: this is the file being trimmed.
            rt.stay.open(
                p,
                ctx.iteration,
                device=self._write_disk(rt, ctx.iteration),
                input_file=rt.edge_files[p],
            )

    def _selects_survivors(self, rt: _RunState, p: int) -> bool:
        return rt.stay.current(p) is not None

    def _on_scatter_run(
        self,
        rt: _RunState,
        p: int,
        state: VertexState,
        run: np.ndarray,
        src_local: np.ndarray,
        eliminate: Optional[np.ndarray],
        bounds: np.ndarray,
        stats: IterationStats,
    ) -> Optional[Callable[[int], None]]:
        if rt.stay.current(p) is None or eliminate is None:
            return None
        cfg: FastBFSConfig = self.config  # type: ignore[assignment]
        if cfg.extended_trim:
            eliminate = rt.algo.extended_eliminate(state, src_local, eliminate)
        # Select the run's survivors once, into the stay writer's own
        # buffer; each modeled buffer's share of them is a slice, found
        # from where the buffer bounds fall among the surviving positions.
        keep = np.flatnonzero(~eliminate)
        survivors = rt.stay.stage_survivors(p, run, keep)
        cuts = np.searchsorted(keep, bounds).tolist()
        scanned = np.diff(bounds).tolist()
        # The stay writer is fed where it flushes, and the tail at the end.
        flushes, tail = _feeds(rt.stay.current(p), survivors, cuts)
        if len(tail):
            flushes[len(scanned) - 1] = tail

        def replay(b: int) -> None:
            kept = cuts[b + 1] - cuts[b]
            stats.edges_eliminated += scanned[b] - kept
            stats.stay_records_written += kept
            COST_MODEL.charge(
                rt.machine.clock,
                "trim",
                COST_MODEL.trim_per_edge,
                kept,
                cfg.threads,
                rt.machine.cores,
            )
            records = flushes.get(b)
            if records is not None:
                rt.stay.append(p, records)

        return replay

    def _post_partition_scatter(self, rt: _RunState, p: int, ctx: AlgoContext) -> None:
        rt.stay.finish_partition(p)
