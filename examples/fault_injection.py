#!/usr/bin/env python
"""Fault-injection walkthrough: seeded fault plans and the three recovery
layers that absorb them.

1. Transient read/write errors + latency spikes, absorbed by the
   stream-layer retry loop within the plan's ``max_attempts`` — visible
   as ``io_retries_total``.
2. Torn stay writes, caught by the stay writer's per-chunk checksums at
   swap-in time and degraded like a cancellation — same answer, more I/O.
3. A deterministic mid-query crash (*CrashPoint*), replayed to
   bit-identical levels by ``QuerySession.recover()``.

Every schedule is seeded: the same plan and seed reproduce the same
faults, retries and spans bit-for-bit.  See docs/fault_injection.md.

Run:  python examples/fault_injection.py
"""

import numpy as np

from repro import FastBFSConfig, FastBFSEngine, Machine, bfs_levels, rmat_graph, run_bfs
from repro.errors import CrashError
from repro.storage.faults import FaultPlan, FaultSpec


def main() -> None:
    graph = rmat_graph(scale=14, edge_factor=16, seed=7)
    root = int(np.argmax(graph.out_degrees()))
    reference = bfs_levels(graph, root)

    # ------------------------------------------------------------------
    # 1. Transients + latency spikes, absorbed by bounded retries.
    # ------------------------------------------------------------------
    flaky = FaultPlan(
        specs=(
            FaultSpec(kind="transient_error", probability=0.01),
            FaultSpec(kind="latency", probability=0.03, delay_seconds=0.005),
        ),
        seed=42,
        max_attempts=4,
    )
    # Force the out-of-core path: at this scale the edge list would fit in
    # 64MB and nothing would stream (or fault).
    config = FastBFSConfig(allow_in_memory=False)
    result = run_bfs(
        graph, engine="fastbfs", config=config, memory="64MB", root=root,
        fault_plan=flaky,
    )
    assert np.array_equal(result.levels, reference)
    clean = run_bfs(graph, engine="fastbfs", config=config, memory="64MB",
                    root=root)
    print("1. flaky disk, retries absorb every transient:")
    print(f"   levels correct: {np.array_equal(result.levels, reference)}")
    print(f"   clean run {clean.execution_time:.2f}s -> "
          f"faulted run {result.execution_time:.2f}s "
          f"(backoff + spikes land in the iowait ledger)\n")

    # ------------------------------------------------------------------
    # 2. Torn stay writes: acked by the disk, caught by checksums.
    # ------------------------------------------------------------------
    torn = FaultPlan(
        specs=(FaultSpec(kind="torn_write", role="stay", probability=0.6),),
        seed=7,
    )
    result = run_bfs(
        graph, engine="fastbfs", config=config, memory="64MB", root=root,
        fault_plan=torn,
    )
    assert np.array_equal(result.levels, reference)
    print("2. torn stay writes, integrity fallback:")
    print(f"   checksum mismatches caught at swap-in: "
          f"{result.extras['stay_integrity_failures']:.0f}")
    print(f"   stay swaps that survived verification:  "
          f"{result.extras['stay_swaps']:.0f}")
    print("   every corrupt swap degraded to the previous edge file -> "
          f"levels correct: {np.array_equal(result.levels, reference)}\n")

    # ------------------------------------------------------------------
    # 3. CrashPoint + recover(): replay from the entry checkpoint.
    # ------------------------------------------------------------------
    machine = Machine.commodity_server(
        memory="64MB", fault_plan=FaultPlan.crash_point(after_index=100)
    )
    engine = FastBFSEngine(config)
    staged = engine.stage(graph, machine)
    session = engine.session(staged)
    try:
        result = session.run(root=root)
        raise AssertionError("the crash point should have fired")
    except CrashError as exc:
        print(f"3. mid-query crash: {exc}")
        (result,) = session.recover()
    print(f"   recovered run bit-identical to reference: "
          f"{np.array_equal(result.levels, reference)}")
    print(f"   recoveries recorded: {result.extras['recovered']:.0f}")
    print("\nSweep hundreds of seeded schedules with: "
          "python -m repro chaos --profile full")


if __name__ == "__main__":
    main()
