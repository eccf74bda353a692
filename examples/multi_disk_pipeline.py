#!/usr/bin/env python
"""The two-disk I/O pipeline (paper §II-C2, §IV-C3, Fig. 10).

FastBFS's stay-stream writing introduces a full write stream on top of the
edge read stream.  On one spindle they interfere; with a second disk,
FastBFS rotates every stream it *writes* during iteration i onto disk
(i+1)%2 and reads it back from there in iteration i+1, so reads and writes
never share a head.  This example measures X-Stream, 1-disk FastBFS and
2-disk FastBFS on the same workload and prints the device-level breakdown.

Run:  python examples/multi_disk_pipeline.py
"""

import numpy as np

from repro import FastBFSEngine, XStreamEngine, build_dataset
from repro.analysis.calibration import scaled_fastbfs_config, scaled_machine
from repro.analysis.tables import format_table
from repro.utils.units import format_bytes, format_seconds

DIVISOR = 1024


def main() -> None:
    graph = build_dataset("rmat25", divisor=DIVISOR)
    root = int(np.argmax(graph.out_degrees()))
    print(f"graph: {graph!r}\n")

    runs = {}

    machine = scaled_machine("4GB", divisor=DIVISOR)
    runs["x-stream (1 disk)"] = XStreamEngine(
        scaled_fastbfs_config(DIVISOR)
    ).run(graph, machine, root=root)

    machine = scaled_machine("4GB", divisor=DIVISOR)
    runs["fastbfs (1 disk)"] = FastBFSEngine(
        scaled_fastbfs_config(DIVISOR)
    ).run(graph, machine, root=root)

    machine = scaled_machine("4GB", num_disks=2, divisor=DIVISOR)
    runs["fastbfs (2 disks)"] = FastBFSEngine(
        scaled_fastbfs_config(DIVISOR, rotate_streams=True)
    ).run(graph, machine, root=root)

    rows = []
    for name, result in runs.items():
        rows.append([
            name,
            format_seconds(result.execution_time),
            format_bytes(result.report.bytes_read),
            format_bytes(result.report.bytes_written),
            f"{result.report.iowait_ratio:.0%}",
        ])
    print(format_table(
        ["configuration", "time", "read", "written", "iowait"], rows,
        title="Fig. 10 reproduction (scaled)",
    ))

    t = {n: r.execution_time for n, r in runs.items()}
    print(f"\n2 disks vs 1 disk: "
          f"{t['fastbfs (1 disk)']/t['fastbfs (2 disks)']:.2f}x "
          f"(paper: 1.6-1.7x)")
    print(f"2 disks vs X-Stream: "
          f"{t['x-stream (1 disk)']/t['fastbfs (2 disks)']:.2f}x "
          f"(paper: 2.5-3.6x)")

    # Per-device traffic: with rotation, reads and writes alternate disks,
    # so both spindles carry traffic but neither mixes streams in one pass.
    print("\n2-disk device breakdown:")
    for dev in runs["fastbfs (2 disks)"].report.devices:
        if dev.kind == "ram":
            continue
        print(f"  {dev.name}: read {format_bytes(dev.bytes_read)}, "
              f"wrote {format_bytes(dev.bytes_written)}, "
              f"{dev.seek_count} seeks, busy {format_seconds(dev.busy_time)}")


if __name__ == "__main__":
    main()
