#!/usr/bin/env python
"""Degrees-of-separation on a social graph, across all three engines.

Builds a friendster-like undirected social network (the paper's §IV
workload, scaled), runs BFS from a hub with GraphChi, X-Stream and FastBFS,
verifies they agree, prints a degrees-of-separation histogram, and shows
the execution-time/input-data comparison the paper's Figs. 4-5 report.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro import build_dataset
from repro.analysis.calibration import ENGINES, PAPER_ENGINES, scaled_machine
from repro.analysis.tables import format_table
from repro.utils.units import format_bytes, format_seconds


def main() -> None:
    # The friendster stand-in at 1/1024 scale (fast enough for a demo; drop
    # the divisor for higher fidelity).
    graph = build_dataset("friendster", divisor=1024)
    root = int(np.argmax(graph.out_degrees()))
    print(f"graph: {graph!r}; BFS from hub vertex {root}")

    results = {}
    for name in PAPER_ENGINES:
        machine = scaled_machine(memory="4GB", divisor=1024)
        results[name] = ENGINES[name].scaled(1024).run(graph, machine, root=root)

    # All engines must tell the same story.
    levels = results["fastbfs"].levels
    for name, result in results.items():
        assert np.array_equal(result.levels, levels), f"{name} disagrees!"

    # Degrees of separation histogram (the classic social-network question).
    visited = levels[levels >= 0]
    print(f"\nreached {len(visited):,} of {graph.num_vertices:,} people")
    print("degrees of separation:")
    for depth in range(int(levels.max()) + 1):
        count = int((visited == depth).sum())
        bar = "#" * max(1, int(40 * count / max(len(visited), 1)))
        print(f"  {depth:3d}: {count:8,}  {bar}")
    mean_sep = float(visited[visited > 0].mean())
    print(f"average separation from the hub: {mean_sep:.2f} hops")

    # The paper's comparison (Figs. 4 and 5).
    rows = [
        [
            name,
            format_seconds(r.execution_time),
            format_bytes(r.report.bytes_read),
            f"{r.report.iowait_ratio:.0%}",
            r.num_iterations,
        ]
        for name, r in results.items()
    ]
    print()
    print(format_table(
        ["engine", "time", "input data", "iowait", "iterations"], rows,
        title="single-HDD comparison (paper Figs. 4-6 shape)",
    ))
    t = {n: r.execution_time for n, r in results.items()}
    print(f"\nFastBFS vs X-Stream: {t['x-stream']/t['fastbfs']:.2f}x "
          f"(paper: 1.6-2.1x)")
    print(f"FastBFS vs GraphChi: {t['graphchi']/t['fastbfs']:.2f}x "
          f"(paper: 2.4-3.9x)")


if __name__ == "__main__":
    main()
