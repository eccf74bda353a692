"""Ablation — the page-cache blocking decision (paper §IV-B methodology).

"GraphChi tries to take advantages of OS page caches for better
performance, so it will take up almost all available memory.  In order to
investigate performance differences between these systems using same
amount of resources, we blocked the extra memory for GraphChi, leaving
only 4 GB."

This bench runs GraphChi on rmat25 with the page cache blocked (the
paper's setting, all comparison figures) and unblocked at two cache sizes,
next to FastBFS.  It shows (a) why the authors had to block memory — an
unblocked GraphChi's rescans hit RAM — and (b) that FastBFS still wins on
total work even against the cached GraphChi, because trimming removes the
I/O rather than moving it to RAM.
"""

from conftest import once

from repro.analysis.calibration import ENGINES, scaled_bytes, scaled_device
from repro.analysis.tables import format_table
from repro.storage.machine import Machine
from repro.utils.units import format_bytes, format_seconds


def test_ablation_page_cache(benchmark, runner, emit):
    graph = runner.graph("rmat25")
    root = runner.root("rmat25")

    def machine(cache_paper_bytes):
        return Machine(
            [scaled_device("hdd", "hdd0", runner.divisor)],
            memory=scaled_bytes("4GB", runner.divisor),
            page_cache=(
                scaled_bytes(cache_paper_bytes, runner.divisor)
                if cache_paper_bytes else None
            ),
        )

    def run_all():
        out = {}
        chi = ENGINES["graphchi"].scaled(runner.divisor)  # the runner's config
        out["graphchi, blocked (paper)"] = chi.run(
            graph, machine(None), root=root
        )
        out["graphchi, 8GB page cache"] = chi.run(
            graph, machine("8GB"), root=root
        )
        out["graphchi, 16GB page cache"] = chi.run(
            graph, machine("16GB"), root=root
        )
        out["fastbfs (no cache needed)"] = runner.run("rmat25", "fastbfs")
        return out

    results = once(benchmark, run_all)
    rows = [
        [
            name,
            format_seconds(r.execution_time),
            format_bytes(r.report.bytes_read),
            f"{r.report.iowait_ratio:.0%}",
        ]
        for name, r in results.items()
    ]
    text = format_table(
        ["configuration", "time", "disk reads", "iowait"],
        rows,
        "Ablation: GraphChi with/without the OS page cache, rmat25",
    )
    emit("ablation_pagecache", text)

    t = {name: r.execution_time for name, r in results.items()}
    reads = {name: r.report.bytes_read for name, r in results.items()}
    # The cache must help GraphChi substantially (the paper's motivation
    # for blocking it)...
    assert t["graphchi, 16GB page cache"] < 0.7 * t["graphchi, blocked (paper)"]
    assert (
        reads["graphchi, 16GB page cache"]
        < reads["graphchi, blocked (paper)"]
    )
    # ...and bigger caches help at least as much.
    assert (
        t["graphchi, 16GB page cache"] <= t["graphchi, 8GB page cache"] * 1.02
    )
    # FastBFS removes the work instead of relocating it to RAM: it stays
    # faster than even a fully-cached GraphChi (which still pays the value
    # write-backs and the vertex-centric CPU).
    assert (
        t["fastbfs (no cache needed)"] < t["graphchi, 16GB page cache"]
    )
