"""Multi-query amortization: stage once, traverse Q times.

The staged-graph/query-session split exists so that a batch of traversals
over one graph pays the partition-splitting I/O exactly once.  This bench
runs Q=8 BFS queries through ``run_many`` and checks the two promises of
the architecture against the monolithic path:

* staging I/O (the ``input`` read + ``partition`` write roles) is charged
  once — the batch's staging bytes equal a *single* ``run()``'s staging
  bytes, not 8x — and every per-query report contains zero staging-role
  bytes;
* each query's BFS output is bit-for-bit identical to a monolithic
  ``run()`` from the same root on a fresh machine.

It then re-runs the same batch in ``mode="batched"`` (MS-BFS shared
scans, see ``docs/batched_bfs.md``) and checks the scheduler's two
promises: per-query outputs stay bit-identical to the serial path, and
the batch's edge scans amortize to at most ``MAX_AMORTIZATION`` (0.2x)
of the serial total.

Last, it times a 64-root batched run against a 2-root batched run of the
same graph and config (the narrowest batch the batched kernel runs: a
one-root chunk is a serial query): the kernels' host work per buffer
must not grow with batch width, so the wide run may cost at most
``MAX_WIDTH_COST`` (6x) the host seconds of the narrow one.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_multi_query.py --smoke
"""

import argparse
import time

import numpy as np

from repro.algorithms.streaming import BATCH_WIDTH
from repro.analysis.tables import format_table
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.graph.generators import rmat_graph
from repro.storage.machine import Machine
from repro.utils.units import KB, format_bytes, format_seconds

Q = 8

#: Acceptance bound on the batched/serial edge-scan ratio: an MS-BFS
#: batch of Q=8 hub queries must scan at most this fraction of the
#: edges the serial rewind path streams.
MAX_AMORTIZATION = 0.2

#: Acceptance bound on host seconds of a 64-root batched run over a 2-root
#: one (each best of ``WIDTH_REPEATS``).  On the smoke graph the ratio
#: against a width-1 batch was 2.3-3.1 with width-independent kernels and
#: 13-16 when gather ran one ``np.unique`` per query bit, so per-bit work
#: in either kernel trips it with 2x room on both sides for a noisy host.
MAX_WIDTH_COST = 6.0
WIDTH_REPEATS = 3

#: The I/O roles that belong to staging, not to any query.
STAGING_ROLES = (("input", "read"), ("partition", "write"))


def _config() -> FastBFSConfig:
    return FastBFSConfig(
        edge_buffer_bytes=8 * KB,
        update_buffer_bytes=4 * KB,
        stay_buffer_bytes=4 * KB,
        num_partitions=8,
        allow_in_memory=False,
    )


def _machine() -> Machine:
    return Machine.commodity_server(memory="8MB")


def _roots(graph, count: int = Q) -> list:
    """``count`` deterministic roots: the best-connected vertices."""
    order = np.argsort(-graph.out_degrees())
    return [int(v) for v in order[:count]]


def _batched_host_seconds(graph, roots) -> float:
    start = time.perf_counter()
    FastBFSEngine(_config()).run_many(
        graph, _machine(), roots=roots, mode="batched"
    )
    return time.perf_counter() - start


def width_cost(graph) -> float:
    """Host seconds of a full-width batch relative to a width-2 batch.

    The narrow side is two roots because a chunk of one runs the serial
    kernel, which would not measure how the batched kernel scales.  The
    two widths alternate so a host that changes speed mid-measurement
    slows both; each side keeps its best run.
    """
    wide, narrow = _roots(graph, BATCH_WIDTH), _roots(graph, 2)
    pairs = [
        (_batched_host_seconds(graph, wide), _batched_host_seconds(graph, narrow))
        for _ in range(WIDTH_REPEATS)
    ]
    return min(w for w, _ in pairs) / min(n for _, n in pairs)


def _staging_bytes(report) -> int:
    by_role = report.bytes_by_role()
    return sum(by_role.get(role, 0) for role in STAGING_ROLES)


def run_comparison(scale: int) -> dict:
    graph = rmat_graph(scale=scale, edge_factor=8, seed=11)
    roots = _roots(graph)

    singles = [
        FastBFSEngine(_config()).run(graph, _machine(), root=r) for r in roots
    ]
    staged = FastBFSEngine(_config()).stage(graph, _machine())
    batch = FastBFSEngine(_config()).run_many(graph, _machine(), roots=roots)

    # Staging paid exactly once, at single-run cost — not Q times.
    batch_staging = _staging_bytes(batch.staging_report)
    assert batch_staging == _staging_bytes(staged.staging_report)
    assert batch_staging > 0

    for single, query in zip(singles, batch.queries):
        # No query re-pays any staging I/O...
        assert _staging_bytes(query.report) == 0
        # ...and each one's output matches the monolithic path bit-for-bit.
        assert np.array_equal(single.levels, query.levels)
        assert np.array_equal(single.parents, query.parents)
        assert single.num_iterations == query.num_iterations

    # Q monolithic runs pay staging Q times; the batch amortizes it away.
    monolithic_total = sum(s.execution_time for s in singles)
    assert batch.total_time < monolithic_total

    # The MS-BFS scheduler shares one scatter/gather timeline across the
    # whole batch: same per-query answers, a fraction of the edge scans.
    batched = FastBFSEngine(_config()).run_many(
        graph, _machine(), roots=roots, mode="batched"
    )
    assert batched.mode == "batched", "FastBFS BFS must batch, not fall back"
    assert len(batched.batch_times) == 1  # Q=8 fits one 64-wide batch
    for query, bq in zip(batch.queries, batched.queries):
        assert np.array_equal(query.levels, bq.levels)
        assert np.array_equal(query.parents, bq.parents)
        assert query.num_iterations == bq.num_iterations
        assert bq.query_index == query.query_index

    amortization = batched.edges_scanned / batch.edges_scanned
    assert amortization <= MAX_AMORTIZATION, (
        f"batched mode scanned {amortization:.3f}x the serial edge total "
        f"(bound {MAX_AMORTIZATION})"
    )
    assert batched.total_time < batch.total_time

    cost = width_cost(graph)
    assert cost <= MAX_WIDTH_COST, (
        f"a {BATCH_WIDTH}-root batch took {cost:.1f}x the host time of a "
        f"2-root batch (bound {MAX_WIDTH_COST}): per-query-bit work is back "
        "in a batched kernel"
    )

    return {
        "graph": graph,
        "roots": roots,
        "singles": singles,
        "batch": batch,
        "batched": batched,
        "amortization": amortization,
        "width_cost": cost,
        "monolithic_total": monolithic_total,
    }


def render(data: dict) -> str:
    batch = data["batch"]
    rows = [
        [
            "staging (once)",
            "-",
            format_seconds(batch.staging_time),
            format_bytes(batch.staging_report.bytes_total),
            "-",
        ]
    ]
    for root, query in zip(data["roots"], batch.queries):
        rows.append([
            f"query {query.query_index}",
            str(root),
            format_seconds(query.execution_time),
            format_bytes(query.report.bytes_total),
            str(query.num_iterations),
        ])
    rows.append([
        "batch total",
        "-",
        format_seconds(batch.total_time),
        "-",
        "-",
    ])
    rows.append([
        f"{Q}x monolithic run()",
        "-",
        format_seconds(data["monolithic_total"]),
        "-",
        "-",
    ])
    batched = data["batched"]
    rows.append([
        "MS-BFS batched",
        "-",
        format_seconds(batched.total_time),
        "-",
        str(len(batched.shared_iterations)),
    ])
    title = (
        f"Multi-query amortization: {Q} BFS queries on "
        f"{data['graph'].name}, staged once "
        f"(amortized {format_seconds(batch.amortized_time)}/query; "
        f"batched scans {data['amortization']:.1%} of serial's "
        f"{batch.edges_scanned:,} edges; a {BATCH_WIDTH}-root batch costs "
        f"{data['width_cost']:.1f}x the host time of a 2-root batch)"
    )
    return format_table(["phase", "root", "time", "I/O", "iters"], rows, title)


def test_multi_query_amortization(benchmark, emit):
    from conftest import once

    data = once(benchmark, lambda: run_comparison(scale=13))
    emit("multi_query", render(data))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller graph for a fast CI correctness check",
    )
    args = parser.parse_args()
    data = run_comparison(scale=11 if args.smoke else 13)
    print(render(data))
    print("multi-query amortization checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
