"""Command-line interface: ``fastbfs`` (or ``python -m repro``).

Every subcommand is one row of :data:`COMMANDS` (help line, argument
groups, handler); the parser and :func:`main` read that table.

* ``generate`` — build a synthetic graph (rmat/powerlaw/random/grid or a
  Table II dataset stand-in) and write it as a binary edge list + config;
* ``run`` — run BFS (or WCC, or weighted SSSP) on a graph file or named
  dataset with a chosen engine and simulated machine, printing the
  execution report;
* ``batch`` — stage a graph once and run one BFS query per given root,
  printing per-query and staging-amortized timings;
* ``compare`` — run all three engines on one input and print the
  paper-style comparison (time / input data / iowait / speedups);
* ``profile`` — analyze a span-trace JSONL file (stage breakdowns, stay
  overlap; ``--host`` adds the dual-clock host-cost table for traces
  recorded with ``--host-profile``) or, with ``--graph``/``--dataset``,
  print the per-level convergence profile (Fig. 1 data);
* ``bench`` — collect a ``BENCH_<seq>.json`` benchmark snapshot
  (``bench run``) or byte-compare the two newest (``bench compare``,
  exit 1 and a table of the differing metrics when they differ);
* ``chaos`` — sweep seeded fault-injection schedules across engines and
  disk placements; every surviving run must produce bit-identical BFS
  levels (nonzero exit on any violation);
* ``datasets`` — list the Table II registry;
* ``analyze`` — the static analyzer: module-local source rules and
  whole-program effect & determinism contracts (``--list-rules``;
  text/JSON/SARIF, exit 0 clean / 1 findings / 2 usage);
* ``gantt`` — run one traced BFS and draw each disk's stream lanes from
  the trace's ``io`` spans;
* ``shapes`` — check every claim of the paper's tables and figures
  (``repro.analysis.figures.FIGURES``; exit 1 on a failing claim);
* ``serve`` — boot the long-lived graph query service (docs/serving.md);
* ``top`` — poll a running graph service's ``/debug/timeseries`` ring
  and render a live per-graph RPS / queue-depth / latency-quantile
  view (``--once`` for a single CI-friendly sample);
* ``reproduce`` — run the paper's experiments and write the markdown
  report of every table and figure.

The machine flags (``--memory``, ``--cores``, ``--disks``, ``--disk-kind``,
``--threads``) are quoted at paper scale and divided by the same divisor as
the datasets (``REPRO_SCALE_DIVISOR``, default 256).  FastBFS on two or
more disks runs with the paper's Fig. 10 stream rotation
(``fastbfs-2disk`` in :data:`repro.analysis.calibration.ENGINES`).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.algorithms.reference import bfs_levels, level_profile
from repro.algorithms.sssp import UNREACHED, WeightedSSSPAlgorithm, hash_weights
from repro.algorithms.streaming import WCCAlgorithm
from repro.algorithms.validation import teps, validate_bfs_result
from repro.analysis.calibration import PAPER_ENGINES, engine_kind, scaled_machine
from repro.analysis.harness import default_root
from repro.analysis.tables import format_table
from repro.api import _prepare_tracing, export_observability, profile_trace
from repro.errors import ReproError
from repro.graph.datasets import DATASETS, build_dataset, scale_divisor
from repro.graph.generators import (
    grid_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
)
from repro.graph.graph import Graph
from repro.graph.io import load_graph, save_graph
from repro.obs import Tracer, render_device_gantt
from repro.utils.units import format_bytes, format_seconds

#: Adds some arguments to a subcommand's parser.
ArgGroup = Callable[[argparse.ArgumentParser], object]


def _arg(*flags: str, **kwargs) -> ArgGroup:
    """A group of one argument."""
    return lambda p: p.add_argument(*flags, **kwargs)


def _input_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--graph", help="path to a binary edge-list file")
    group.add_argument("--dataset", choices=sorted(DATASETS),
                       help="Table II dataset stand-in")
    p.add_argument("--seed", type=int, default=1)


def _machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memory", default="4GB",
                   help="paper-scale memory budget (scaled by the divisor)")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--disks", type=int, default=1)
    p.add_argument("--disk-kind", choices=["hdd", "ssd"], default="hdd")
    p.add_argument("--threads", type=int, default=4)


def _obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the span trace as JSONL (repro.obs)")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write a Prometheus-style counter snapshot")
    p.add_argument("--host-profile", action="store_true",
                   help="bind the host wall clock to the tracer so spans "
                        "carry host stamps ('profile --host' reads them; "
                        "simulated results are unaffected)")


def _bench_args(p: argparse.ArgumentParser) -> None:
    bsub = p.add_subparsers(dest="bench_command", required=True)
    brun = bsub.add_parser("run", help="collect a new snapshot file")
    brun.add_argument("--dir", default=".", dest="bench_dir",
                      help="directory holding BENCH_*.json (default: .)")
    brun.add_argument("--scale-divisor", type=int, default=None,
                      help="scale divisor (default: REPRO_SCALE_DIVISOR)")
    brun.add_argument("--seed", type=int, default=1)
    bcmp = bsub.add_parser(
        "compare",
        help="byte-compare the two newest snapshots; exit 1 on any "
             "difference",
    )
    bcmp.add_argument("--dir", default=".", dest="bench_dir",
                      help="directory holding BENCH_*.json (default: .)")


def _width(text: str) -> int:
    """``--width``: at least 10 columns, checked before any work."""
    width = int(text)
    if width < 10:
        raise argparse.ArgumentTypeError(f"must be >= 10 columns, got {width}")
    return width


ENGINE = _arg("--engine", choices=PAPER_ENGINES, default="fastbfs")
ROOT = _arg("--root", type=int, default=None,
            help="BFS root (default: highest-out-degree vertex)")


def _load_input(args: argparse.Namespace) -> Graph:
    if args.graph:
        return load_graph(args.graph)
    return build_dataset(args.dataset, seed=args.seed)


def _testbed(args: argparse.Namespace, engine: str):
    """``(machine, engine)`` for one run: the machine flags at paper scale,
    scaled by the datasets' divisor, with the tracer ``--trace`` /
    ``--host-profile`` ask for, and the engine ``engine`` means on that
    many disks."""
    divisor = scale_divisor()
    machine = scaled_machine(
        memory=args.memory,
        cores=args.cores,
        num_disks=args.disks,
        disk_kind=args.disk_kind,
        divisor=divisor,
    )
    _prepare_tracing(
        machine, getattr(args, "trace", None), getattr(args, "host_profile", False)
    )
    return machine, engine_kind(engine, args.disks).scaled(
        divisor, threads=args.threads
    )


def _root(args: argparse.Namespace, graph: Graph) -> int:
    return args.root if args.root is not None else default_root(graph)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "rmat":
        g = rmat_graph(scale=args.scale, edge_factor=args.edge_factor,
                       seed=args.seed)
    elif args.kind == "powerlaw":
        g = powerlaw_graph(args.vertices, args.edges, out_exponent=2.0,
                           seed=args.seed)
    elif args.kind == "random":
        g = random_graph(args.vertices, args.edges, seed=args.seed)
    elif args.kind == "grid":
        g = grid_graph(args.width, args.height)
    else:
        g = build_dataset(args.dataset, seed=args.seed)
    save_graph(g, args.output)
    print(f"wrote {g!r} -> {args.output} (+ .json config)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.algorithm != "bfs":
        for flag, given in (("--roots", args.roots is not None),
                            ("--validate", args.validate)):
            if given:
                return _usage_error(f"{flag} applies to --algorithm bfs only")
        if args.engine == "graphchi" and args.algorithm == "sssp":
            return _usage_error("the GraphChi baseline implements bfs and wcc only")
    elif args.roots is not None and args.validate:
        return _usage_error("--validate needs a single --root traversal")
    graph = _load_input(args)
    machine, engine = _testbed(args, args.engine)
    root = _root(args, graph)
    if args.algorithm == "wcc":
        result = engine.run(graph, machine, algorithm=WCCAlgorithm(), root=0)
    elif args.algorithm == "sssp":
        result = engine.run(
            graph, machine,
            algorithm=WeightedSSSPAlgorithm(hash_weights(args.max_weight)),
            root=root,
        )
    elif args.roots is not None:
        result = engine.run(graph, machine, roots=args.roots)
    else:
        result = engine.run(graph, machine, root=root)
    export_observability(machine, result, args.trace, args.metrics)
    print(result.summary())
    if args.algorithm == "wcc":
        print(f"components: {len(np.unique(result.output['label'])):,}")
        return 0
    if args.algorithm == "sssp":
        dist = result.output["distance"]
        reached = dist != UNREACHED
        print(f"root: {root}  reached: {int(reached.sum()):,}  "
              f"max distance: {int(dist[reached].max()) if reached.any() else 0}")
        return 0
    start = f"roots: {args.roots}" if args.roots is not None else f"root: {root}"
    print(f"{start}  visited: {(result.levels >= 0).sum():,} "
          f"of {graph.num_vertices:,}  depth: {result.levels.max()}")
    print(f"TEPS: {teps(graph, result.levels, result.execution_time):,.0f}")
    if args.verbose:
        print()
        print(result.iteration_table())
    if args.validate:
        report = validate_bfs_result(
            graph, root, result.levels, result.parents, bfs_levels(graph, root)
        )
        if not report.ok:
            print(f"validation: FAILED — {report.errors}", file=sys.stderr)
            return 1
        print("validation: OK (Graph500 rules + reference levels)")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    graph = _load_input(args)
    machine, engine = _testbed(args, args.engine)
    mode = "batched" if args.batch else "serial"
    batch = engine.run_many(graph, machine, roots=args.roots, mode=mode)
    export_observability(machine, batch, args.trace, args.metrics)
    rows: List[List[object]] = [
        [
            "staging",
            "-",
            format_seconds(batch.staging_time),
            format_bytes(batch.staging_report.bytes_total),
            "-",
            "-",
        ]
    ]
    for i, q in enumerate(batch.queries):
        rows.append(
            [
                f"query {i}",
                args.roots[i],
                format_seconds(q.execution_time),
                format_bytes(q.report.bytes_total),
                f"{(q.levels >= 0).sum():,}",
                q.num_iterations,
            ]
        )
    print(format_table(
        ["phase", "root", "time", "I/O", "visited", "iterations"],
        rows,
        title=f"{graph.name}: {batch.num_queries} queries on {args.engine}, "
              f"staged once",
    ))
    print(f"\ntotal: {format_seconds(batch.total_time)}  "
          f"amortized/query: {format_seconds(batch.amortized_time)}  "
          f"(staging amortized to "
          f"{format_seconds(batch.staging_time / batch.num_queries)}/query)")
    if batch.mode == "batched":
        print(f"batched: {len(batch.batch_times)} shared-scan batch(es), "
              f"{batch.edges_scanned:,} edges scanned "
              f"({batch.edge_scans_per_query:,.0f}/query amortized)")
    elif args.batch:
        print("batched mode unavailable for this engine/algorithm; "
              "ran serial fallback")
    if args.verbose:
        for i, q in enumerate(batch.queries):
            print(f"\nquery {i} (root {args.roots[i]}):")
            print(q.iteration_table())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_input(args)
    root = _root(args, graph)
    rows: List[List[object]] = []
    times = {}
    for name in PAPER_ENGINES:
        machine, engine = _testbed(args, name)
        result = engine.run(graph, machine, root=root)
        times[name] = result.execution_time
        rows.append(
            [
                name,
                format_seconds(result.execution_time),
                format_bytes(result.report.bytes_read),
                format_bytes(result.report.bytes_total),
                f"{result.report.iowait_ratio:.1%}",
                result.num_iterations,
            ]
        )
    print(format_table(
        ["engine", "time", "input", "total I/O", "iowait", "iterations"],
        rows,
        title=f"{graph.name}: root {root}, {args.disks}x{args.disk_kind}, "
              f"{args.memory} memory (paper scale)",
    ))
    print(f"\nFastBFS speedup vs X-Stream: "
          f"{times['x-stream'] / times['fastbfs']:.2f}x (paper: 1.6-2.1x HDD)")
    print(f"FastBFS speedup vs GraphChi: "
          f"{times['graphchi'] / times['fastbfs']:.2f}x (paper: 2.4-3.9x HDD)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.trace is not None:
        prof = profile_trace(args.trace)
        print(prof.report_text(width=args.width, host=args.host))
        return 0
    if args.graph is None and args.dataset is None:
        return _usage_error(
            "give a span-trace JSONL path, or --graph/--dataset for the "
            "convergence profile"
        )
    graph = _load_input(args)
    root = _root(args, graph)
    prof = level_profile(graph, root)
    rows = []
    for level, (frontier, scattered, remaining) in enumerate(
        zip(prof.frontier_sizes, prof.scatter_edges, prof.remaining_edges)
    ):
        rows.append(
            [
                level,
                frontier,
                scattered,
                remaining,
                f"{remaining / max(prof.num_edges, 1):.1%}",
            ]
        )
    print(format_table(
        ["level", "frontier", "edges scattered", "stay list", "useful"],
        rows,
        title=f"{graph.name}: convergence from root {root} (Fig. 1 data)",
    ))
    saved = 1 - prof.total_scanned_with_trimming() / max(
        prof.total_scanned_without_trimming(), 1
    )
    print(f"\nedge scans saved by trimming: {saved:.1%}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        collect_snapshot,
        compare_latest,
        snapshot_files,
        write_snapshot,
    )

    if args.bench_command == "run":
        snapshot = collect_snapshot(divisor=args.scale_divisor, seed=args.seed)
        path = write_snapshot(snapshot, root=args.bench_dir)
        scenarios = snapshot["scenarios"]
        print(f"wrote {path} ({len(scenarios)} scenarios, "
              f"divisor {snapshot['divisor']})")
        for name in sorted(scenarios):
            doc = scenarios[name]
            if doc.get("kind") == "multi-query":
                print(f"  {name}: {format_seconds(doc['batched_time'])} "
                      f"batched, {doc['queries']} queries, edge-scan "
                      f"amortization {doc['edge_scan_amortization']:.1%}")
            else:
                print(f"  {name}: {format_seconds(doc['execution_time'])}, "
                      f"{format_bytes(doc['total_bytes'])} total I/O, "
                      f"{doc['iterations']} iterations")
        return 0
    files = snapshot_files(args.bench_dir)
    if len(files) < 2:
        print(
            f"bench compare: found {len(files)} snapshot(s) in "
            f"{args.bench_dir!r}; nothing to compare",
            file=sys.stderr,
        )
        return 2
    comparison = compare_latest(args.bench_dir)
    print(comparison.render())
    return 0 if comparison.same else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.tooling.chaos import run_chaos

    report = run_chaos(
        profile=args.profile, seed=args.seed, trials=args.trials
    )
    print(report.render())
    if args.verbose:
        for trial in report.trials:
            print("  " + trial.describe())
    if not report.ok:
        print(
            f"chaos: {len(report.violations)} violation(s) — a fault "
            "schedule produced wrong output or an untyped failure",
            file=sys.stderr,
        )
        return 1
    print("chaos: every surviving run matched the reference bit-for-bit")
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        [
            name,
            f"{spec.paper_vertices/1e6:.1f}M",
            f"{spec.paper_edges/1e6:.0f}M",
            format_bytes(spec.paper_size_bytes),
            spec.description,
        ]
        for name, spec in DATASETS.items()
    ]
    print(format_table(
        ["name", "vertices", "edges", "size", "description"],
        rows,
        title="Table II datasets (paper scale; stand-ins are generated "
              "at 1/REPRO_SCALE_DIVISOR)",
    ))
    return 0


def cmd_analyze(argv: List[str]) -> int:
    from repro.tooling.analyzer import main as analyzer_main

    return analyzer_main(argv)


def cmd_gantt(args: argparse.Namespace) -> int:
    graph = _load_input(args)
    machine, engine = _testbed(args, args.engine)
    machine.attach_tracer(Tracer())
    result = engine.run(graph, machine, root=_root(args, graph))
    print(result.summary())
    print()
    disks = [dev.name for dev in machine.disks]
    print(render_device_gantt(machine, devices=disks, width=args.width))
    return 0


def cmd_shapes(args: argparse.Namespace) -> int:
    from repro.analysis.harness import ExperimentRunner
    from repro.analysis.figures import check_claims, scoreboard

    results = check_claims(
        ExperimentRunner(divisor=args.divisor), datasets=args.datasets
    )
    print(scoreboard(results))
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} claims hold")
    return 1 if failed else 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis.harness import ExperimentRunner
    from repro.analysis.figures import FIGURES, build_report

    runner = ExperimentRunner(divisor=args.divisor)
    report = build_report(
        runner,
        figures=args.figures if args.figures else list(FIGURES),
        datasets=args.datasets,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import GraphService

    fault_plan = None
    if args.fault_profile is not None:
        from repro.tooling.chaos import serve_fault_plan

        fault_plan = serve_fault_plan(args.fault_profile, args.fault_seed)
    service = GraphService(
        host=args.host,
        port=args.port,
        warmup=args.warmup,
        engine=args.engine,
        capacity=args.capacity,
        max_graphs=args.max_graphs,
        fault_plan=fault_plan,
        default_deadline_ms=args.default_deadline_ms,
    ).start()
    graphs = ", ".join(sorted(service.registry.names())) or "(none)"
    print(f"serving on {service.address}  graphs: {graphs}")
    if args.fault_profile:
        print(f"fault profile: {args.fault_profile} (seed {args.fault_seed})")
    print("endpoints: /healthz /metrics /graphs "
          "/graphs/<name>/{bfs,sssp,pagerank,stats}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("draining...")
    finally:
        service.shutdown()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import json
    import time  # wall clock for the poll cadence only — never simulated
    from urllib.error import URLError
    from urllib.request import urlopen

    base = args.url.rstrip("/")
    url = base + "/debug/timeseries?windows=1"
    while True:
        try:
            with urlopen(url, timeout=10) as resp:
                doc = json.loads(resp.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as exc:
            print(f"top: cannot read {url}: {exc}", file=sys.stderr)
            return 1
        windows = doc.get("windows", [])
        graphs = windows[-1]["graphs"] if windows else {}
        rows: List[List[object]] = []
        for name in sorted(graphs):
            g = graphs[name]
            wait, svc = g["queue_wait"], g["service_time"]
            rows.append([
                name,
                f"{g['rps']:.1f}",
                g["requests"],
                g["errors"],
                f"{g['queue_depth_last']}/{g['queue_depth_max']}",
                f"{wait['p50'] * 1e3:.2f}",
                f"{wait['p95'] * 1e3:.2f}",
                f"{wait['p99'] * 1e3:.2f}",
                format_seconds(svc["p50"]),
                format_seconds(svc["p99"]),
            ])
        title = (f"{base}  window {doc['window_seconds']:g}s  "
                 f"({len(doc.get('windows', []))} of {doc['capacity']} kept)")
        if rows:
            print(format_table(
                ["graph", "rps", "req", "err", "depth",
                 "wait p50 ms", "p95 ms", "p99 ms",
                 "sim p50", "sim p99"],
                rows,
                title=title,
            ))
        else:
            print(f"{title}\n  (no requests in the current window)")
        if args.once:
            return 0
        time.sleep(args.interval)


class Command(NamedTuple):
    """One subcommand: its ``--help`` line, handler and argument groups."""

    help: str
    handler: Callable[..., int]
    args: Tuple[ArgGroup, ...] = ()
    #: ``handler`` takes the argv after the name, unparsed: the command's
    #: own parser is the one place its options live.
    raw: bool = False


COMMANDS: Dict[str, Command] = {
    "generate": Command("generate a synthetic graph file", cmd_generate, (
        _arg("kind", choices=["rmat", "powerlaw", "random", "grid", "dataset"]),
        _arg("output", help="output path (binary edge list)"),
        _arg("--scale", type=int, default=14, help="rmat scale"),
        _arg("--edge-factor", type=int, default=16),
        _arg("--vertices", type=int, default=1 << 16),
        _arg("--edges", type=int, default=1 << 20),
        _arg("--width", type=int, default=256),
        _arg("--height", type=int, default=256),
        _arg("--dataset", choices=sorted(DATASETS), default="rmat22"),
        _arg("--seed", type=int, default=1),
    )),
    "run": Command("run an engine on a graph", cmd_run, (
        _input_args,
        ENGINE,
        _arg("--algorithm", choices=["bfs", "wcc", "sssp"], default="bfs"),
        _arg("--max-weight", type=int, default=8,
             help="sssp: synthetic edge weights in [1, max]"),
        ROOT,
        _arg("--roots", type=int, nargs="+", default=None,
             help="multi-source traversal: start from all of these"),
        _arg("--validate", action="store_true",
             help="validate the BFS tree against the in-memory reference"),
        _arg("--verbose", action="store_true",
             help="print the per-iteration breakdown"),
        _machine_args,
        _obs_args,
    )),
    "batch": Command("stage a graph once and run one BFS query per root", cmd_batch, (
        _input_args,
        ENGINE,
        _arg("--roots", type=int, nargs="+", required=True,
             help="one BFS query is run per root"),
        _arg("--batch", action="store_true",
             help="MS-BFS batched scheduling: advance up to 64 queries per "
                  "shared edge scan (bit-identical per-query results; see "
                  "docs/batched_bfs.md)"),
        _arg("--verbose", action="store_true",
             help="print each query's per-iteration breakdown"),
        _machine_args,
        _obs_args,
    )),
    "compare": Command("compare all engines on one graph", cmd_compare, (
        _input_args, ROOT, _machine_args,
    )),
    "profile": Command(
        "analyze a span trace (or print the BFS convergence profile)",
        cmd_profile, (
            _arg("trace", nargs="?", default=None,
                 help="span-trace JSONL (e.g. from 'run --trace'); omit to "
                      "profile convergence of --graph/--dataset instead"),
            _arg("--width", type=_width, default=100,
                 help="trace report width (columns, >= 10)"),
            _arg("--host", action="store_true",
                 help="append the dual-clock host-cost section (needs a "
                      "trace recorded with --host-profile)"),
            partial(_input_args, required=False),
            ROOT,
        ),
    ),
    "bench": Command(
        "benchmark snapshots (BENCH_<seq>.json) and the regression gate",
        cmd_bench, (_bench_args,),
    ),
    "chaos": Command(
        "sweep seeded fault schedules; exit 1 on any violation", cmd_chaos, (
            _arg("--profile", choices=["smoke", "full", "serve"],
                 default="smoke",
                 help="sweep size: smoke (CI gate), full (acceptance, >=50 "
                      "seeds) or serve (live GraphService under seeded "
                      "faults)"),
            _arg("--seed", type=int, default=0,
                 help="master seed; trials derive their schedules from it"),
            _arg("--trials", type=int, default=None,
                 help="override the profile's trial count"),
            _arg("--verbose", action="store_true",
                 help="print every trial, not just failures"),
        ),
    ),
    "datasets": Command("list the Table II dataset registry", cmd_datasets),
    "analyze": Command(
        "static analyzer: source rules + effect contracts (FBxxx)",
        cmd_analyze, raw=True,
    ),
    "gantt": Command(
        "run one traced BFS and draw the device Gantt",
        cmd_gantt, (
            _input_args,
            ENGINE,
            ROOT,
            _arg("--width", type=_width, default=100,
                 help="Gantt width (columns, >= 10)"),
            _machine_args,
        ),
    ),
    "shapes": Command(
        "check every claim of the paper's tables and figures", cmd_shapes, (
            _arg("--divisor", type=int, default=1024,
                 help="scale divisor (default 1024 for speed)"),
            _arg("--datasets", nargs="*", default=["rmat25"]),
        ),
    ),
    "serve": Command(
        "boot the long-lived graph query service (docs/serving.md)",
        cmd_serve, (
            _arg("--host", default="127.0.0.1",
                 help="bind address (default 127.0.0.1)"),
            _arg("--port", type=int, default=8080,
                 help="bind port; 0 picks an ephemeral port"),
            _arg("--warmup", nargs="*", default=[], metavar="SPEC",
                 help="graph specs staged at boot: a dataset name "
                      "('rmat22'), a generator spec "
                      "('rmat:scale=12,edge_factor=8,seed=7'), or "
                      "'name@spec' to alias"),
            _arg("--engine", choices=["fastbfs", "x-stream"],
                 default="fastbfs",
                 help="engine staged artifacts are built for"),
            _arg("--capacity", type=int, default=128,
                 help="per-graph admission queue capacity"),
            _arg("--max-graphs", type=int, default=4,
                 help="artifact registry LRU size"),
            _arg("--fault-profile", choices=["transient", "crashy", "hostile"],
                 default=None, metavar="NAME",
                 help="attach a seeded serve fault plan to every registered "
                      "graph's machine (transient | crashy | hostile; see "
                      "docs/serving.md#serving-under-faults)"),
            _arg("--fault-seed", type=int, default=0,
                 help="seed the --fault-profile plan is drawn with"),
            _arg("--default-deadline-ms", type=float, default=None,
                 metavar="MS",
                 help="server-wide per-request deadline; expired requests "
                      "get typed 504s (default: no deadline)"),
        ),
    ),
    "top": Command(
        "live per-graph view of a running service (/debug/timeseries)",
        cmd_top, (
            _arg("--url", default="http://127.0.0.1:8080",
                 help="service base URL (default http://127.0.0.1:8080)"),
            _arg("--interval", type=float, default=2.0,
                 help="poll interval in seconds (default 2)"),
            _arg("--once", action="store_true",
                 help="print a single sample and exit (CI mode)"),
        ),
    ),
    "reproduce": Command(
        "run the paper's experiments and write a markdown report",
        cmd_reproduce, (
            _arg("--figures", nargs="*", default=None,
                 help="subset, e.g. fig4 fig5 (default: all)"),
            _arg("--datasets", nargs="*", default=None,
                 help="subset of the big datasets (default: all four)"),
            _arg("--divisor", type=int, default=None,
                 help="scale divisor override (default: env or 256)"),
            _arg("--output", default=None,
                 help="write the report here (default: stdout)"),
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastbfs",
        description="FastBFS (IPDPS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for group in command.args:
            group(p)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = COMMANDS.get(argv[0]) if argv else None
    if command is not None and command.raw:
        return command.handler(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
