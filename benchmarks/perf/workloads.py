"""The five workloads: what runs, on which graph, and how answers are checked.

Only the repo's public entry points are called (``repro.run_bfs``, the
``repro.graph`` generators, ``repro.analysis.calibration``,
``ArtifactRegistry.register``, ``AdmissionController.offer/flush`` and
``GraphService`` with its HTTP endpoints), so a refactor below them never
needs an edit here.  Graph seeds are constants of a workload; ``--seed``
draws the roots.  README.md says why each workload exists.
"""

from __future__ import annotations

import _env  # noqa: F401  (first: puts src/ on sys.path)

import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import (
    FastBFSConfig,
    Machine,
    build_dataset,
    profile_trace,
    rmat_graph,
    run_bfs,
    validate_bfs_result,
)
from repro.algorithms.reference import bfs_levels
from repro.analysis.calibration import (
    scaled_engine_config,
    scaled_fastbfs_config,
    scaled_machine,
)
from repro.graph import EDGE_DTYPE, CSRGraph, Graph
from repro.serve.admission import AdmissionController
from repro.serve.app import GraphService
from repro.serve.registry import ArtifactRegistry
from repro.storage.machine import IOReport

import loadgen
import probe as probe_mod
from hostspeed import Block, speed_probe

#: Graph of ``flush_wide`` and ``serve_ooc``; with :func:`ooc_config` and
#: :func:`ooc_machine` it is staged out of core into 8 partitions.
OOC_GRAPH = dict(scale=13, edge_factor=16, seed=7)
#: Graph of ``serve_light``; ``GraphService()`` defaults keep it in memory.
LIGHT_GRAPH = dict(scale=10, edge_factor=16, seed=7)
SERVED_NAME = "g"


def ooc_config() -> FastBFSConfig:
    return FastBFSConfig(
        edge_buffer_bytes=8192,
        update_buffer_bytes=4096,
        stay_buffer_bytes=4096,
        num_partitions=8,
        allow_in_memory=False,
    )


def ooc_machine() -> Machine:
    return Machine.commodity_server(memory="8MB")


#: The phases a run can have, by the label their operation ids carry.
PHASES = ("warmup", "base", "prof", "op")


class PathGuardError(Exception):
    """A workload ran on a code path other than the one it exists to time."""


def _edge_records_read(report: IOReport) -> int:
    """Edge records a run or flush streamed, from its device byte report.

    A served per-query result says ``edges_scanned: 0`` in batched mode, so
    the path guards count what the devices actually read.
    """
    return report.bytes_by_role().get(("edges", "read"), 0) // EDGE_DTYPE.itemsize


# ----------------------------------------------------------------------
# roots and answers
# ----------------------------------------------------------------------
class RootPool:
    """Roots a run may query, with the reference answer of each.

    Candidates are drawn in ``seed`` order from the vertices with out-edges
    and kept when their reference BFS reaches at least half of what the
    hub's reaches, so no operation is a trivial one-level traversal.
    """

    def __init__(self, graph: Graph, size: int, seed: int) -> None:
        csr = CSRGraph.from_graph(graph)
        degrees = graph.out_degrees()
        hub = int(np.argmax(degrees))
        floor = int((bfs_levels(csr, hub) >= 0).sum()) / 2
        self.seed = seed
        self.reference: Dict[int, np.ndarray] = {}
        order = np.random.default_rng(seed).permutation(np.flatnonzero(degrees > 0))
        for vertex in order:
            levels = bfs_levels(csr, int(vertex))
            if (levels >= 0).sum() >= floor:
                self.reference[int(vertex)] = levels
                if len(self.reference) == size:
                    break
        else:
            raise ValueError(f"{graph.name}: fewer than {size} usable roots")
        self.roots = list(self.reference)

    def cycle(self, phase: str, stream: int = 0) -> Iterator[int]:
        """Endless root sequence of one connection: seeded permutations.

        Every phase of a run starts its own sequence, so what a phase
        queries does not depend on how many operations the time-bounded
        phases before it completed.
        """
        rng = np.random.default_rng([self.seed, PHASES.index(phase), stream])
        while True:
            for root in rng.permutation(self.roots):
                yield int(root)

    def batches(self, phase: str, width: int) -> Iterator[List[int]]:
        """Endless sequence of ``width`` distinct roots."""
        rng = np.random.default_rng([self.seed, PHASES.index(phase), width])
        while True:
            yield [int(r) for r in rng.choice(self.roots, width, replace=False)]


class AnswerCheck:
    """Checks returned (levels, parents) against the reference and Graph500 rules.

    An answer is a pure function of (graph, root), so the first answer for
    each root is kept and validated after the timed phases, and a repeat
    only has to be bit-identical to it.  Comparing a repeat costs a
    fraction of a millisecond and happens between timed operations; it is
    what keeps the memory held for checking independent of how many
    operations a run completes.
    """

    def __init__(self, graph: Graph, pool: RootPool) -> None:
        self.graph = graph
        self.pool = pool
        self._first: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._same: Dict[int, int] = {}      # answers equal to the first, it included
        self._differing = 0

    def receive(self, root: int, levels: np.ndarray, parents: np.ndarray) -> None:
        first = self._first.get(root)
        if first is None:
            self._first[root] = (levels, parents)
            self._same[root] = 1
        elif np.array_equal(levels, first[0]) and np.array_equal(parents, first[1]):
            self._same[root] += 1
        else:
            self._differing += 1

    def wrong_answers(self) -> int:
        """Validate every first answer; returns how many answers were wrong."""
        wrong = self._differing
        for root, (levels, parents) in self._first.items():
            if not self._valid(root, levels, parents):
                wrong += self._same[root]
        return wrong

    def _valid(self, root: int, levels: np.ndarray, parents: np.ndarray) -> bool:
        graph, reference = self.graph, self.pool.reference[root]
        if levels.shape != reference.shape or parents.shape != reference.shape:
            return False
        # Levels against the reference and the level rules on every edge.
        if not validate_bfs_result(graph, root, levels, reference_levels=reference).ok:
            return False
        # The parent rules need "every claimed tree edge is a graph edge".
        # validate_bfs_result answers that with np.unique over all edges
        # (2 s at rmat25/256), so it is asked about the sub-graph of edges
        # the answer claims: a claimed edge is in that sub-graph exactly
        # when it is in the graph, and the level rules were checked above.
        src, dst = graph.edges["src"], graph.edges["dst"]
        claimed = parents[dst] == src
        tree = Graph.from_arrays(graph.num_vertices, src[claimed], dst[claimed])
        return validate_bfs_result(tree, root, levels, parents).ok


# ----------------------------------------------------------------------
# what a phase of operations yields
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Everything recorded over one run of back-to-back operations."""

    latencies: List[float] = field(default_factory=list)      # s per operation
    blocks: List[Block] = field(default_factory=list)
    op_blocks: List[int] = field(default_factory=list)        # block of each operation
    queries: int = 0                                          # answers received
    attempted: int = 0
    failed: int = 0
    #: Per successful operation: (report id, simulated-I/O report, answers).
    #: Requests coalesced into one flush carry the same report id.
    op_reports: List[Tuple[str, IOReport, int]] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    widths: List[int] = field(default_factory=list)
    response_bytes: List[int] = field(default_factory=list)
    decode_seconds: float = 0.0
    host_profiles: List[dict] = field(default_factory=list)
    op_ids: List[str] = field(default_factory=list)

    def simulated(self, ops: Optional[int] = None) -> Tuple[float, int, int, int]:
        """``(sim seconds, device bytes, edge records read, queries)`` of the
        first ``ops`` operations (all by default), each flush counted once."""
        reports = {rid: report for rid, report, _ in self.op_reports[:ops]}
        queries = sum(count for _, _, count in self.op_reports[:ops])
        return (
            sum(r.execution_time for r in reports.values()),
            sum(r.bytes_total for r in reports.values()),
            sum(_edge_records_read(r) for r in reports.values()),
            queries,
        )


@dataclass
class Outcome:
    """What one in-process operation returned."""

    answers: List[tuple]
    report: IOReport
    queue_waits: List[float] = field(default_factory=list)
    trace_source: object = None      # what profile_trace() reads host stages from


class InProcess:
    """A workload whose process under test is the benchmark process."""

    host_profiled = True
    connections = 1
    width = 1            # queries per operation

    def __init__(self, name: str, seed: int, smoke: bool, trace: bool) -> None:
        self.name, self.seed, self.smoke, self.trace = name, seed, smoke, trace
        self.probe = probe_mod.Probe()
        self.graph: Graph
        self.pool: RootPool
        self.check: AnswerCheck

    def setup(self) -> None:
        """Everything before the first timed operation, warm-up included.

        With ``trace`` the probe is on from the start, so graph generation
        and staging show up as spans of the ``setup`` operation.
        """
        if self.trace:
            self.probe.install()
        with self.probe.operation("setup") if self.trace else nullcontext():
            self._setup()

    def _setup(self) -> None:
        raise NotImplementedError

    def begin_phase(self, label: str) -> None:
        """Start the root sequence of phase ``label``."""
        raise NotImplementedError

    def operate(self, op_id: str, keep_trace: bool) -> Outcome:
        raise NotImplementedError

    def run_phase(self, seconds: float, label: str, max_ops: Optional[int] = None,
                  keep_trace: bool = False) -> Phase:
        phase = Phase()
        self.begin_phase(label)
        probe_s = speed_probe()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and (max_ops is None or phase.attempted < max_ops):
            op_id = f"{self.name}-{label}-{phase.attempted}"
            phase.attempted += 1
            scope = self.probe.operation(op_id) if self.probe.installed else nullcontext()
            cpu0, start = time.process_time(), time.perf_counter()
            try:
                with scope:
                    outcome = self.operate(op_id, keep_trace)
            except PathGuardError:
                raise
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc()
                phase.failed += 1
                continue
            end, cpu1 = time.perf_counter(), time.process_time()
            before, probe_s = probe_s, speed_probe()
            phase.op_ids.append(op_id)
            phase.latencies.append(end - start)
            phase.op_blocks.append(len(phase.blocks))
            phase.blocks.append(Block(
                end - start, len(outcome.answers), cpu1 - cpu0, (before + probe_s) / 2.0
            ))
            phase.queries += len(outcome.answers)
            for answer in outcome.answers:
                self.check.receive(*answer)
            phase.op_reports.append((op_id, outcome.report, len(outcome.answers)))
            phase.queue_waits.extend(outcome.queue_waits)
            phase.widths.append(len(outcome.answers))
            if outcome.trace_source is not None:
                phase.host_profiles.append(profile_trace(outcome.trace_source).host())
        return phase

    def set_tracing(self, on: bool) -> None:
        if on:
            self.probe.install()
        else:
            self.probe.uninstall()

    def take_spans(self) -> List[probe_mod.Span]:
        return self.probe.drain()

    def probes_missing(self) -> List[str]:
        return list(self.probe.missing)

    def flush_retries(self) -> int:
        return 0

    def close(self) -> float:
        """Peak RSS of the process under test, in KiB."""
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class Traverse(InProcess):
    """One ``run_bfs`` per operation on rmat25, fresh machine each time."""

    def __init__(self, name, seed, smoke, trace, engine: str, make_config: Callable) -> None:
        super().__init__(name, seed, smoke, trace)
        self.engine = engine
        # The smoke graph is 16 times smaller; buffers and memory scale with it.
        self.divisor = 4096 if smoke else 256
        self.config = make_config(self.divisor)

    def _setup(self) -> None:
        self.graph = build_dataset("rmat25", divisor=self.divisor, cache=False)
        self.pool = RootPool(self.graph, 4 if self.smoke else 8, self.seed)
        self.check = AnswerCheck(self.graph, self.pool)
        self.run_phase(60.0, "warmup", max_ops=1 if self.smoke else 2)

    def begin_phase(self, label: str) -> None:
        self._roots = self.pool.cycle(label)

    def operate(self, op_id: str, keep_trace: bool) -> Outcome:
        root = next(self._roots)
        machine = scaled_machine(divisor=self.divisor)
        result = run_bfs(
            self.graph, engine=self.engine, machine=machine, config=self.config,
            root=root, host_profile=keep_trace,
        )
        if result.extras.get("in_memory") != 0.0 or result.edges_scanned <= 0:
            raise PathGuardError(
                f"{self.name}: expected an out-of-core run that scans edges, got "
                f"in_memory={result.extras.get('in_memory')} "
                f"edges_scanned={result.edges_scanned}"
            )
        return Outcome(
            [(root, result.levels, result.parents)], result.report,
            trace_source=machine if keep_trace else None,
        )


class FlushWide(InProcess):
    """64 offers and one flush per operation: admission + the wide kernel."""

    width = 64

    def _setup(self) -> None:
        self.graph = rmat_graph(**OOC_GRAPH)
        self.pool = RootPool(self.graph, self.width if self.smoke else 96, self.seed)
        self.check = AnswerCheck(self.graph, self.pool)
        registry = ArtifactRegistry(config=ooc_config(), machine_factory=ooc_machine)
        entry = registry.register(SERVED_NAME, self.graph)
        if entry.staged.in_memory is not False:
            raise PathGuardError(f"{self.name}: the graph was staged in memory")
        self.controller = AdmissionController(entry)
        self.run_phase(60.0, "warmup", max_ops=1)

    def begin_phase(self, label: str) -> None:
        self._batches = self.pool.batches(label, self.width)

    def operate(self, op_id: str, keep_trace: bool) -> Outcome:
        for slot, root in enumerate(next(self._batches)):
            self.controller.offer(f"{op_id}-{slot}", root)
        record = self.controller.flush()
        for ticket in record.tickets:
            if ticket.error is not None:
                raise ticket.error
        if _edge_records_read(record.report) <= 0:
            raise PathGuardError(f"{self.name}: the flush read no edge records")
        return Outcome(
            [(t.entry, t.result.levels, t.result.parents) for t in record.tickets],
            record.report,
            queue_waits=[t.queue_wait for t in record.tickets],
            trace_source=record.spans if keep_trace else None,
        )

    def flush_retries(self) -> int:
        return int(self.controller.counters()["flush_retries"])


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServedSpec:
    """How the server child builds its service for one ``serve_*`` workload."""

    graph: dict
    out_of_core: bool
    connections: int
    warmup_ops: int
    pool_size: int

    @property
    def spec(self) -> str:
        params = ",".join(f"{key}={value}" for key, value in self.graph.items())
        return f"{SERVED_NAME}@rmat:{params}"

    def make_service(self) -> GraphService:
        if self.out_of_core:
            return GraphService(
                warmup=[self.spec], config=ooc_config(), machine_factory=ooc_machine
            )
        return GraphService(warmup=[self.spec])


SERVED = {
    "serve_light": ServedSpec(LIGHT_GRAPH, out_of_core=False, connections=2,
                              warmup_ops=20, pool_size=64),
    "serve_ooc": ServedSpec(OOC_GRAPH, out_of_core=True, connections=1,
                            warmup_ops=5, pool_size=32),
}


class ServerChild:
    """The server process and its one-line command channel (see server.py)."""

    def __init__(self, workload: str, trace: bool = False, echo_bytes: int = 0) -> None:
        argv = [sys.executable, str(_env.PERF_DIR / "server.py"), workload]
        if trace:
            argv.append("--trace")
        if echo_bytes:
            argv += ["--echo-bytes", str(echo_bytes)]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            hello = self._read()
        except BaseException:
            self.kill()
            raise
        self.port: int = hello["port"]
        self.missing: List[str] = hello["missing"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited with {self.proc.wait()}")
        return json.loads(line)

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Shut the server down; returns its final CPU and peak-RSS mark."""
        try:
            final = self.command("stop")
            self.proc.wait(timeout=30)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Served:
    """Closed-loop HTTP clients against a server child."""

    host_profiled = False
    width = 1

    def __init__(self, name: str, seed: int, smoke: bool, trace: bool) -> None:
        self.name, self.seed, self.smoke, self.trace = name, seed, smoke, trace
        self.spec = SERVED[name]
        self.connections = self.spec.connections
        self.server: Optional[ServerChild] = None
        self._client_spans: List[probe_mod.Span] = []
        self._span_ids = itertools.count(-1, -1)    # never collide with the server's

    @property
    def path(self) -> str:
        return f"/graphs/{SERVED_NAME}/bfs"

    def setup(self) -> None:
        self.server = ServerChild(self.name, trace=self.trace)
        self.graph = rmat_graph(**self.spec.graph)
        self.pool = RootPool(self.graph, 8 if self.smoke else self.spec.pool_size, self.seed)
        self.check = AnswerCheck(self.graph, self.pool)
        in_memory = self._stats()["in_memory"]
        if in_memory is self.spec.out_of_core:
            raise PathGuardError(
                f"{self.name}: served with in_memory={in_memory}, "
                f"expected {not self.spec.out_of_core}"
            )
        self.run_phase(60.0, "warmup", max_ops=2 if self.smoke else self.spec.warmup_ops)

    def cpu_mark(self) -> float:
        return self.server.command("mark")["cpu_s"]

    def run_phase(self, seconds: float, label: str, max_ops: Optional[int] = None,
                  keep_trace: bool = False) -> Phase:
        sequences = [self.pool.cycle(label, i) for i in range(self.connections)]
        samples, blocks = loadgen.closed_loop(
            self.server.port, self.path, sequences, seconds,
            id_prefix=f"{self.name}-{label}", max_ops=max_ops,
            cpu_mark=self.cpu_mark if max_ops is None else None,
            block_seconds=max(seconds / 12.0, 0.02),
        )
        phase = Phase(blocks=blocks)
        for sample in samples:
            phase.attempted += 1
            try:
                if sample.status != 200:
                    raise ValueError(f"HTTP {sample.status}: {sample.body[:200]!r}")
                decode_start = time.perf_counter()
                body = json.loads(sample.body)
                phase.decode_seconds += time.perf_counter() - decode_start
                answer = (
                    sample.root,
                    np.array(body["result"]["levels"], dtype=np.int32),
                    np.array(body["result"]["parents"], dtype=np.uint32),
                )
                report = (body["report_id"], IOReport.from_dict(body["report"]), 1)
                phase.queue_waits.append(body["timing"]["queue_wait_seconds"])
                phase.widths.append(body["flush"]["size"])
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                print(f"{sample.op_id}: {exc}", file=sys.stderr)
                phase.failed += 1
                continue
            phase.queries += 1
            self.check.receive(*answer)
            phase.op_reports.append(report)
            phase.op_ids.append(sample.op_id)
            phase.latencies.append(sample.latency)
            phase.op_blocks.append(min(sample.block, len(blocks) - 1))
            phase.response_bytes.append(len(sample.body))
            self._client_spans.append(probe_mod.Span(
                next(self._span_ids), 0, "client", "request", sample.op_id,
                int(sample.start * 1e9), int(sample.end * 1e9),
            ))
        if self.spec.out_of_core and phase.queries and phase.simulated()[2] <= 0:
            raise PathGuardError(f"{self.name}: the flush reports read no edge records")
        return phase

    def set_tracing(self, on: bool) -> None:
        self.server.command("trace_on" if on else "trace_off")

    def take_spans(self) -> List[probe_mod.Span]:
        """The server's spans plus one client span per request."""
        _env.OUT_DIR.mkdir(exist_ok=True)
        path = _env.OUT_DIR / f"server_spans_{self.name}.jsonl"
        self.server.command(f"spans {path}")
        spans = probe_mod.read_spans(path)
        path.unlink()
        spans.extend(self._client_spans)
        self._client_spans = []
        return spans

    def probes_missing(self) -> List[str]:
        return list(self.server.missing)

    def _stats(self) -> dict:
        url = f"http://127.0.0.1:{self.server.port}/graphs/{SERVED_NAME}/stats"
        with urllib.request.urlopen(url, timeout=30) as response:
            return json.load(response)

    def flush_retries(self) -> int:
        return int(self._stats()["admission"]["flush_retries"])

    def client_floor_ms(self, response_bytes: int) -> float:
        """Median latency of this client against a handler that does nothing."""
        echo = ServerChild("echo", echo_bytes=response_bytes)
        try:
            samples, _ = loadgen.closed_loop(
                echo.port, "/", [self.pool.cycle("base")], seconds=1.0,
                id_prefix="floor", max_ops=50 if self.smoke else 400,
            )
        finally:
            echo.stop()
        return statistics.median(s.latency for s in samples) * 1e3

    def close(self) -> float:
        """Stop the server; its peak RSS in KiB."""
        if self.server is None:
            return 0.0
        server, self.server = self.server, None
        return float(server.stop()["peak_rss_kb"])


WORKLOADS: Dict[str, Callable] = {
    "traverse_trim": lambda **kw: Traverse(
        "traverse_trim", engine="fastbfs", make_config=scaled_fastbfs_config, **kw),
    "traverse_scan": lambda **kw: Traverse(
        "traverse_scan", engine="x-stream", make_config=scaled_engine_config, **kw),
    "flush_wide": lambda **kw: FlushWide("flush_wide", **kw),
    "serve_light": lambda **kw: Served("serve_light", **kw),
    "serve_ooc": lambda **kw: Served("serve_ooc", **kw),
}
