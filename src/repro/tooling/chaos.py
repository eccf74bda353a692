"""Chaos harness: seeded fault schedules swept across engines and configs.

The fault-injection subsystem (:mod:`repro.storage.faults`) makes device
misbehaviour a reproducible input; this module turns it into a *test
regimen*.  :func:`run_chaos` sweeps a deterministic family of fault plans
— transient read/write errors, latency spikes, torn stay-file writes, a
probabilistic mid-query crash point, and (in some trials) a persistent
media error — across the FastBFS and X-Stream engines on one- and
two-disk machines (plus MS-BFS batched-session cells, where a mid-batch
crash replays the whole shared-scan batch), and holds every surviving
run to the only acceptable standard: **the in-memory reference's BFS
levels, bit for bit, and a valid parent tree**
(:class:`repro.algorithms.validation.BFSAnswerChecker`).

A trial ends in exactly one of four outcomes:

``ok``
    The run completed despite injected faults (retries and checksum
    fallbacks absorbed them) and its answer passes the checker.
``recovered``
    A crash point killed the query; :meth:`QuerySession.recover
    <repro.engines.session.QuerySession.recover>` replayed it from the
    staged artifact + entry checkpoint and the answer passes the checker.
``typed-error``
    The run failed, but with a typed :class:`~repro.errors.ReproError`
    subclass (persistent media error, retry exhaustion, out of space) —
    the contract for unabsorbable faults.
``violation``
    Anything else: wrong levels or parents, an untyped exception, a
    :class:`~repro.errors.SanitizerError` (the sanitizer's checks run on
    every session report, so a fault path that leaks a file or skips a
    charge shows here), or an observability mismatch (span trace not
    reconciling with the injector's counters).  One violation fails the
    whole sweep.

Every trial also cross-checks the trace against the counter registry:
``io_retry``/``io_giveup``/``crash``/``recover`` span counts must equal
``io_retries_total``/``io_giveups_total``/``fault_crash_total``/
``crash_recoveries_total`` exactly.

Run it from the CLI (``repro chaos --profile smoke``; nonzero exit on
violation — the CI ``chaos-smoke`` job does exactly this) or call
:func:`run_chaos` directly.

The ``serve`` profile points the same seeded-fault machinery at a live
:class:`~repro.serve.app.GraphService`: each trial boots the real HTTP
server on a fault-injected registry (one of the named
:data:`SERVE_FAULT_PROFILES` plans — the same plans ``repro serve
--fault-profile`` installs), replays a deterministic request sequence
(BFS with SSSP and PageRank steps mixed in: every algorithm is a ticket
of the one admission queue) twice to prove health-state transitions are a
pure function of the seed, checks every 200 against its query's
fault-free answer (BFS bodies through the same checker,
parents included), sends a 16-request burst asserting no response is lost
or duplicated and every failure is a typed error, drives an
expired-deadline sweep, and finally reconciles ``/metrics`` exactly —
device bytes against the deduped per-flush reports, and ``fault_*`` /
``serve_flush_failed_total`` / ``breaker_state`` /
``deadline_exceeded_total`` against the injector, breaker and driver
ground truth.

The burst and the deadline sweep are *held* sends (:func:`_held_sends`):
the graph's admission controller is held, one request thread starts at
a time and is queued (or already answered) before the next starts, then
the controller is released.  Queue order is then send order, so the
flushes the burst makes follow from the prefix rule alone and the whole
report is a pure function of ``(seed, trials)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.validation import BFSAnswerChecker
from repro.analysis.calibration import engine_kind
from repro.core.config import FastBFSConfig
from repro.engines.base import EdgeCentricEngine
from repro.engines.result import BatchResult
from repro.engines.session import MAX_RECOVERIES, run_staged_queries
from repro.errors import ConfigError, ReproError, SanitizerError
from repro.graph.generators import rmat_graph
from repro.graph.graph import Graph
from repro.obs.counters import CounterRegistry
from repro.obs.tracer import Tracer
from repro.storage.device import DeviceSpec
from repro.storage.faults import FaultPlan, FaultSpec
from repro.storage.machine import Machine
from repro.utils.rng import rng_from_seed
from repro.utils.units import KB, MB

#: (engine name, disk count, session mode) scenarios each sweep cycles
#: through.  ``"single"`` cells run one QuerySession; ``"batched"`` cells
#: run a Q-root MS-BFS :class:`~repro.engines.session.BatchedQuerySession`
#: so seeded mid-batch faults exercise the shared-scan crash/recover path.
SCENARIOS: Tuple[Tuple[str, int, str], ...] = (
    ("fastbfs", 1, "single"),
    ("fastbfs", 2, "single"),
    ("x-stream", 1, "single"),
    ("x-stream", 2, "single"),
    ("fastbfs", 1, "batched"),
    ("fastbfs", 2, "batched"),
)

#: Queries per batched chaos cell (hub plus next best-connected roots).
BATCH_QUERIES = 4

#: I/O attempts per request the sweeps' fault plans allow (one more than
#: a plan's default, so the transient mix is absorbed more often).
IO_MAX_ATTEMPTS = 4

#: Span names whose counts must reconcile with injector counters
#: (span name -> counter name as sampled into the registry).
_RECONCILED_SPANS: Tuple[Tuple[str, str], ...] = (
    ("io_retry", "io_retries_total"),
    ("io_giveup", "io_giveups_total"),
    ("crash", "fault_crash_total"),
    ("recover", "crash_recoveries_total"),
)


@dataclass(frozen=True)
class ChaosProfile:
    """One named sweep size: trial count plus the shared test graph."""

    name: str
    trials: int
    scale: int = 8
    edge_factor: int = 8
    graph_seed: int = 3


#: The registered profiles.  ``smoke`` is the CI gate (fast, fixed seed);
#: ``full`` is the acceptance sweep (>= 50 seeded schedules); ``serve``
#: points the harness at a live :class:`~repro.serve.app.GraphService`.
PROFILES: Dict[str, ChaosProfile] = {
    "smoke": ChaosProfile("smoke", trials=12),
    "full": ChaosProfile("full", trials=56),
    "serve": ChaosProfile("serve", trials=6, scale=9),
}

#: Named fault-plan shapes for serving (``repro serve --fault-profile``
#: and the ``serve`` chaos profile).  ``transient`` is absorbed by the
#: retry loop, ``crashy`` exercises in-flush crash recovery, ``hostile``
#: carries persistent media errors that degrade and quarantine graphs.
SERVE_FAULT_PROFILES: Tuple[str, ...] = ("transient", "crashy", "hostile")

#: Requests in the deterministic (phase A) serve-chaos sequence.
SERVE_SEQUENCE = 12

#: Algorithm of sequence step ``i`` (cycled): the serial algorithms ride
#: the same admission queue, so faults must find them on it too.
SERVE_STEP_ALGORITHMS = ("bfs", "bfs", "sssp", "bfs", "bfs", "pagerank")
SERVE_SSSP_MAX_WEIGHT = 4
SERVE_PAGERANK_ROUNDS = 2

#: Where a 200 SSSP or PageRank body carries its answer.
_ANSWER_FIELDS = {"sssp": "distances", "pagerank": "ranks"}

#: Requests in the serve-chaos burst phase (one flush while healthy).
SERVE_BURST = 16

#: Error kinds a resilient server is allowed to return for queries.
SERVE_TYPED_ERRORS = frozenset({
    "queue_full", "graph_quarantined", "flush_failed",
    "deadline_exceeded", "shutting_down",
})


@dataclass
class ChaosTrial:
    """Outcome record for one seeded fault schedule."""

    index: int
    engine: str
    disks: int
    seed: int
    outcome: str  # "ok" | "recovered" | "typed-error" | "violation"
    mode: str = "single"
    detail: str = ""
    faults_injected: int = 0
    retries: int = 0
    recoveries: int = 0

    def describe(self) -> str:
        base = (
            f"trial {self.index:3d} [{self.engine}/{self.disks}d/"
            f"{self.mode} seed {self.seed}] {self.outcome}"
        )
        extras = (
            f" (faults={self.faults_injected}, retries={self.retries}, "
            f"recoveries={self.recoveries})"
        )
        return base + extras + (f" — {self.detail}" if self.detail else "")


@dataclass
class ChaosReport:
    """The result of one :func:`run_chaos` sweep."""

    profile: str
    seed: int
    trials: List[ChaosTrial]

    @property
    def violations(self) -> List[ChaosTrial]:
        return [t for t in self.trials if t.outcome == "violation"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def outcome_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for t in self.trials:
            counts[t.outcome] = counts.get(t.outcome, 0) + 1
        return counts

    def render(self) -> str:
        counts = self.outcome_counts()
        lines = [
            f"chaos {self.profile} (seed {self.seed}): "
            f"{len(self.trials)} trials, {len(self.violations)} violation(s)",
            "  "
            + "  ".join(
                f"{k}: {counts.get(k, 0)}"
                for k in ("ok", "recovered", "typed-error", "violation")
            ),
            f"  faults injected: {sum(t.faults_injected for t in self.trials)}"
            f"  retries: {sum(t.retries for t in self.trials)}"
            f"  recoveries: {sum(t.recoveries for t in self.trials)}",
        ]
        for t in self.trials:
            if t.outcome in ("violation", "typed-error"):
                lines.append("  " + t.describe())
        return "\n".join(lines)


def _trial_plan(rng: np.random.Generator, plan_seed: int) -> FaultPlan:
    """One seeded fault schedule: the mix is rng-driven, the plan replays."""
    specs: List[FaultSpec] = [
        # Background transient errors on every device; low enough that the
        # bounded retry loop almost always absorbs them.
        FaultSpec(
            kind="transient_error",
            probability=float(rng.uniform(0.005, 0.04)),
        ),
        # Occasional latency spikes — purely timing, never correctness.
        FaultSpec(
            kind="latency",
            probability=float(rng.uniform(0.01, 0.05)),
            delay_seconds=float(rng.uniform(0.002, 0.02)),
        ),
    ]
    # Torn stay-file writes: only checksummed consumers catch these, so
    # they specifically exercise the integrity-fallback layer (FastBFS
    # trials; X-Stream has no stay role and the spec simply never fires).
    if rng.random() < 0.8:
        specs.append(
            FaultSpec(
                kind="torn_write",
                role="stay",
                probability=float(rng.uniform(0.2, 0.7)),
                max_fires=int(rng.integers(1, 4)),
            )
        )
    # A probabilistic one-shot crash point.  The "vertices" role only
    # appears during queries (staging uses input/partition groups), so a
    # fired crash always lands mid-query where recover() applies.
    if rng.random() < 0.7:
        specs.append(
            FaultSpec(
                kind="crash",
                role="vertices",
                probability=float(rng.uniform(0.02, 0.25)),
                max_fires=1,
            )
        )
    # A minority of trials carry an unabsorbable persistent media error:
    # those runs must die with a typed ReproError, never wrong output.
    if rng.random() < 0.2:
        specs.append(
            FaultSpec(
                kind="persistent_error",
                probability=float(rng.uniform(0.002, 0.01)),
                max_fires=1,
            )
        )
    return FaultPlan(
        specs=tuple(specs), seed=plan_seed, max_attempts=IO_MAX_ATTEMPTS
    )


def _make_engine(name: str, disks: int) -> EdgeCentricEngine:
    """The :data:`~repro.analysis.calibration.ENGINES` row ``name`` means on
    ``disks`` disks (two rotate FastBFS's streams), with small buffers and
    never in memory, so the streaming paths are exercised."""
    return engine_kind(name, disks).scaled(
        edge_buffer_bytes=2 * KB,
        update_buffer_bytes=1 * KB,
        stay_buffer_bytes=1 * KB,
        num_partitions=4,
        allow_in_memory=False,
    )


def _make_machine(disks: int, plan: FaultPlan) -> Machine:
    machine = Machine(
        [DeviceSpec.hdd(f"hdd{i}") for i in range(disks)],
        memory=2 * MB,
        cores=4,
        fault_plan=plan,
    )
    machine.attach_tracer(Tracer())
    return machine


def _reconcile(machine: Machine) -> List[str]:
    """Cross-check the span trace against the injector's counters."""
    injector = machine.fault_injector
    if injector is None:
        return ["machine has no fault injector"]
    span_counts: Dict[str, int] = {}
    for span in machine.tracer.spans:
        span_counts[span.name] = span_counts.get(span.name, 0) + 1
    registry = CounterRegistry.from_machine(machine)
    problems: List[str] = []
    for span_name, counter_name in _RECONCILED_SPANS:
        spans = span_counts.get(span_name, 0)
        counted = registry.total(counter_name)
        if float(spans) != counted:
            problems.append(
                f"{span_name} spans ({spans}) != {counter_name} ({counted:.0f})"
            )
    return problems


def _run_trial(
    index: int,
    engine_name: str,
    disks: int,
    mode: str,
    trial_seed: int,
    graph: Graph,
    roots: List[int],
    checker: BFSAnswerChecker,
) -> ChaosTrial:
    rng = rng_from_seed(trial_seed)
    plan = _trial_plan(rng, trial_seed)
    machine = _make_machine(disks, plan)
    engine = _make_engine(engine_name, disks)
    trial = ChaosTrial(
        index=index, engine=engine_name, disks=disks, seed=trial_seed,
        outcome="violation", mode=mode,
    )
    batch: Optional[BatchResult] = None
    batched = mode == "batched"
    query_roots = roots if batched else roots[:1]
    try:
        staged = engine.stage(graph, machine)
        batch = run_staged_queries(
            engine, staged, machine.checkpoint(), query_roots,
            mode="batched" if batched else "serial",
            max_recoveries=MAX_RECOVERIES,
        )
    except SanitizerError as exc:
        trial.outcome = "violation"
        trial.detail = f"protocol violation: {exc}"
        return trial
    except ReproError as exc:
        trial.outcome = "typed-error"
        trial.detail = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - violations must be classified
        trial.outcome = "violation"
        trial.detail = f"untyped {type(exc).__name__}: {exc}"
        return trial
    injector = machine.fault_injector
    if injector is not None:
        trial.faults_injected = injector.faults_injected
        trial.retries = injector.total("io_retries")
        trial.recoveries = injector.total("crash_recoveries")
    if batch is not None:
        results = batch.queries
        for q, result in enumerate(results):
            report = checker.check(roots[q], result.levels, result.parents)
            if not report.ok:
                trial.outcome = "violation"
                trial.detail = f"query {q}: " + "; ".join(report.errors)
                return trial
        # A cancelled stay file leaves its partition on the longer input,
        # which the volume formula does not model.
        if not results[0].extras.get("stay_cancellations"):
            iterations = batch.shared_iterations if batched else results[0].iterations
            volumes = [it.volume for it in iterations]
            expected = checker.pass_volumes(engine, staged.partitioning, query_roots)
            if volumes != expected:
                trial.outcome = "violation"
                trial.detail = (
                    f"(scanned, updates, stay) per pass {volumes}, "
                    f"expected {expected}"
                )
                return trial
        recovered = "recovered" in results[0].extras
        trial.outcome = "recovered" if recovered else "ok"
    problems = _reconcile(machine)
    if problems:
        trial.outcome = "violation"
        trial.detail = "; ".join(
            ["trace/counter mismatch"] + problems + [trial.detail or ""]
        ).strip("; ")
    return trial


def _trial_count(prof: ChaosProfile, seed: int, trials: Optional[int]) -> int:
    """A sweep's trial count, checked with its seed before trial 0.

    Trial seeds are ``seed * 1_000_003 + index``, so a negative sweep seed
    gives negative plan seeds, which no fault plan accepts.
    """
    if seed < 0:
        raise ConfigError(f"chaos seed must be >= 0, got {seed}")
    count = trials if trials is not None else prof.trials
    if count < 1:
        raise ConfigError(f"chaos needs at least one trial, got {count}")
    return count


def run_chaos(
    profile: str = "smoke",
    seed: int = 0,
    trials: Optional[int] = None,
) -> ChaosReport:
    """Sweep seeded fault schedules across the engine/placement matrix.

    ``profile`` selects a registered :class:`ChaosProfile` (``smoke`` or
    ``full``); ``trials`` overrides its trial count.  The sweep is fully
    deterministic in ``(profile, seed, trials)``: the same inputs replay
    the same fault schedules and the same outcomes, bit for bit.
    """
    prof = PROFILES.get(profile)
    if prof is None:
        raise ConfigError(
            f"unknown chaos profile {profile!r}; options: {sorted(PROFILES)}"
        )
    count = _trial_count(prof, seed, trials)
    if prof.name == "serve":
        return run_serve_chaos(seed=seed, trials=count, prof=prof)
    graph = rmat_graph(
        scale=prof.scale, edge_factor=prof.edge_factor, seed=prof.graph_seed
    )
    # Hub root for single-session cells; the batched cells pack the hub
    # plus the next best-connected roots into one MS-BFS batch.
    order = np.argsort(-graph.out_degrees())
    roots = [int(v) for v in order[:BATCH_QUERIES]]
    checker = BFSAnswerChecker(graph)
    records: List[ChaosTrial] = []
    for index in range(count):
        engine_name, disks, mode = SCENARIOS[index % len(SCENARIOS)]
        trial_seed = seed * 1_000_003 + index
        records.append(
            _run_trial(
                index, engine_name, disks, mode, trial_seed, graph, roots,
                checker,
            )
        )
    return ChaosReport(profile=prof.name, seed=seed, trials=records)


# ----------------------------------------------------------------------
# the "serve" profile: seeded faults against a live GraphService
# ----------------------------------------------------------------------

def serve_fault_plan(profile: str, seed: int = 0) -> FaultPlan:
    """One named, seeded fault plan for a serving registry.

    These are the plans ``repro serve --fault-profile`` installs and the
    ``serve`` chaos profile sweeps.  The *shape* is fixed per name; the
    probabilities/budgets are drawn from ``seed`` so every trial replays
    its exact schedule.
    """
    if profile not in SERVE_FAULT_PROFILES:
        raise ConfigError(
            f"unknown serve fault profile {profile!r}; options: "
            f"{sorted(SERVE_FAULT_PROFILES)}"
        )
    plan = FaultPlan(seed=seed)  # its seed rule holds before the draws
    rng = rng_from_seed(seed)
    specs: List[FaultSpec] = [
        FaultSpec(
            kind="transient_error",
            probability=float(rng.uniform(0.005, 0.03)),
        ),
        FaultSpec(
            kind="latency",
            probability=float(rng.uniform(0.01, 0.04)),
            delay_seconds=float(rng.uniform(0.002, 0.01)),
        ),
    ]
    if profile == "crashy":
        specs.append(
            FaultSpec(
                kind="torn_write",
                role="stay",
                probability=float(rng.uniform(0.2, 0.5)),
                max_fires=int(rng.integers(1, 3)),
            )
        )
        specs.append(
            FaultSpec(
                kind="crash",
                role="vertices",
                probability=float(rng.uniform(0.1, 0.3)),
                max_fires=int(rng.integers(1, 3)),
            )
        )
    elif profile == "hostile":
        # No max_fires: the media stays broken, so flushes keep failing
        # and the breaker must walk healthy -> degraded -> quarantined.
        specs.append(
            FaultSpec(
                kind="persistent_error",
                probability=float(rng.uniform(0.05, 0.15)),
            )
        )
    return replace(plan, specs=tuple(specs))


def _serve_request(
    port: int,
    method: str,
    path: str,
    payload=None,
    request_id: Optional[str] = None,
    timeout: float = 120.0,
):
    """Minimal HTTP/JSON client for the chaos driver (stdlib only)."""
    import json
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    req = Request(
        f"http://127.0.0.1:{port}{path}",
        data=body, headers=headers, method=method,
    )
    try:
        with urlopen(req, timeout=timeout) as resp:
            status = resp.status
            resp_headers = dict(resp.headers)
            raw = resp.read().decode("utf-8")
    except HTTPError as exc:
        # 4xx/5xx still carry the typed JSON problem body we assert on.
        status = exc.code
        resp_headers = dict(exc.headers)
        raw = exc.read().decode("utf-8")
    content_type = resp_headers.get("Content-Type", "")
    data = json.loads(raw) if content_type.startswith("application/json") else raw
    return status, resp_headers, data


def _serve_registry_kwargs() -> dict:
    """How the serve profile stages graphs: tiny buffers, two disks,
    out-of-core always (faults fire on device I/O)."""
    return dict(
        engine="fastbfs",
        config=FastBFSConfig(
            edge_buffer_bytes=2 * KB,
            update_buffer_bytes=1 * KB,
            stay_buffer_bytes=1 * KB,
            num_partitions=4,
            allow_in_memory=False,
            rotate_streams=True,
        ),
        machine_factory=lambda: Machine(
            [DeviceSpec.hdd("hdd0"), DeviceSpec.hdd("hdd1")],
            memory=2 * MB,
            cores=4,
        ),
    )


def _serve_service(profile: str, trial_seed: int, graph: Graph, clock):
    """Boot one fault-injected GraphService over ``graph`` (as ``"g"``)."""
    from repro.serve import GraphService

    service = GraphService(
        port=0,
        fault_plan=replace(
            serve_fault_plan(profile, trial_seed), max_attempts=IO_MAX_ATTEMPTS
        ),
        clock=clock,
        **_serve_registry_kwargs(),
    ).start()
    service.register("g", graph)
    return service


def _serve_oracle(graph: Graph, roots: List[int]) -> Callable[[dict], bool]:
    """Whether a 200 body is wrong, for every query the serve profile sends.

    A BFS body's levels and parents go through the :class:`BFSAnswerChecker`.
    SSSP and PageRank bodies must equal their query's fault-free answer,
    keyed ``(algorithm, root)`` as a body names them: SSSP's is the
    in-memory reference; PageRank is float32, equal to its reference only
    within accumulation-order noise, so its answer is a clean direct run
    on an identically staged artifact.
    """
    from repro.algorithms.pagerank import PageRankAlgorithm
    from repro.algorithms.sssp import hash_weights, reference_sssp
    from repro.serve.registry import ArtifactRegistry

    answers: Dict[tuple, list] = {}
    weights = hash_weights(SERVE_SSSP_MAX_WEIGHT)
    for root in roots:
        answers["sssp", root] = reference_sssp(graph, root, weights).tolist()
    entry = ArtifactRegistry(**_serve_registry_kwargs()).register("g", graph)
    (clean,) = run_staged_queries(
        entry.engine,
        entry.staged,
        entry.checkpoint,
        [0],
        algorithm=PageRankAlgorithm(graph.out_degrees(), SERVE_PAGERANK_ROUNDS),
    ).queries
    answers["pagerank", None] = clean.output["rank"].tolist()
    checker = BFSAnswerChecker(graph)

    def diverges(body: dict) -> bool:
        algorithm, result = body["algorithm"], body["result"]
        if algorithm == "bfs":
            report = checker.check(body["root"], result["levels"], result["parents"])
            return not report.ok
        return result[_ANSWER_FIELDS[algorithm]] != answers[algorithm, body["root"]]

    return diverges


def _serve_transitions(port: int) -> List[Tuple[str, str, str]]:
    _, _, body = _serve_request(port, "GET", "/debug/health")
    return [
        (t["from"], t["to"], t["reason"])
        for t in body["graphs"]["g"]["transitions"]
    ]


def _drive_sequence(
    service, clock, roots
) -> Tuple[List[int], List[dict], List[str], str]:
    """Phase A: a fixed single-threaded request sequence, clock-stepped.

    Advancing the manual host clock between requests lets quarantine
    cooldowns elapse mid-sequence, so hostile trials walk the full
    healthy -> degraded -> quarantined -> probing cycle deterministically.
    Returns the statuses, the 200 bodies and the typed error kinds.
    """
    statuses: List[int] = []
    ok_bodies: List[dict] = []
    errors: List[str] = []
    for i in range(SERVE_SEQUENCE):
        algorithm = SERVE_STEP_ALGORITHMS[i % len(SERVE_STEP_ALGORITHMS)]
        payload = {
            "bfs": {"root": roots[i % len(roots)]},
            "sssp": {
                "root": roots[i % len(roots)],
                "max_weight": SERVE_SSSP_MAX_WEIGHT,
            },
            "pagerank": {"rounds": SERVE_PAGERANK_ROUNDS},
        }[algorithm]
        status, _, body = _serve_request(
            service.port, "POST", f"/graphs/g/{algorithm}",
            payload=payload,
            request_id=f"seq-{i:02d}",
        )
        statuses.append(status)
        if status == 200:
            ok_bodies.append(body)
        elif status in (429, 503, 504):
            kind = body.get("error", {}).get("type") if isinstance(body, dict) else None
            if kind not in SERVE_TYPED_ERRORS:
                return statuses, ok_bodies, errors, (
                    f"step {i}: untyped {status} error body {body!r}"
                )
            errors.append(kind)
        else:
            return statuses, ok_bodies, errors, (
                f"step {i}: unexpected status {status}"
            )
        clock.advance(0.4)
    return statuses, ok_bodies, errors, ""


def _held_sends(
    service,
    requests: List[Tuple[str, dict]],
    before_release: Optional[Callable[[], None]] = None,
) -> Dict[str, Tuple[int, Dict, object]]:
    """POST ``(request id, payload)`` BFS requests behind a held queue.

    Holds the graph's admission controller and starts one request thread
    at a time, waiting until its ticket is queued (the depth grew) or it
    was already answered (a quarantined graph rejects at ``offer``)
    before starting the next; then runs ``before_release`` and releases.
    Queue order is send order, so the flushes that follow are fixed by
    the prefix rule.  Returns every outcome by request id; a second
    response to one id is kept under ``<id>-dup``.
    """
    import threading

    controller = service.registry.get("g").admission
    results: Dict[str, Tuple[int, Dict, object]] = {}
    lock = threading.Lock()

    def send(rid: str, payload: dict) -> None:
        out = _serve_request(
            service.port, "POST", "/graphs/g/bfs",
            payload=payload, request_id=rid,
        )
        with lock:
            results[rid + "-dup" if rid in results else rid] = out

    threads = []
    controller.hold()
    try:
        for rid, payload in requests:
            depth = controller.depth
            thread = threading.Thread(target=send, args=(rid, payload))
            thread.start()
            threads.append(thread)
            while controller.depth == depth and thread.is_alive():
                thread.join(0.001)
        if before_release is not None:
            before_release()
    finally:
        controller.release()
    for thread in threads:
        thread.join()
    return results


def _drive_burst(service, roots, diverges) -> Tuple[List[dict], List[str], str]:
    """Phase B: a held burst; no response lost, duplicated or untyped.

    Returns the 200 bodies and the typed error kinds.
    """
    results = _held_sends(service, [
        (f"burst-{i:02d}", {"root": roots[i % len(roots)]})
        for i in range(SERVE_BURST)
    ])
    if len(results) != SERVE_BURST:
        return [], [], (
            f"burst lost/duplicated responses: {len(results)} outcomes "
            f"for {SERVE_BURST} requests ({sorted(results)})"
        )
    ok_bodies: List[dict] = []
    errors: List[str] = []
    for i in range(SERVE_BURST):
        rid = f"burst-{i:02d}"
        status, _, body = results[rid]
        if not isinstance(body, dict) or body.get("request_id") != rid:
            return [], [], f"{rid}: response id mismatch ({body!r})"
        if status == 200:
            if diverges(body):
                return [], [], f"{rid}: answer diverges from reference"
            ok_bodies.append(body)
        elif status in (429, 503, 504):
            kind = body.get("error", {}).get("type")
            if kind not in SERVE_TYPED_ERRORS:
                return [], [], f"{rid}: untyped {status} error {body!r}"
            errors.append(kind)
        else:
            return [], [], f"{rid}: unexpected status {status}"
    return ok_bodies, errors, ""


def _drive_deadlines(service, clock, roots) -> Tuple[int, str]:
    """Phase C: queue requests behind a held controller, expire them all."""
    entry = service.registry.get("g")
    if not entry.health.ready:
        return 0, ""  # quarantined trials cannot queue; sweep is elsewhere
    count = 4
    outcomes = _held_sends(
        service,
        [
            (f"dl-{i:02d}", {"root": roots[0], "deadline_ms": 50.0})
            for i in range(count)
        ],
        # 200ms > every 50ms deadline
        before_release=lambda: clock.advance(0.2),
    )
    controller = entry.admission
    if controller.depth != 0:
        return 0, f"deadline sweep left queue depth {controller.depth}"
    for rid in sorted(outcomes):
        status, _, body = outcomes[rid]
        if status != 504 or body.get("error", {}).get("type") != "deadline_exceeded":
            return 0, f"{rid}: expected typed 504, got {status} {body!r}"
    return count, ""


def _reconcile_serve(
    service, ok_bodies: List[dict], flush_failed: int
) -> List[str]:
    """The exact ``/metrics`` cross-check against live ground truth.

    ``flush_failed`` is the number of ``503 flush_failed`` responses the
    driver saw.
    """
    from repro.obs.exporters import parse_prometheus
    from repro.storage.machine import IOReport, merge_reports

    problems: List[str] = []
    entry = service.registry.get("g")
    _, _, text = _serve_request(service.port, "GET", "/metrics")
    registry = parse_prometheus(text)
    # (1) device bytes/seeks reconcile with the deduped per-flush reports
    # plus the (clean) staging report — bit for bit.
    unique: Dict[str, dict] = {}
    for body in ok_bodies:
        unique[body["report_id"]] = body["report"]
    merged = merge_reports(
        [entry.staged.staging_report]
        + [IOReport.from_dict(d) for d in unique.values()]
    )
    problems.extend(registry.reconcile(merged))
    # (2) failure counters match the controller's ledger and what the
    # driver saw on the wire.
    for name, want, source in (
        ("deadline_exceeded_total",
         entry.admission.counters()["deadline_expired"], "controller"),
        ("serve_flush_failed_total", flush_failed, "responses"),
    ):
        got = registry.total(name)
        if got != float(want):
            problems.append(f"{name}: metrics {got:g} != {source} {want}")
    # (3) the breaker gauge and transition counter match the live breaker.
    got = registry.total("breaker_state", graph="g")
    if got != float(entry.health.state_code()):
        problems.append(
            f"breaker_state: metrics {got:g} != live {entry.health.state_code()}"
        )
    got = registry.total("breaker_transitions_total", graph="g")
    if got != float(len(entry.health.transitions)):
        problems.append(
            f"breaker_transitions_total: metrics {got:g} != "
            f"{len(entry.health.transitions)} logged transitions"
        )
    # (4) fault_* counters match the injector's lifetime counts exactly
    # (staging ran clean, so every count is serve-time and was sampled
    # into exactly one flush delta).
    injector = entry.machine.fault_injector
    if injector is None:
        problems.append("serving machine has no fault injector")
        return problems
    for (cname, device), count in sorted(injector.counts_snapshot().items()):
        if device == "-":
            got = registry.total(f"{cname}_total", graph="g")
        else:
            got = registry.total(f"{cname}_total", graph="g", device=device)
        if got != float(count):
            problems.append(
                f"{cname}_total[{device}]: metrics {got:g} != injector {count}"
            )
    return problems


def _run_serve_trial(
    index: int,
    profile: str,
    trial_seed: int,
    graph: Graph,
    roots: List[int],
    diverges: Callable[[dict], bool],
) -> ChaosTrial:
    from repro.obs.hostprof import ManualHostClock

    trial = ChaosTrial(
        index=index, engine="fastbfs", disks=2, seed=trial_seed,
        outcome="violation", mode=f"serve/{profile}",
    )
    clock = ManualHostClock()
    service = _serve_service(profile, trial_seed, graph, clock)
    try:
        statuses, seq_bodies, seq_errors, problem = _drive_sequence(
            service, clock, roots
        )
        transitions = _serve_transitions(service.port)
        if problem:
            trial.detail = problem
            return trial
        for body in seq_bodies:
            if diverges(body):
                trial.detail = f"sequence response {body['request_id']} diverges"
                return trial
        burst_bodies, burst_errors, problem = _drive_burst(
            service, roots, diverges
        )
        if problem:
            trial.detail = problem
            return trial
        expired, problem = _drive_deadlines(service, clock, roots)
        if problem:
            trial.detail = problem
            return trial
        errors = seq_errors + burst_errors
        problems = _reconcile_serve(
            service, seq_bodies + burst_bodies, errors.count("flush_failed")
        )
        if problems:
            trial.detail = "metrics reconcile: " + "; ".join(problems)
            return trial
        entry = service.registry.get("g")
        injector = entry.machine.fault_injector
        trial.faults_injected = injector.faults_injected
        trial.retries = injector.total("io_retries")
        trial.recoveries = injector.total("crash_recoveries")
    finally:
        service.shutdown()
    # Determinism: a fresh service + clock under the same seed must replay
    # the identical status sequence AND health transition log.
    clock2 = ManualHostClock()
    replay = _serve_service(profile, trial_seed, graph, clock2)
    try:
        statuses2, _, _, problem = _drive_sequence(replay, clock2, roots)
        transitions2 = _serve_transitions(replay.port)
    finally:
        replay.shutdown()
    if problem:
        trial.detail = f"replay: {problem}"
        return trial
    if statuses2 != statuses:
        trial.detail = (
            f"status sequence not deterministic: {statuses} != {statuses2}"
        )
        return trial
    if transitions2 != transitions:
        trial.detail = (
            f"health transitions not deterministic: "
            f"{transitions} != {transitions2}"
        )
        return trial
    typed = len(errors) + expired
    if trial.recoveries:
        trial.outcome = "recovered"
    elif typed:
        trial.outcome = "typed-error"
        trial.detail = f"{typed} typed failure(s), all contracts held"
    else:
        trial.outcome = "ok"
    return trial


def run_serve_chaos(
    seed: int = 0,
    trials: Optional[int] = None,
    prof: Optional[ChaosProfile] = None,
) -> ChaosReport:
    """Sweep seeded fault plans against live GraphService instances.

    Cycles the :data:`SERVE_FAULT_PROFILES` shapes across ``trials``
    seeded schedules.  Fully deterministic in ``(seed, trials)`` — each
    trial *proves* it by replaying its request sequence on a fresh
    service and requiring identical statuses and health transitions.
    """
    prof = prof if prof is not None else PROFILES["serve"]
    count = _trial_count(prof, seed, trials)
    graph = rmat_graph(
        scale=prof.scale, edge_factor=prof.edge_factor, seed=prof.graph_seed
    )
    order = np.argsort(-graph.out_degrees())
    roots = [int(v) for v in order[:BATCH_QUERIES]]
    diverges = _serve_oracle(graph, roots)
    records: List[ChaosTrial] = []
    for index in range(count):
        profile = SERVE_FAULT_PROFILES[index % len(SERVE_FAULT_PROFILES)]
        trial_seed = seed * 1_000_003 + index
        records.append(
            _run_serve_trial(index, profile, trial_seed, graph, roots, diverges)
        )
    return ChaosReport(profile="serve", seed=seed, trials=records)


__all__ = [
    "BATCH_QUERIES",
    "ChaosProfile",
    "ChaosReport",
    "ChaosTrial",
    "PROFILES",
    "SCENARIOS",
    "SERVE_BURST",
    "SERVE_FAULT_PROFILES",
    "SERVE_SEQUENCE",
    "SERVE_TYPED_ERRORS",
    "run_chaos",
    "run_serve_chaos",
    "serve_fault_plan",
]
