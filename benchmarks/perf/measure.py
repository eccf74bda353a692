"""Runs one workload once and turns what it recorded into named metrics.

:func:`end_to_end` is the untraced pass every end-to-end number comes
from.  :func:`per_layer` is the traced pass: a short unprobed baseline (to
price the probe), a pass with the engine's own host profile on, then the
probed operations whose spans give each layer's self time.  Metric names,
units and bounds are declared in ``BENCHMARK.json``; README.md defines them.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import _env
import probe as probe_mod
import stats
from hostspeed import REFERENCE_S, speed_probe
from workloads import WORKLOADS, Phase

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Shares of ``--seconds`` the traced pass gives its three phases.
BASELINE_SHARE, PROFILE_SHARE, TRACED_SHARE = 0.25, 0.15, 0.60

#: ``sim.*`` metrics cover this many leading operations of the traced
#: phase, a fixed count so they repeat exactly however fast the host is.
#: (Not so on serve_light: its flush widths depend on thread timing.)
SIM_OPS = {"traverse_trim": 6, "traverse_scan": 6, "flush_wide": 1,
           "serve_light": 16, "serve_ooc": 8}

#: Host stages ``profile_trace(...).host()`` reports; others fold into "other".
HOST_STAGES = ("scatter", "shuffle", "gather", "other", "overhead")


@dataclass
class Result:
    values: Dict[str, float]
    attempted: int       # queries asked for
    failed: int          # of those: raised, refused, or answered wrongly
    samples: int         # timed operations behind latency_p50_ms

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted >= 1 and self.samples >= 1


def _tally(driver, phases: List[Phase]) -> tuple:
    """``(attempted, failed)`` queries over ``phases``, answers checked."""
    attempted = sum(phase.attempted for phase in phases) * driver.width
    failed = sum(phase.failed for phase in phases) * driver.width
    return attempted, failed + driver.check.wrong_answers()


def end_to_end(name: str, seed: int, seconds: float, smoke: bool = False) -> Result:
    setups: List[float] = []
    driver = None
    try:
        for _ in range(1 if smoke else SETUP_REPEATS):
            if driver is not None:
                driver.close()
            driver = WORKLOADS[name](seed=seed, smoke=smoke, trace=False)
            probe_s, start = speed_probe(), time.perf_counter()
            driver.setup()
            elapsed = time.perf_counter() - start
            # Set-up is CPU work almost throughout: scale all of it.
            setups.append(elapsed * REFERENCE_S * 2.0 / (probe_s + speed_probe()))
        phase = driver.run_phase(seconds, "op")
    finally:
        peak_kib = driver.close() if driver is not None else 0.0
    attempted, failed = _tally(driver, [phase])
    if not phase.latencies or not any(b.queries for b in phase.blocks):
        return Result({}, attempted, max(failed, 1), 0)
    # Host-speed correction (hostspeed.py): each operation gives back its
    # share of the CPU time its block spent only because the host was slow.
    ops_in = Counter(phase.op_blocks)
    latencies = [
        latency - phase.blocks[b].excess_cpu_s / ops_in[b]
        for latency, b in zip(phase.latencies, phase.op_blocks)
    ]
    blocks = [b.corrected(driver.connections) for b in phase.blocks if b.queries]
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "throughput_qps": statistics.median(b.queries / b.wall_s for b in blocks),
        "cpu_ms_per_query": statistics.median(b.cpu_s / b.queries for b in blocks) * 1e3,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return Result(values, attempted, failed, len(phase.latencies))


def per_layer(name: str, seed: int, seconds: float, smoke: bool = False) -> Result:
    driver = WORKLOADS[name](seed=seed, smoke=smoke, trace=True)
    try:
        driver.setup()
        driver.set_tracing(False)
        base = driver.run_phase(seconds * BASELINE_SHARE, "base")
        profiled = (
            driver.run_phase(seconds * PROFILE_SHARE, "prof", keep_trace=True)
            if driver.host_profiled else Phase()
        )
        driver.set_tracing(True)
        traced = driver.run_phase(seconds * TRACED_SHARE, "op")
        driver.set_tracing(False)
        spans = driver.take_spans()
        missing = driver.probes_missing()
        for path in missing:
            print(f"{name}: probe target {path} no longer resolves", file=sys.stderr)
        retries = driver.flush_retries()
        floor_ms = (
            driver.client_floor_ms(int(statistics.mean(base.response_bytes)))
            if base.response_bytes else 0.0
        )
    finally:
        driver.close()
    attempted, failed = _tally(driver, [base, profiled, traced])
    if not (base.latencies and traced.latencies):
        return Result({}, attempted, max(failed, 1), 0)

    probe_mod.check_operation_sums(spans)
    _env.OUT_DIR.mkdir(exist_ok=True)
    probe_mod.write_spans(_env.OUT_DIR / f"trace_{name}.jsonl", spans)

    traced_ops = set(traced.op_ids)
    op_spans = [s for s in spans if s.op in traced_ops and s.layer != "client"]
    setup_spans = [s for s in spans if s.op in (None, "setup")]
    totals = probe_mod.layer_totals(op_spans)
    setup_totals = probe_mod.layer_totals(setup_spans)
    nothing = probe_mod.LayerTotal(0, 0, 0, 0, [])
    queries = traced.queries

    def self_ms(key: str) -> float:
        return totals.get(key, nothing).self_ns / queries / 1e6

    def total_ms(key: str) -> float:
        return totals.get(key, nothing).total_ns / queries / 1e6

    def calls(key: str) -> float:
        return totals.get(key, nothing).calls / queries


    values: Dict[str, float] = {}

    # Layers whose metrics are self time and calls per query.
    for key in (
        "graph.partition.split", "algorithms.streaming.scatter",
        "algorithms.streaming.gather", "core.staystream.append",
        "storage.streams.read", "storage.streams.write", "storage.device.submit",
        "sim.timeline.schedule", "engines.costs.charge", "storage.vfs.op",
        "obs.tracer.span",
    ):
        values[f"{key}_ms"] = self_ms(key)
        values[f"{key}_calls"] = calls(key)
    for key in (
        "core.staystream.resolve", "storage.machine.restore",
        "storage.machine.checkpoint", "storage.machine.report",
        "serve.admission.offer", "serve.admission.submit", "obs.counters.update",
        "serve.app.handle_query", "serve.app.do_post",
    ):
        values[f"{key}_ms"] = self_ms(key)

    # Set-up work: total for the one set-up, not per query.
    values["graph.generate_ms"] = setup_totals.get("graph.generate", nothing).self_ns / 1e6
    values["serve.registry.register_ms"] = (
        setup_totals.get("serve.registry.register", nothing).total_ns / 1e6
    )
    # Staging runs once per operation on traverse_*, once per set-up elsewhere.
    stagings = [t.get("engines.base.stage", nothing) for t in (totals, setup_totals)]
    stage_calls = sum(row.calls for row in stagings)
    values["engines.base.stage_ms"] = (
        sum(row.total_ns for row in stagings) / stage_calls / 1e6 if stage_calls else 0.0
    )

    # The session frames: inclusive time under them, and their own.
    values["engines.session.run_ms"] = total_ms("engines.session.run")
    values["engines.session.run_staged_ms"] = total_ms("engines.session.run_staged")
    values["engines.session.self_ms"] = (
        self_ms("engines.session.run") + self_ms("engines.session.run_staged")
    )

    # The engine's own host-clock stage table (tracer spans, probe off).
    stage_seconds = dict.fromkeys(HOST_STAGES, 0.0)
    for profile in profiled.host_profiles:
        for stage, row in profile.get("stages", {}).items():
            stage_seconds[stage if stage in stage_seconds else "other"] += row["host_seconds"]
    for stage, secs in stage_seconds.items():
        values[f"engines.stage.{stage}_ms"] = (
            secs / profiled.queries * 1e3 if profiled.queries else 0.0
        )

    scatter = totals.get("algorithms.streaming.scatter", nothing)
    edges = sum(scatter.notes)
    values["algorithms.streaming.edges_scanned_per_query"] = edges / queries
    values["algorithms.streaming.edges_per_host_s"] = (
        edges / (scatter.self_ns / 1e9) if scatter.self_ns else 0.0
    )

    outcomes = totals.get("core.staystream.resolve", nothing).notes
    swaps, cancels = outcomes.count("swap"), outcomes.count("cancel")
    values["core.staystream.cancelled"] = cancels / queries
    values["core.staystream.trim_effectiveness"] = (
        swaps / (swaps + cancels) if swaps + cancels else 0.0
    )
    values["storage.device.retries"] = (
        totals.get("storage.device.submit", nothing).failed / queries
    )

    flushes = totals.get("serve.admission.flush", nothing)
    values["serve.admission.flush_self_ms"] = (
        flushes.self_ns / flushes.calls / 1e6 if flushes.calls else 0.0
    )
    values["serve.admission.queue_wait_ms"] = (
        statistics.mean(traced.queue_waits) * 1e3 if traced.queue_waits else 0.0
    )
    values["serve.admission.flush_width_mean"] = (
        statistics.mean(traced.widths) if traced.widths else 0.0
    )
    values["serve.admission.retries"] = float(retries)

    # Client latency minus the handler's span, per request, joined by op id.
    handled = {s.op: s.duration for s in op_spans
               if s.layer == "serve.app" and s.name == "do_post"}
    wire = [latency * 1e3 - handled[op] / 1e6
            for op, latency in zip(traced.op_ids, traced.latencies) if op in handled]
    values["serve.app.wire_ms"] = statistics.median(wire) if wire else 0.0
    values["serve.app.response_bytes"] = (
        statistics.mean(traced.response_bytes) if traced.response_bytes else 0.0
    )

    base_ms = [latency * 1e3 for latency in base.latencies]
    tail_p, tail_ms = stats.tail(base_ms)
    values["client.latency_tail_ms"] = tail_ms
    values["client.tail_percentile"] = tail_p
    values["client.latency_max_ms"] = max(base_ms)
    values["client.samples"] = float(len(base_ms))
    values["client.json_decode_ms"] = (
        base.decode_seconds / base.queries * 1e3 if base.response_bytes else 0.0
    )
    values["client.floor_ms"] = floor_ms
    values["client.fail_share"] = failed / attempted if attempted else 1.0

    values["bench.op_self_ms"] = self_ms(f"{probe_mod.OP_LAYER}.{probe_mod.OP_NAME}")

    sim_seconds, sim_bytes, _, sim_queries = traced.simulated(SIM_OPS[name])
    values["sim.s_per_query"] = sim_seconds / sim_queries
    values["sim.bytes_per_query"] = sim_bytes / sim_queries

    values["trace.overhead_share"] = (
        statistics.median(traced.latencies) / statistics.median(base.latencies) - 1.0
    )
    values["trace.probes_missing"] = float(len(missing))
    values["trace.spans_per_query"] = len(op_spans) / queries
    return Result(values, attempted, failed, len(traced.latencies))


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Result:
    return (per_layer if trace else end_to_end)(name, seed, seconds, smoke)
