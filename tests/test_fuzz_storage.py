"""Hypothesis fuzzing of the storage stack.

Random operation sequences against streams and devices, checking the
invariants the engines rely on: every record written comes back in order,
timelines never overlap, byte accounting is exact, cancellation only drops
queued writes, the clock is monotone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.types import EDGE_DTYPE, make_edges
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.streams import AsyncStreamWriter, StreamReader, StreamWriter
from repro.storage.vfs import VFS
from repro.utils.units import MB

RECORD = EDGE_DTYPE.itemsize


def _make_setup(seek=0.001, bw=50 * MB):
    clock = SimClock()
    device = Device(
        DeviceSpec("d", seek_time=seek, read_bandwidth=bw, write_bandwidth=bw)
    )
    return clock, device, VFS()


def edges_of(values):
    arr = np.asarray(values, dtype=np.uint32)
    return make_edges(arr, arr)


@given(
    chunks=st.lists(st.integers(min_value=0, max_value=300), max_size=25),
    buffer_records=st.integers(min_value=1, max_value=64),
    read_buffer_records=st.integers(min_value=1, max_value=64),
    prefetch=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_write_read_roundtrip(chunks, buffer_records, read_buffer_records,
                              prefetch):
    """Whatever a writer appends, a reader streams back identically."""
    clock, device, vfs = _make_setup()
    f = vfs.create("f", device)
    writer = StreamWriter(clock, f, buffer_bytes=buffer_records * RECORD)
    expected = []
    counter = 0
    for n in chunks:
        chunk = edges_of(np.arange(counter, counter + n) % 2**32)
        counter += n
        writer.append(chunk)
        expected.append(chunk)
    writer.close()
    reader = StreamReader(
        clock, f, buffer_bytes=read_buffer_records * RECORD, prefetch=prefetch
    )
    got = list(reader)
    flat_expected = (
        np.concatenate(expected) if expected else np.empty(0, dtype=EDGE_DTYPE)
    )
    flat_got = np.concatenate(got) if got else np.empty(0, dtype=EDGE_DTYPE)
    assert np.array_equal(flat_got, flat_expected)
    # Byte accounting: device moved exactly what the file holds, both ways.
    assert device.bytes_written == f.nbytes
    assert device.bytes_read == f.nbytes


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(min_value=1, max_value=200)),
            st.tuples(st.just("compute"), st.floats(min_value=0, max_value=0.01)),
        ),
        min_size=1,
        max_size=30,
    ),
    num_buffers=st.integers(min_value=1, max_value=6),
    cancel_at_end=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_async_writer_invariants(ops, num_buffers, cancel_at_end):
    clock, device, vfs = _make_setup()
    f = vfs.create("stay", device)
    writer = AsyncStreamWriter(
        clock, f, buffer_bytes=32 * RECORD, num_buffers=num_buffers
    )
    appended = 0
    last_now = clock.now
    for op, value in ops:
        if op == "append":
            writer.append(edges_of(np.arange(value)))
            appended += value
        else:
            clock.charge_compute(value)
        assert clock.now >= last_now  # monotone under all operations
        last_now = clock.now
        assert writer.buffers_in_flight <= num_buffers
    if cancel_at_end:
        writer.cancel()
        assert writer.cancelled
        # Role bytes never negative after cancellation refunds.
        for v in device.timeline.bytes_by_role().values():
            assert v >= 0
    else:
        writer.close(drain=True)
        assert f.num_records == appended
        assert writer.is_ready()
    # Timeline packing: live requests are FIFO and non-overlapping.
    pending = device.timeline.pending_requests()
    for a, b in zip(pending, pending[1:]):
        assert b.start >= a.end - 1e-12


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                   max_size=40),
    kinds=st.lists(st.sampled_from(["read", "write"]), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_device_service_times_positive_and_additive(sizes, kinds):
    clock, device, vfs = _make_setup(seek=0.002)
    t = 0.0
    total_service = 0.0
    submitted = list(zip(sizes, kinds))
    for i, (n, kind) in enumerate(submitted):
        req = device.submit(t, kind, n, file_id=i % 3, offset=0, group="g")
        assert req.end > req.start >= t
        total_service += req.end - req.start
        t = clock.now  # submissions at t=0 throughout is fine too
    assert device.busy_time_until(10**9) == pytest.approx(total_service)
    assert device.bytes_read + device.bytes_written == sum(
        n for n, _ in submitted
    )


# ----------------------------------------------------------------------
# fault-injection determinism (same seed + same plan => same everything)
# ----------------------------------------------------------------------

_FAULT_FUZZ_SEEDS = range(20)


def _fault_fuzz_graph():
    from repro.graph.generators import rmat_graph

    return rmat_graph(scale=8, edge_factor=8, seed=3)


def _faulted_run(seed):
    """One FastBFS run under a seeded fault plan; returns every observable."""
    from repro.core.config import FastBFSConfig
    from repro.core.engine import FastBFSEngine
    from repro.obs.counters import CounterRegistry
    from repro.obs.exporters import spans_to_jsonl
    from repro.obs.tracer import Tracer
    from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy
    from repro.storage.machine import Machine
    from repro.utils.units import KB

    plan = FaultPlan(
        specs=(
            FaultSpec(kind="transient_error", probability=0.05),
            FaultSpec(kind="latency", probability=0.05, delay_seconds=0.004),
            FaultSpec(kind="torn_write", role="stay", probability=0.4,
                      max_fires=2),
        ),
        seed=seed,
    )
    machine = Machine(
        [DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4, fault_plan=plan
    )
    machine.attach_tracer(Tracer())
    engine = FastBFSEngine(
        FastBFSConfig(
            edge_buffer_bytes=2 * KB,
            update_buffer_bytes=1 * KB,
            stay_buffer_bytes=1 * KB,
            num_partitions=4,
            allow_in_memory=False,
            retry=RetryPolicy(max_attempts=4),
        )
    )
    result = engine.run(_fault_fuzz_graph(), machine, root=0)
    report = machine.report()
    counters = CounterRegistry.from_machine(machine)
    return result.levels, report, spans_to_jsonl(machine.tracer), counters


@pytest.mark.parametrize("seed", _FAULT_FUZZ_SEEDS)
def test_fault_plan_replays_bit_identically(seed):
    """Same seed + same FaultPlan => byte-identical IOReport, identical
    span trace (retries included), identical fault/retry counters."""
    levels_a, report_a, trace_a, counters_a = _faulted_run(seed)
    levels_b, report_b, trace_b, counters_b = _faulted_run(seed)
    assert np.array_equal(levels_a, levels_b)
    assert report_a == report_b
    assert trace_a == trace_b
    assert counters_a == counters_b


def test_fault_seeds_vary_the_schedule():
    """Different seeds actually draw different fault schedules — the fuzz
    above is not vacuously comparing fault-free runs."""
    injected = set()
    retried = 0
    for seed in _FAULT_FUZZ_SEEDS:
        _, _, trace, counters = _faulted_run(seed)
        injected.add(trace)
        retried += counters.total("io_retries_total")
    assert len(injected) == len(list(_FAULT_FUZZ_SEEDS))  # all distinct
    assert retried > 0  # the retry loop really ran across the sweep
