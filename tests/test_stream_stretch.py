"""A stretch of modeled buffers replayed in one call leaves what the
per-buffer path leaves, float for float.

``StreamReader.replay`` computes a stretch whose every read is waited on
in closed form: the clock, the device and its timeline each apply it in
one call (``SimClock.run_stretch``, ``Device.submit_reads``,
``Timeline.schedule_packed``).  The reference is the per-buffer path,
``next(reader)`` and then each positive charge, run here on a twin
machine.  The property draws disk-bound, compute-bound and mixed
stretches, behind a foreign write queued on the same device.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.graph.types import EDGE_DTYPE, make_edges
from repro.sim.clock import SimClock
from repro.storage import streams
from repro.storage.device import Device, DeviceSpec
from repro.storage.streams import StreamReader
from repro.storage.vfs import VFS
from repro.utils.units import MB

RECORD = EDGE_DTYPE.itemsize
CATEGORIES = ("scatter", "trim", "shuffle")


def _twin(spec, num_records, buffer_records, prefetch, lead, foreign_bytes, pause):
    """A reader ``lead`` buffers into a file, with a write of
    ``foreign_bytes`` to another file queued ahead after ``pause`` seconds
    of compute; built the same way each call, so two calls are twins."""
    clock, device, vfs = SimClock(), Device(spec), VFS()
    edges = vfs.create("edges", device)
    ids = np.arange(num_records, dtype=np.uint32)
    edges.append_records(make_edges(ids, ids))
    edges.seal()
    reader = StreamReader(
        clock, edges, buffer_records * RECORD, prefetch=prefetch, group="edges:p0"
    )
    for _ in range(lead):
        next(reader)
    clock.charge_compute(pause, "scatter")
    if foreign_bytes:
        other = vfs.create("updates", device)
        device.submit(clock.now, "write", foreign_bytes, other.file_id, 0, "updates:p1")
    return clock, device, reader


def _state(clock, device, reader):
    """Everything the stretch may change, with each live request and each
    request the reader holds as its fields."""
    timeline = device.snapshot()["timeline"]
    return {
        "clock": clock.snapshot(),
        "timeline": {k: v for k, v in timeline.items() if k != "queue"},
        "live": [req._fields() for req in timeline["queue"]],
        # File ids count up across machines: the head as (on the reader's
        # file, offset).
        "head": (device._head[0] == reader.file.file_id, device._head[1]),
        "seeks": device.seek_count,
        "next_submit": reader._next_submit,
        "buffers_read": reader.buffers_read,
        "pending": [(req._fields(), start, count) for req, start, count in reader._pending],
    }


def _per_buffer(clock, reader, categories, charges):
    """The reference: one reader step and its charges per buffer.  Returns
    the records read and how many of the steps waited on their read."""
    records = blocked = 0
    for row in charges.T.tolist():
        iowait = clock.iowait_time
        records += len(next(reader))
        blocked += clock.iowait_time > iowait
        for category, seconds in zip(categories, row):
            if seconds > 0.0:
                clock.charge_compute(seconds, category)
    return records, blocked


@st.composite
def stretches(draw):
    buffer_records = draw(st.integers(1, 8))
    length = draw(st.integers(1, 40))
    lead = draw(st.integers(0, 3))
    spare = draw(st.integers(0, 4))
    short = draw(st.integers(0, buffer_records - 1))
    # The last buffer may be short; the stretch never reads past the end.
    num_records = (lead + length + spare) * buffer_records - short
    spec = DeviceSpec(
        "d",
        seek_time=draw(st.sampled_from([0.0, 1e-5, 8.5e-3])),
        read_bandwidth=draw(st.floats(0.05 * MB, 200 * MB)),
        write_bandwidth=draw(st.floats(0.05 * MB, 200 * MB)),
    )
    kinds = draw(st.integers(1, 3))
    # Per-buffer charges around a read's service time, each masked to 0.0
    # on its own: some stretches wait on every read, some on none.
    scale = draw(st.sampled_from([1e-8, 1e-6, 1e-4, 1e-2]))
    values = draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=length, max_size=length),
        min_size=kinds, max_size=kinds,
    ))
    masks = draw(st.lists(
        st.lists(st.booleans(), min_size=length, max_size=length),
        min_size=kinds, max_size=kinds,
    ))
    charges = np.where(masks, np.asarray(values) * scale, 0.0).reshape(kinds, length)
    machine = dict(
        spec=spec,
        num_records=num_records,
        buffer_records=buffer_records,
        prefetch=draw(st.integers(1, 4)),
        lead=lead,
        foreign_bytes=draw(st.sampled_from([0, 64, 4096, 1 << 20])),
        pause=draw(st.sampled_from([0.0, 1e-6, 1e-3])),
    )
    return machine, CATEGORIES[:kinds], charges


@given(stretches())
@settings(deadline=None)
def test_stretch_leaves_the_per_buffer_state(drawn):
    machine, categories, charges = drawn
    clock, device, reader = _twin(**machine)
    closed = []
    run_stretch = SimClock.run_stretch

    def counted(self, waits, categories, charges):
        closed.append(run_stretch(self, waits, categories, charges))
        return closed[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(streams, "MIN_STRETCH_BUFFERS", 1)
        patch.setattr(SimClock, "run_stretch", counted)
        records = reader.replay(categories, charges)
    event("closed form" if any(closed) else "per buffer")

    twin_clock, twin_device, twin_reader = _twin(**machine)
    twin_records, blocked = _per_buffer(twin_clock, twin_reader, categories, charges)
    length = charges.shape[1]
    event("disk-bound" if blocked == length else "compute-bound" if not blocked else "mixed")
    assert records == twin_records
    assert _state(clock, device, reader) == _state(twin_clock, twin_device, twin_reader)


def _disk_bound(scale):
    """A 30-buffer stretch on a slow disk, charged ``scale`` per buffer."""
    machine = dict(
        spec=DeviceSpec("d", seek_time=8.5e-3, read_bandwidth=MB, write_bandwidth=MB),
        num_records=40 * 64, buffer_records=64, prefetch=2, lead=1,
        foreign_bytes=4096, pause=0.0,
    )
    return machine, np.full((2, 30), scale)


@pytest.mark.parametrize("scale, closed", [(1e-6, True), (1.0, False)])
def test_closed_form_only_where_every_read_is_waited_on(monkeypatch, scale, closed):
    machine, charges = _disk_bound(scale)
    clock, device, reader = _twin(**machine)
    taken = []
    run_stretch = SimClock.run_stretch

    def counted(self, waits, categories, charges):
        taken.append(run_stretch(self, waits, categories, charges))
        return taken[-1]

    monkeypatch.setattr(SimClock, "run_stretch", counted)
    submits = device.timeline.bytes_read
    assert reader.takes_stretches
    reader.replay(CATEGORIES[:2], charges)
    assert taken == [closed]
    assert device.timeline.bytes_read - submits == 30 * 64 * RECORD

    twin_clock, twin_device, twin_reader = _twin(**machine)
    _per_buffer(twin_clock, twin_reader, CATEGORIES[:2], charges)
    assert _state(clock, device, reader) == _state(twin_clock, twin_device, twin_reader)


@pytest.mark.parametrize("attach", ["tracer", "cache", "injector"])
def test_a_device_that_sees_every_request_takes_no_stretch(attach):
    machine, charges = _disk_bound(1e-6)
    _, device, reader = _twin(**machine)
    assert reader.takes_stretches
    setattr(device, attach, object())
    assert not reader.takes_stretches


def test_a_file_shorter_than_the_minimum_takes_no_stretch():
    machine, _ = _disk_bound(1e-6)
    machine["num_records"] = (streams.MIN_STRETCH_BUFFERS - 1) * 64
    _, _, reader = _twin(**machine)
    assert not reader.takes_stretches
