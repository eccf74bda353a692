"""Tests for the FIFO device timeline, including cancellation semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TimelineError
from repro.sim.timeline import ScheduledRequest, Timeline


class TestScheduling:
    def test_idle_device_starts_immediately(self):
        tl = Timeline()
        req = tl.schedule(submit=1.0, service=2.0, nbytes=100, kind="read")
        assert req.start == 1.0
        assert req.end == 3.0
        assert req.start - req.submit == 0.0

    def test_fifo_queueing(self):
        tl = Timeline()
        a = tl.schedule(0.0, 5.0, 10, "read")
        b = tl.schedule(1.0, 2.0, 10, "write")
        assert b.start == a.end == 5.0
        assert b.end == 7.0
        assert b.start - b.submit == 4.0

    def test_gap_between_requests(self):
        tl = Timeline()
        tl.schedule(0.0, 1.0, 10, "read")
        b = tl.schedule(10.0, 1.0, 10, "read")
        assert b.start == 10.0  # device was idle in between

    def test_free_at(self):
        tl = Timeline()
        assert tl.free_at == 0.0
        tl.schedule(0.0, 3.0, 10, "read")
        assert tl.free_at == 3.0

    def test_zero_service_allowed(self):
        req = Timeline().schedule(0.0, 0.0, 0, "read")
        assert req.start == req.end

    def test_negative_service_rejected(self):
        with pytest.raises(TimelineError):
            Timeline().schedule(0.0, -1.0, 10, "read")

    def test_negative_size_rejected(self):
        with pytest.raises(TimelineError):
            Timeline().schedule(0.0, 1.0, -1, "read")

    def test_bad_kind_rejected(self):
        with pytest.raises(TimelineError):
            Timeline().schedule(0.0, 1.0, 1, "erase")

    def test_non_monotonic_submission_rejected(self):
        tl = Timeline()
        tl.schedule(5.0, 1.0, 10, "read")
        with pytest.raises(TimelineError):
            tl.schedule(4.0, 1.0, 10, "read")

    def test_byte_accounting(self):
        tl = Timeline()
        tl.schedule(0.0, 1.0, 100, "read")
        tl.schedule(0.0, 1.0, 50, "write")
        tl.schedule(0.0, 1.0, 25, "read")
        assert tl.bytes_read == 125
        assert tl.bytes_written == 50

    @pytest.mark.parametrize("args,message", [
        ((0.0, -1.0, 10, "read"), "negative service time -1.0"),
        ((0.0, 1.0, -1, "read"), "negative request size -1"),
        ((0.0, 1.0, 1, "erase"),
         "request kind must be 'read' or 'write', got 'erase'"),
        ((4.0, 1.0, 10, "read"), "submissions must be monotonic: 4.0 after 5.0"),
    ])
    def test_every_error_keeps_its_message(self, args, message):
        """Also for a (group, kind) pair already in the ledger, whose kind
        is not checked again: its service, size and submit time are."""
        tl = Timeline()
        tl.schedule(5.0, 1.0, 10, "read")
        with pytest.raises(TimelineError) as exc_info:
            tl.schedule(*args)
        assert str(exc_info.value) == message
        assert tl.bytes_read == 10


class TestScheduledRequest:
    def test_is_slotted(self):
        req = Timeline().schedule(1.0, 2.0, 3, "read", group="g")
        assert not hasattr(req, "__dict__")
        with pytest.raises(AttributeError):
            req.colour = "red"

    def test_fields_properties_and_mutation(self):
        req = ScheduledRequest(
            group="g", kind="write", nbytes=8, submit=1.0, service=2.0,
            start=4.0, end=6.0,
        )
        assert req.start - req.submit == 3.0
        assert (req.cancelled, req.fault) == (False, None)
        req.fault = "torn_write"
        req.cancelled = True
        assert repr(req) == (
            "ScheduledRequest(group='g', kind='write', nbytes=8, submit=1.0, "
            "service=2.0, start=4.0, end=6.0, cancelled=True, "
            "fault='torn_write')"
        )

    def test_equality_is_field_wise(self):
        a = ScheduledRequest("g", "read", 1, 0.0, 1.0, 0.0, 1.0)
        assert a == ScheduledRequest("g", "read", 1, 0.0, 1.0, 0.0, 1.0)
        assert a != ScheduledRequest("g", "read", 1, 0.0, 1.0, 0.0, 2.0)
        with pytest.raises(TypeError):
            hash(a)


def reference_schedule(state, submit, service, nbytes, kind, group):
    """``Timeline.schedule``'s placement as first written: prune the head
    at every call, ``max`` for the start, the lane from the group."""
    queue = state["queue"]
    while queue and queue[0][1] <= submit:
        state["settled_end"] = queue.pop(0)[1]
    free_at = queue[-1][1] if queue else state["settled_end"]
    start = max(submit, free_at)
    queue.append((start, start + service))
    lane = (Timeline.role_of(group), kind)
    state["by_role"][lane] = state["by_role"].get(lane, 0) + nbytes
    return start, start + service


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),  # submit delta
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # service
            st.integers(min_value=0, max_value=64),
            st.sampled_from(["read", "write"]),
            st.sampled_from(["", "read:a", "stay:p0:i1", "stay:p1:i1", "upd"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_placements_and_ledger_match_the_reference(ops):
    """Head pruning only when the head has ended, the spelled-out ``max``
    and the per-group ledger place and account every request as before."""
    tl = Timeline()
    state = {"queue": [], "settled_end": 0.0, "by_role": {}}
    t = 0.0
    for delta, service, nbytes, kind, group in ops:
        t += delta
        req = tl.schedule(t, service, nbytes, kind, group)
        assert (req.start, req.end) == reference_schedule(
            state, t, service, nbytes, kind, group
        )
    assert tl.bytes_by_role() == {k: v for k, v in state["by_role"].items() if v}


def recomputed_bytes_by_role(requests):
    totals = {}
    for req in requests:
        if not req.cancelled:
            lane = Timeline.lane_of(req)
            totals[lane] = totals.get(lane, 0) + req.nbytes
    return {lane: n for lane, n in totals.items() if n}


class TestBytesByRole:
    """The (role, kind) ledger against a recount of the requests it saw:
    what keeping it per (group, kind) and folding on read must not change."""

    def test_schedule_cancel_snapshot_restore(self):
        tl = Timeline()
        seen = []

        def put(submit, nbytes, kind, group):
            seen.append(tl.schedule(submit, 1.0, nbytes, kind, group))

        put(0.0, 10, "read", "read:edges")
        put(0.0, 20, "write", "stay:p0:i1")
        put(0.0, 30, "write", "stay:p0:i1")
        put(0.0, 5, "read", "")
        assert tl.bytes_by_role() == recomputed_bytes_by_role(seen)
        snap = tl.snapshot()
        at_snapshot = list(seen)
        put(0.0, 7, "write", "stay:p1:i1")
        put(0.0, 9, "read", "read:edges")
        tl.cancel(now=0.5, predicate=lambda r: r.group.startswith("stay:"))
        assert sum(r.cancelled for r in seen) == 3
        assert tl.bytes_by_role() == recomputed_bytes_by_role(seen)
        for req in seen:
            req.cancelled = False  # restore brings back the snapshot's ledger
        tl.restore(snap)
        assert tl.bytes_by_role() == recomputed_bytes_by_role(at_snapshot)
        put(20.0, 11, "write", "stay:p0:i1")  # a known pair, after restore
        put(20.0, 13, "write", "upd:p2")
        assert tl.bytes_by_role() == recomputed_bytes_by_role(
            at_snapshot + seen[-2:]
        )


class TestCancellation:
    def test_cancel_queued_request(self):
        tl = Timeline()
        tl.schedule(0.0, 10.0, 10, "read", group="keep")
        victim = tl.schedule(0.0, 5.0, 20, "write", group="stay")
        cancelled = tl.cancel(now=0.0, predicate=lambda r: r.group == "stay")
        assert cancelled == [victim]
        assert victim.cancelled
        assert tl.bytes_written == 0
        assert tl.free_at == 10.0  # only the read remains

    def test_cannot_cancel_in_service(self):
        tl = Timeline()
        running = tl.schedule(0.0, 10.0, 10, "write", group="g")
        cancelled = tl.cancel(now=5.0, predicate=lambda r: True)
        assert cancelled == []
        assert not running.cancelled

    def test_repack_moves_later_requests_earlier(self):
        tl = Timeline()
        tl.schedule(0.0, 2.0, 10, "read")  # runs [0, 2)
        mid = tl.schedule(0.0, 6.0, 10, "write", group="victim")  # [2, 8)
        tail = tl.schedule(0.0, 1.0, 10, "read")  # [8, 9)
        assert tail.start == 8.0
        tl.cancel(now=0.5, predicate=lambda r: r.group == "victim")
        assert tail.start == 2.0
        assert tail.end == 3.0
        assert not mid in tl.pending_requests()

    def test_repack_respects_now(self):
        """A repacked request cannot start before the cancellation time."""
        tl = Timeline()
        tl.schedule(0.0, 1.0, 10, "write", group="v")  # runs [0, 1)
        tail = tl.schedule(0.0, 1.0, 10, "write", group="t")  # [1, 2)
        # Cancel 't' predecessors at t=1.5 — nothing to cancel that started,
        # but repack of 't' itself must not move before now.
        tl.cancel(now=1.4, predicate=lambda r: r.group == "none")
        assert tail.start == 1.0  # untouched: no cancellation happened

    def test_cancel_is_selective(self):
        tl = Timeline()
        blocker = tl.schedule(0.0, 4.0, 1, "read")
        a = tl.schedule(0.0, 1.0, 1, "write", group="a")
        b = tl.schedule(0.0, 1.0, 1, "write", group="b")
        tl.cancel(now=0.0, predicate=lambda r: r.group == "a")
        assert not b.cancelled
        assert b.start == blocker.end

    def test_busy_time_after_cancel(self):
        tl = Timeline()
        tl.schedule(0.0, 2.0, 1, "read")
        tl.schedule(0.0, 3.0, 1, "write", group="v")
        tl.cancel(now=0.0, predicate=lambda r: r.group == "v")
        assert tl.busy_time_until(10.0) == pytest.approx(2.0)


class TestQueries:
    def test_busy_time_partial(self):
        tl = Timeline()
        tl.schedule(0.0, 4.0, 1, "read")  # busy [0, 4)
        assert tl.busy_time_until(2.0) == pytest.approx(2.0)
        assert tl.busy_time_until(4.0) == pytest.approx(4.0)
        assert tl.busy_time_until(100.0) == pytest.approx(4.0)

    def test_busy_time_with_gap(self):
        tl = Timeline()
        tl.schedule(0.0, 1.0, 1, "read")
        tl.schedule(5.0, 1.0, 1, "read")
        assert tl.busy_time_until(10.0) == pytest.approx(2.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10),  # submit delta
            st.floats(min_value=0, max_value=5),  # service
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fifo_invariants(ops):
    """Requests never overlap, never start before submission, stay FIFO."""
    tl = Timeline()
    t = 0.0
    reqs = []
    for delta, service in ops:
        t += delta
        reqs.append(tl.schedule(t, service, 1, "read"))
    for req in reqs:
        assert req.start >= req.submit
        assert req.end == pytest.approx(req.start + req.service)
    for prev, cur in zip(reqs, reqs[1:]):
        assert cur.start >= prev.end - 1e-9
