"""Device requests on the span tracer (``io`` spans) and the Gantt renderer."""

import pytest

from tests.helpers import fresh_machine, hub_root, small_fastbfs_config

from repro.api import run_bfs, run_queries
from repro.core.engine import FastBFSEngine
from repro.graph.generators import rmat_graph
from repro.obs import (
    NULL_TRACER,
    CounterRegistry,
    Span,
    Tracer,
    profile_trace,
    read_spans_jsonl,
    write_spans_jsonl,
)
from repro.obs.profile import (
    ProfileError,
    device_lanes,
    render_device_gantt,
    render_span_gantt,
    span_lanes,
)
from repro.sim.timeline import Timeline
from repro.storage.device import DeviceSpec
from repro.storage.machine import Machine, merge_reports
from repro.utils.units import MB


def traced_machine(*specs, memory=MB):
    """A machine on ``specs`` (one plain HDD by default) with a tracer."""
    machine = Machine(list(specs) or [DeviceSpec.hdd("hdd0")], memory=memory)
    tracer = Tracer()
    machine.attach_tracer(tracer)
    return machine, tracer


def unit_disk(name="d0"):
    """No seeks, 10 bytes/s: a 10-byte request takes exactly one second."""
    return DeviceSpec(name, seek_time=0.0, read_bandwidth=10, write_bandwidth=10)


def submit(device, kind, group, nbytes=10, at=0.0):
    return device.submit(at, kind, nbytes, file_id=0, offset=0, group=group)


def io_bytes(spans):
    """(device, role, kind) -> bytes over the ``io`` spans of ``spans``."""
    totals = {}
    for sp in spans:
        if sp.name == "io":
            key = (sp.attrs["device"], sp.attrs["role"], sp.attrs["kind"])
            totals[key] = totals.get(key, 0) + sp.attrs["bytes"]
    return {k: float(v) for k, v in totals.items() if v}


def device_bytes(registry):
    """The same key space over a registry's ``device_bytes_total`` series."""
    return {
        (labels["device"], labels["role"], labels["kind"]): value
        for name, labels, value in registry.items()
        if name == "device_bytes_total" and value
    }


class TestTraceCapture:
    def test_disabled_by_default(self):
        m = Machine([DeviceSpec.hdd()], memory=MB)
        assert m.tracer is NULL_TRACER
        assert all(dev.tracer is None for dev in m.all_devices())
        submit(m.disks[0], "read", "edges:p0")
        assert m.tracer.io_spans() == []

    def test_enabled_captures_all(self):
        m, tracer = traced_machine()
        dev = m.disks[0]
        a = submit(dev, "read", "edges:p0")
        b = submit(dev, "write", "stay:p0:i0")
        dev.timeline.cancel(0.0, lambda r: r is b)
        assert b.cancelled
        (io,) = tracer.io_spans()
        assert io.name == "io" and (io.start, io.end) == (a.start, a.end)
        assert io.attrs == {"device": "hdd0", "role": "edges", "kind": "read",
                            "group": "edges:p0", "bytes": 10}
        assert tracer.spans == []  # a reference, not a Span, until exported

    def test_attach_tracer_reaches_every_device(self):
        m, tracer = traced_machine()
        assert all(dev.tracer is tracer for dev in m.all_devices())
        m.attach_tracer(NULL_TRACER)
        assert all(dev.tracer is None for dev in m.all_devices())

    def test_request_is_a_child_of_the_open_span(self):
        m, tracer = traced_machine()
        submit(m.disks[0], "read", "input")
        with tracer.span("scatter") as scatter:
            submit(m.disks[0], "read", "edges:p0", at=1.0)
        outside, inside = tracer.io_spans()
        assert outside.parent_id is None
        assert inside.parent_id == scatter.span_id
        assert outside.span_id == scatter.span_id + 1  # numbered after spans

    def test_torn_write_carries_the_fault(self):
        m, tracer = traced_machine()
        req = submit(m.disks[0], "write", "stay:p0:i0")
        req.fault = "torn_write"
        assert tracer.io_spans()[0].attrs["fault"] == "torn_write"

    def test_cancelled_stay_write_repacks_the_request_behind_it(self):
        m, tracer = traced_machine(unit_disk())
        dev = m.disks[0]
        submit(dev, "read", "edges:p0")  # [0, 1)
        stay = submit(dev, "write", "stay:p0:i0")  # [1, 2), queued
        behind = submit(dev, "write", "updates:i0:p1")  # [2, 3)
        dev.timeline.cancel(0.5, lambda r: r is stay)
        assert (behind.start, behind.end) == (1.0, 2.0)
        assert [sp.attrs["role"] for sp in tracer.io_spans()] == ["edges", "updates"]
        text = render_device_gantt(tracer, start=0.0, end=3.0, width=30)
        lane = next(line for line in text.splitlines() if "updates[W]" in line)
        assert lane.split()[-1] == "·" * 10 + "█" * 10 + "·" * 10
        assert "stay[W]" not in text


class TestRendering:
    def _traced(self):
        m, tracer = traced_machine()
        submit(m.disks[0], "read", "edges:p0")
        submit(m.disks[0], "write", "stay:p0:i0")
        return tracer

    def test_untraced_raises(self):
        with pytest.raises(ProfileError):
            render_device_gantt(fresh_machine())

    def test_lanes_per_role(self):
        text = render_device_gantt(self._traced(), width=40)
        assert "edges[R]" in text
        assert "stay[W]" in text
        assert "hdd0" in text

    def test_busy_then_idle_shape(self):
        m, tracer = traced_machine(unit_disk("d"))
        submit(m.disks[0], "read", "edges:p0")  # busy [0, 1)
        text = render_device_gantt(tracer, start=0.0, end=2.0, width=20)
        lane = [l for l in text.splitlines() if "edges" in l][0]
        bar = lane.split()[-1]
        assert bar[:9].count("█") >= 8  # first half busy
        assert bar[-8:].count("·") >= 7  # second half idle

    def test_empty_window(self):
        with pytest.raises(ProfileError):
            render_device_gantt(self._traced(), start=5.0, end=5.0)

    def test_width_validation(self):
        with pytest.raises(ProfileError):
            render_device_gantt(self._traced(), width=3)

    def test_no_requests_message(self):
        _, tracer = traced_machine()
        text = render_device_gantt(tracer, devices=["hdd0"], start=0.0, end=1.0)
        assert "no requests" in text


class TestLaneKeyUnification:
    def test_lane_key_matches_byte_ledger_keys(self):
        """One lane definition: io span lanes == bytes_by_role keys."""
        m, tracer = traced_machine()
        dev = m.disks[0]
        submit(dev, "read", "edges:p0")
        submit(dev, "write", "stay:p3:i2", nbytes=20)
        submit(dev, "write", "updates:i1:p2", nbytes=30)
        lanes = {(sp.attrs["role"], sp.attrs["kind"]) for sp in tracer.io_spans()}
        assert lanes == set(dev.timeline.bytes_by_role())
        assert [label for label, _ in device_lanes(tracer)["hdd0"]] == [
            "edges[R]", "stay[W]", "updates[W]"
        ]

    def test_lane_of_is_role_kind(self):
        tl = Timeline()
        req = tl.schedule(0.0, 1.0, 10, "write", group="stay:p3:i2")
        assert Timeline.lane_of(req) == ("stay", "write")


class TestSpanGantt:
    def _spans(self):
        return [
            Span(1, None, "query", 0.0, 10.0),
            Span(2, 1, "iteration", 0.0, 6.0),
            Span(3, 2, "scatter", 0.0, 4.0),
            Span(4, 1, "stay_flush", 1.0, 3.0),
            Span(5, 1, "open", 9.0, -1.0),  # unfinished: dropped
            Span(6, 3, "io", 0.0, 1.0, {"device": "hdd0", "role": "edges",
                                        "kind": "read"}),  # a device lane
        ]

    def test_lanes_follow_taxonomy_order(self):
        lanes = span_lanes(self._spans())
        assert [name for name, _ in lanes] == [
            "query", "iteration", "scatter", "stay_flush"
        ]

    def test_names_filter(self):
        lanes = span_lanes(self._spans(), names=("scatter", "stay_flush"))
        assert [name for name, _ in lanes] == ["scatter", "stay_flush"]

    def test_renders_from_span_list(self):
        text = render_span_gantt(self._spans(), width=20, title="t")
        assert "scatter" in text and "stay_flush" in text
        assert "t:" in text

    def test_renders_from_tracer_and_machine(self):
        graph = rmat_graph(scale=9, edge_factor=8, seed=3)
        machine = fresh_machine()
        tracer = Tracer()
        machine.attach_tracer(tracer)
        FastBFSEngine(small_fastbfs_config()).run(
            graph, machine, root=hub_root(graph)
        )
        from_tracer = render_span_gantt(tracer, width=40)
        from_machine = render_span_gantt(machine, width=40)
        assert from_tracer == from_machine
        assert "scatter" in from_tracer
        assert render_device_gantt(tracer) == render_device_gantt(machine)

    def test_machine_without_tracer_raises(self):
        with pytest.raises(ProfileError):
            render_span_gantt(fresh_machine())


def two_disk_run():
    graph = rmat_graph(scale=9, edge_factor=8, seed=3)
    machine, tracer = traced_machine(
        DeviceSpec.hdd("hdd0"), DeviceSpec.hdd("hdd1"), memory=2 * MB
    )
    FastBFSEngine(small_fastbfs_config(rotate_streams=True)).run(
        graph, machine, root=hub_root(graph)
    )
    return machine, tracer


class TestEngineGantt:
    def test_full_run_renders(self):
        machine, tracer = two_disk_run()
        text = render_device_gantt(tracer, devices=["hdd0", "hdd1"], width=60)
        assert "hdd0" in text and "hdd1" in text
        assert "stay[W]" in text
        # Rotation: both disks carried stay writes at some point.
        assert text.count("stay[W]") == 2


class TestOneTrace:
    """The exported trace draws and profiles exactly as the live tracer."""

    def test_gantt_and_profile_from_file_equal_live(self, tmp_path):
        _, tracer = two_disk_run()
        path = str(tmp_path / "t.jsonl")
        write_spans_jsonl(tracer, path)
        spans = read_spans_jsonl(path)
        assert spans == tracer.export()
        assert render_device_gantt(spans, width=60) == render_device_gantt(
            tracer, width=60
        )
        assert profile_trace(path).report_text() == profile_trace(
            tracer
        ).report_text()
        assert "hdd1 stay[W]" in profile_trace(path).report_text()


class TestIoSpansReconcile:
    """io span bytes per (device, role, kind) == device_bytes_total."""

    GRAPH = rmat_graph(scale=9, edge_factor=8, seed=3)
    MACHINE = dict(num_disks=2, memory="1MB")

    def test_run_bfs(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        result = run_bfs(self.GRAPH, root=hub_root(self.GRAPH),
                         trace_path=path, **self.MACHINE)
        expected = device_bytes(result.metrics)
        assert expected and io_bytes(read_spans_jsonl(path)) == expected

    @pytest.mark.parametrize("mode", ["serial", "batched"])
    def test_run_queries_keeps_every_query(self, tmp_path, mode):
        path = str(tmp_path / "t.jsonl")
        batch = run_queries(self.GRAPH, [0, 7, 9], mode=mode, trace_path=path,
                            **self.MACHINE)
        reports = {id(q.report): q.report for q in batch.queries}
        assert len(reports) == (3 if mode == "serial" else 1)
        expected = device_bytes(CounterRegistry.from_report(
            merge_reports([batch.staging_report, *reports.values()])
        ))
        assert io_bytes(read_spans_jsonl(path)) == expected
