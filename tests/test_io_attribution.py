"""Tests for per-stream-role byte attribution."""

import pytest

from tests.helpers import fresh_machine, hub_root, small_fastbfs_config

from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.sim.timeline import Timeline


class TestTimelineRoles:
    def test_role_of(self):
        assert Timeline.role_of("stay:p3:i2") == "stay"
        assert Timeline.role_of("vertices") == "vertices"
        assert Timeline.role_of("") == "other"

    def test_bytes_by_role_tracks(self):
        tl = Timeline()
        tl.schedule(0.0, 1.0, 100, "read", group="edges:p0")
        tl.schedule(0.0, 1.0, 50, "write", group="stay:p0:i0")
        tl.schedule(0.0, 1.0, 25, "read", group="edges:p1")
        roles = tl.bytes_by_role()
        assert roles[("edges", "read")] == 125
        assert roles[("stay", "write")] == 50

    def test_cancel_restores_role_bytes(self):
        tl = Timeline()
        tl.schedule(0.0, 10.0, 10, "read", group="edges:p0")
        tl.schedule(0.0, 5.0, 99, "write", group="stay:p0:i0")
        tl.cancel(0.0, lambda r: r.group.startswith("stay"))
        assert ("stay", "write") not in tl.bytes_by_role()


class TestEngineAttribution:
    @pytest.fixture(scope="class")
    def result_and_roles(self):
        graph_fixture = __import__("repro.graph.generators",
                                   fromlist=["rmat_graph"])
        graph = graph_fixture.rmat_graph(scale=10, edge_factor=8, seed=5)
        machine = fresh_machine()
        result = FastBFSEngine(small_fastbfs_config()).run(
            graph, machine, root=hub_root(graph)
        )
        return graph, result, result.report.bytes_by_role()

    def test_all_expected_roles_present(self, result_and_roles):
        graph, result, roles = result_and_roles
        for key in (
            ("input", "read"),
            ("partition", "write"),  # initial partitioning
            ("edges", "read"),
            ("updates", "write"),
            ("updates", "read"),
            ("stay", "write"),
            ("vertices", "read"),
            ("vertices", "write"),
        ):
            assert key in roles, key

    def test_roles_sum_to_totals(self, result_and_roles):
        graph, result, roles = result_and_roles
        read_total = sum(v for (_, kind), v in roles.items() if kind == "read")
        write_total = sum(v for (_, kind), v in roles.items() if kind == "write")
        assert read_total == result.report.bytes_read
        assert write_total == result.report.bytes_written

    def test_stay_write_attribution_matches_extras(self, result_and_roles):
        graph, result, roles = result_and_roles
        # Role accounting excludes cancelled-at-end requests, so it is at
        # most the engine's own count and within a few buffers of it.
        assert roles[("stay", "write")] <= result.extras["stay_bytes_written"]
        assert roles[("stay", "write")] > 0

    def test_input_read_is_one_graph_scan(self, result_and_roles):
        graph, result, roles = result_and_roles
        assert roles[("input", "read")] == graph.nbytes

    def test_xstream_has_no_stay_role(self, rmat10):
        machine = fresh_machine()
        XStreamEngine(small_fastbfs_config()).run(
            rmat10, machine, root=hub_root(rmat10)
        )
        roles = machine.report().bytes_by_role()
        assert not any(role == "stay" for role, _ in roles)
