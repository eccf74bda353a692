"""Tests for the benchmark snapshot harness and regression gate.

Contracts locked down here:

* **schema round-trip** — a collected snapshot writes as canonical JSON
  and loads back equal, with schema version checked;
* **determinism** — two collections at the same divisor/seed produce
  byte-identical *canonical* documents (no timestamps, no host facts
  outside the informational ``host`` section);
* **host section** — v3 snapshots carry a per-scenario dual-clock
  breakdown that the regression gate provably never reads;
* **gate behaviour** — byte identity: identical files pass, any
  differing byte fails with a table of the differing metrics (baseline
  beside current), whichever way a value moved;
* **sequencing** — ``BENCH_<seq>.json`` naming, newest-pair comparison,
  and the CLI's exit codes.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.harness import ExperimentRunner
from repro.cli import main as cli_main
from repro.obs.bench import (
    DEFAULT_SCENARIOS,
    SNAPSHOT_SCHEMA_VERSION,
    BenchError,
    Scenario,
    collect_snapshot,
    compare_latest,
    load_snapshot,
    snapshot_files,
    snapshot_to_json,
    write_snapshot,
)

DIVISOR = 2048  # tiny stand-ins: the whole scenario set runs in ~1 s

#: One cheap scenario pair for collection-level tests.
FAST_SCENARIOS = (
    Scenario("fastbfs", "fastbfs"),
    Scenario("x-stream", "x-stream"),
)


@pytest.fixture(scope="module")
def snapshot():
    return collect_snapshot(
        runner=ExperimentRunner(divisor=DIVISOR), scenarios=FAST_SCENARIOS
    )


@pytest.fixture(scope="module")
def again():
    """A second, independent collection of the same scenarios."""
    return collect_snapshot(
        runner=ExperimentRunner(divisor=DIVISOR), scenarios=FAST_SCENARIOS
    )


def synthetic_snapshot() -> dict:
    """A small hand-written snapshot for gate tests (no runs needed)."""
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "divisor": 1024,
        "seed": 1,
        "scenarios": {
            "fastbfs": {
                "engine": "fastbfs",
                "execution_time": 10.0,
                "input_bytes": 1000.0,
                "total_bytes": 2000.0,
                "iowait_ratio": 0.5,
                "iterations": 12,
                "trim_effectiveness": 0.8,
            },
        },
        "derived": {},
    }


# ----------------------------------------------------------------------
# collection + schema
# ----------------------------------------------------------------------
class TestCollection:
    def test_snapshot_shape(self, snapshot):
        assert snapshot["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert snapshot["divisor"] == DIVISOR
        assert set(snapshot["scenarios"]) == {"fastbfs", "x-stream"}
        for doc in snapshot["scenarios"].values():
            for key in (
                "execution_time", "input_bytes", "total_bytes",
                "iowait_ratio", "iterations", "trim_effectiveness", "profile",
            ):
                assert key in doc
            assert doc["execution_time"] > 0
            assert 0.0 <= doc["trim_effectiveness"] <= 1.0
            prof = doc["profile"]
            assert "stage_totals" in prof
            assert "stay_hidden_fraction" in prof
        assert snapshot["derived"]["speedup_vs_x-stream"] > 0

    def test_fastbfs_trims_and_x_stream_does_not(self, snapshot):
        sc = snapshot["scenarios"]
        assert sc["fastbfs"]["trim_effectiveness"] > 0
        assert sc["x-stream"]["trim_effectiveness"] == 0.0

    def test_snapshot_is_deterministic(self, snapshot, again):
        assert again is not snapshot
        assert snapshot_to_json(again) == snapshot_to_json(snapshot)

    def test_no_host_section_and_byte_identical_as_written(
        self, snapshot, again, tmp_path
    ):
        # Host time is BENCHMARK.json's business; nothing machine-dependent
        # is left, so two collections are the same file, not the same view.
        assert set(snapshot) == {
            "schema_version", "divisor", "seed", "scenarios", "derived",
        }
        first = write_snapshot(snapshot, root=str(tmp_path))
        second = write_snapshot(again, root=str(tmp_path))
        assert first != second
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_snapshot_json_has_no_timestamps(self, snapshot):
        text = snapshot_to_json(snapshot)
        for word in ("time_stamp", "timestamp", "date", "hostname"):
            assert word not in text

    def test_write_load_round_trip(self, snapshot, tmp_path):
        path = write_snapshot(snapshot, root=str(tmp_path))
        assert path.endswith("BENCH_0.json")
        assert load_snapshot(path) == snapshot

    def test_default_scenarios_cover_the_paper_matrix(self):
        names = {sc.name for sc in DEFAULT_SCENARIOS}
        assert {"fastbfs", "x-stream", "graphchi", "fastbfs-2disk",
                "fastbfs-multiquery"} <= names
        kinds = {sc.name: sc.kind for sc in DEFAULT_SCENARIOS}
        assert kinds["fastbfs-multiquery"] == "multi-query"

    def test_multi_query_scenario_records_amortization(self):
        from repro.obs.bench import (
            MULTI_QUERY_MAX_AMORTIZATION,
            MULTI_QUERY_Q,
        )

        doc = collect_snapshot(
            runner=ExperimentRunner(divisor=DIVISOR),
            scenarios=(
                Scenario("fastbfs-multiquery", "fastbfs", kind="multi-query"),
            ),
        )
        entry = doc["scenarios"]["fastbfs-multiquery"]
        assert entry["kind"] == "multi-query"
        assert entry["queries"] == MULTI_QUERY_Q
        assert entry["batches"] == 1
        assert 0 < entry["edges_scanned"] < entry["serial_edges_scanned"]
        assert (
            0.0
            < entry["edge_scan_amortization"]
            <= MULTI_QUERY_MAX_AMORTIZATION
        )
        assert entry["batched_time"] < entry["serial_time"]


class TestFiles:
    def test_sequence_numbering(self, tmp_path):
        doc = synthetic_snapshot()
        p0 = write_snapshot(doc, root=str(tmp_path))
        p1 = write_snapshot(doc, root=str(tmp_path))
        p9 = write_snapshot(doc, root=str(tmp_path), seq=9)
        p_next = write_snapshot(doc, root=str(tmp_path))
        assert [p.endswith(s) for p, s in [
            (p0, "BENCH_0.json"), (p1, "BENCH_1.json"),
            (p9, "BENCH_9.json"), (p_next, "BENCH_10.json"),
        ]] == [True] * 4
        assert [seq for seq, _ in snapshot_files(str(tmp_path))] == [0, 1, 9, 10]

    def test_load_rejects_wrong_schema_version(self, tmp_path):
        doc = synthetic_snapshot()
        doc["schema_version"] = 999
        path = write_snapshot(doc, root=str(tmp_path))
        with pytest.raises(BenchError):
            load_snapshot(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "BENCH_0.json"
        path.write_text("not json")
        with pytest.raises(BenchError):
            load_snapshot(str(path))

    def test_compare_latest_needs_two(self, tmp_path):
        with pytest.raises(BenchError):
            compare_latest(str(tmp_path))


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def gate(tmp_path, base, cur):
    """``compare_latest`` over ``base`` then ``cur`` written as snapshots."""
    write_snapshot(base, root=str(tmp_path))
    write_snapshot(cur, root=str(tmp_path))
    return compare_latest(str(tmp_path))


class TestGate:
    def test_identical_snapshots_pass(self, tmp_path):
        base = synthetic_snapshot()
        cmp_ = gate(tmp_path, base, copy.deepcopy(base))
        assert cmp_.same and not cmp_.rows
        assert "PASS" in cmp_.render()

    def test_iteration_count_must_match_exactly(self, tmp_path):
        base = synthetic_snapshot()
        for delta in (-1, 1):
            cur = copy.deepcopy(base)
            cur["scenarios"]["fastbfs"]["iterations"] = 12 + delta
            cmp_ = gate(tmp_path, base, cur)
            assert not cmp_.same
            assert cmp_.rows == [
                ("scenarios.fastbfs.iterations", "12", str(12 + delta))
            ]

    def test_divisor_mismatch_is_a_problem(self, tmp_path):
        base = synthetic_snapshot()
        cur = copy.deepcopy(base)
        cur["divisor"] = 4096
        cmp_ = gate(tmp_path, base, cur)
        assert not cmp_.same
        assert cmp_.rows == [("divisor", "1024", "4096")]

    def test_missing_scenario_is_a_problem(self, tmp_path):
        base = synthetic_snapshot()
        cur = copy.deepcopy(base)
        del cur["scenarios"]["fastbfs"]
        cmp_ = gate(tmp_path, base, cur)
        assert not cmp_.same
        assert {cur for _, _, cur in cmp_.rows} == {"-"}
        assert "scenarios.fastbfs.execution_time" in cmp_.render()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_compare_without_snapshots_exits_2(self, tmp_path, capsys):
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 2

    def test_compare_pass_and_fail_paths(self, tmp_path, capsys):
        base = synthetic_snapshot()
        write_snapshot(base, root=str(tmp_path))
        write_snapshot(copy.deepcopy(base), root=str(tmp_path))
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 0
        bad = copy.deepcopy(base)
        bad["scenarios"]["fastbfs"]["total_bytes"] = 2500.0
        write_snapshot(bad, root=str(tmp_path))
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "total_bytes" in out and "FAIL" in out

    def test_one_differing_byte_fails_and_prints_the_table(
        self, tmp_path, capsys
    ):
        """No allowance: a one-byte change to a time fails, and the table
        shows the metric with both values."""
        text = snapshot_to_json(synthetic_snapshot())
        (tmp_path / "BENCH_0.json").write_text(text)
        edited = text.replace('"execution_time": 10.0', '"execution_time": 10.1')
        assert len(edited) == len(text)
        assert sum(a != b for a, b in zip(text, edited)) == 1
        (tmp_path / "BENCH_1.json").write_text(edited)
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "metric" in out and "baseline" in out and "current" in out
        (row,) = [line for line in out.splitlines() if "execution_time" in line]
        assert row.split() == ["scenarios.fastbfs.execution_time", "10.0", "10.1"]
        assert "1 metric(s) differ" in out and "FAIL" in out
        # Bytes, not values: the same document laid out differently fails.
        (tmp_path / "BENCH_2.json").write_text(text.replace("\n", "\r\n"))
        (tmp_path / "BENCH_1.json").unlink()
        assert cli_main(["bench", "compare", "--dir", str(tmp_path)]) == 1
        assert "formatting" in capsys.readouterr().out

    def test_bench_run_writes_next_snapshot(self, tmp_path, capsys):
        # Committed baseline (seq 0) + CI run (seq 1) is the real layout;
        # emulate it at test scale via the module-level divisor.
        assert cli_main([
            "bench", "run", "--dir", str(tmp_path),
            "--scale-divisor", str(DIVISOR),
        ]) == 0
        files = snapshot_files(str(tmp_path))
        assert [seq for seq, _ in files] == [0]
        doc = load_snapshot(files[0][1])
        assert doc["divisor"] == DIVISOR
        assert set(doc["scenarios"]) == {sc.name for sc in DEFAULT_SCENARIOS}
