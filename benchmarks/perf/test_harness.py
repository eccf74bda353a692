"""Self-tests of the benchmark harness (not of the system it measures).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Uses ``--smoke`` sizes throughout, so nothing here is a measurement.
"""

import json
import subprocess
import sys
import types

import _env  # noqa: F401  (first: puts src/ on sys.path)

import numpy as np
import pytest

import hostspeed
import loadgen
import probe as probe_mod
import run
import stats
import workloads
from probe import Probe, Span, Target
from repro import rmat_graph
from repro.algorithms.reference import bfs_parents_and_levels


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_and_sibling_spans():
    spans = [
        Span(1, 0, "bench", "op", "a", 0, 100),
        Span(2, 1, "x", "outer", "a", 10, 90),     # child of 1
        Span(3, 2, "y", "inner", "a", 20, 40),     # siblings under 2
        Span(4, 2, "y", "inner", "a", 50, 70),
    ]
    assert probe_mod.self_times(spans) == {1: 20, 2: 40, 3: 20, 4: 20}
    assert probe_mod.check_operation_sums(spans) == 1
    totals = probe_mod.layer_totals(spans)
    assert totals["y.inner"].self_ns == 40 and totals["y.inner"].calls == 2
    assert totals["x.outer"].total_ns == 80 and totals["x.outer"].self_ns == 40


def test_operation_sum_check_rejects_spans_that_do_not_nest():
    root = Span(1, 0, "bench", "op", "a", 0, 100)
    outlives_parent = [root, Span(2, 1, "x", "outer", "a", 10, 120)]
    overlapping_siblings = [
        root, Span(2, 1, "x", "outer", "a", 10, 60), Span(3, 1, "x", "outer", "a", 50, 90),
    ]
    for spans in (outlives_parent, overlapping_siblings):
        with pytest.raises(AssertionError):
            probe_mod.check_operation_sums(spans)


@pytest.fixture
def toy_module():
    """A two-layer module to probe, registered as ``perf_toy``."""
    mod = types.ModuleType("perf_toy")
    exec(
        "def inner(n):\n    return sum(range(n))\n"
        "def outer(n):\n    return inner(n) + inner(n)\n"
        "class Box:\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls()\n"
        "    def fail(self):\n        raise ValueError('no')\n",
        mod.__dict__,
    )
    sys.modules["perf_toy"] = mod
    yield mod
    del sys.modules["perf_toy"]


def test_probe_records_a_tree_whose_self_times_sum_exactly(toy_module):
    holder = types.ModuleType("perf_toy_user")
    holder.outer = toy_module.outer            # ``from perf_toy import outer``
    sys.modules["perf_toy_user"] = holder
    probe = Probe().install([
        Target("toy", "outer", "perf_toy.outer"),
        Target("toy", "inner", "perf_toy.inner", note=lambda args, result: args[0]),
        Target("toy", "make", "perf_toy.Box.make"),
        Target("toy", "fail", "perf_toy.Box.fail"),
    ])
    try:
        assert probe.missing == []
        with probe.operation("op-1"):
            holder.outer(1000)                 # the copied binding is wrapped too
            box = toy_module.Box.make()
            with pytest.raises(ValueError):
                box.fail()
    finally:
        probe.uninstall()
        del sys.modules["perf_toy_user"]
    spans = probe.drain()
    assert sorted(s.name for s in spans) == ["fail", "inner", "inner", "make", "op", "outer"]
    assert {s.op for s in spans} == {"op-1"}
    assert probe_mod.check_operation_sums(spans) == 1
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].note == 1000
    assert by_name["fail"].failed and not by_name["make"].failed
    # Uninstalled: the originals are back and nothing more is recorded.
    assert holder.outer is toy_module.outer and holder.outer(10) == 90
    assert probe.drain() == []


def test_a_missing_probe_target_is_listed_not_raised(toy_module):
    probe = Probe().install([
        Target("toy", "inner", "perf_toy.inner"),
        Target("toy", "gone", "perf_toy.renamed_away"),
        Target("toy", "gone", "perf_toy.Box.no_such_method"),
        Target("toy", "gone", "no_such_package.module.function"),
    ])
    try:
        assert probe.missing == [
            "perf_toy.renamed_away", "perf_toy.Box.no_such_method",
            "no_such_package.module.function",
        ]
        toy_module.inner(3)
    finally:
        probe.uninstall()
    assert [s.name for s in probe.drain()] == ["inner"]


def test_every_real_probe_target_resolves_on_this_commit():
    probe = Probe().install()
    try:
        assert probe.missing == []
    finally:
        probe.uninstall()


def test_spans_survive_the_trace_file(tmp_path):
    spans = [Span(1, 0, "a", "b", "op", 5, 9, note="swap"), Span(2, 1, "c", "d", None, 6, 7)]
    probe_mod.write_spans(tmp_path / "t.jsonl", spans)
    assert probe_mod.read_spans(tmp_path / "t.jsonl") == spans


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(199) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    values = list(range(1, 201))
    assert stats.tail(values) == (95.0, 190)
    assert stats.tail([3.0, 1.0, 2.0]) == (0.0, 2.0)


def test_host_speed_correction_scales_cpu_not_waiting():
    slow = hostspeed.Block(wall_s=1.0, queries=10, cpu_s=0.4,
                           probe_s=2 * hostspeed.REFERENCE_S)
    fixed = slow.corrected()
    assert fixed.cpu_s == pytest.approx(0.2)
    assert fixed.wall_s == pytest.approx(0.8)       # the 0.6 s of waiting stays
    quiet = hostspeed.Block(1.0, 10, 0.4, hostspeed.REFERENCE_S)
    assert quiet.corrected() == quiet


def test_summary_flags_sets_that_disagree_beyond_the_bound(capsys):
    bound = {m["name"]: m["bound"] for m in run.BENCHMARK["end_to_end"]}["latency_p50_ms"]
    key = ("traverse_trim", "latency_p50_ms")
    assert run.summarize([{key: 100.0}, {key: 100.0 * (1 + bound / 2)}], check=True)
    assert not run.summarize([{key: 100.0}, {key: 100.0 * (1 + 2 * bound)}], check=True)
    sim = ("serve_ooc", "sim.s_per_query")
    assert run.summarize([{sim: 8.25}, {sim: 8.25}], check=True)
    assert not run.summarize([{sim: 8.25}, {sim: 8.250001}], check=True)
    capsys.readouterr()


# ----------------------------------------------------------------------
# roots and answers
# ----------------------------------------------------------------------
POOL_SNIPPET = """
import _env, json
from repro import rmat_graph
from workloads import RootPool
pool = RootPool(rmat_graph(scale=9, edge_factor=8, seed=3), 8, seed=11)
cycle, batches = pool.cycle("op", 1), pool.batches("op", 4)
print(json.dumps([pool.roots, [next(cycle) for _ in range(20)], next(batches)]))
"""


def test_seeded_root_pools_are_identical_across_processes():
    runs = [
        subprocess.run([sys.executable, "-c", POOL_SNIPPET], cwd=_env.PERF_DIR,
                       stdout=subprocess.PIPE, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    roots, cycle, batch = json.loads(runs[0])
    assert len(set(roots)) == 8 and set(cycle) <= set(roots) and len(set(batch)) == 4
    graph = rmat_graph(scale=9, edge_factor=8, seed=3)
    other = workloads.RootPool(graph, 8, seed=12)
    assert other.roots != roots


def test_answer_check_accepts_the_reference_and_rejects_corruptions():
    graph = rmat_graph(scale=9, edge_factor=8, seed=3)
    pool = workloads.RootPool(graph, 4, seed=1)
    root = pool.roots[0]
    levels, parents = bfs_parents_and_levels(graph, root)

    def wrong(*answers):
        check = workloads.AnswerCheck(graph, pool)
        for answer in answers:
            check.receive(root, *answer)
        return check.wrong_answers()

    good = (levels, parents)
    assert wrong(good, (levels.copy(), parents.copy())) == 0

    wrong_level = levels.copy()
    wrong_level[np.flatnonzero(levels == 2)[0]] = 3
    assert wrong((wrong_level, parents)) == 1
    assert wrong(good, (wrong_level, parents), good) == 1        # a repeat that differs
    assert wrong((wrong_level, parents), (wrong_level, parents)) == 2

    # A parent one level up that has no edge to the vertex: only the
    # "tree edges are graph edges" rule can catch it.
    edges = set(zip(graph.edges["src"].tolist(), graph.edges["dst"].tolist()))
    vertex = int(np.flatnonzero(levels == 2)[0])
    stranger = next(int(u) for u in np.flatnonzero(levels == 1) if (int(u), vertex) not in edges)
    wrong_parent = parents.copy()
    wrong_parent[vertex] = stranger
    assert wrong((levels, wrong_parent)) == 1


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
def test_connection_reads_whole_responses_over_one_keep_alive_socket():
    import threading

    httpd = loadgen.echo_server(70_000)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        samples, blocks = loadgen.closed_loop(
            httpd.server_address[1], "/", [iter(range(100))], seconds=5.0,
            id_prefix="t", max_ops=5,
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [s.status for s in samples] == [200] * 5 and blocks == []
    assert all(len(s.body) == 70_000 and s.latency > 0 for s in samples)
    assert [s.op_id for s in samples] == [f"t-c0-{i}" for i in range(5)]


# ----------------------------------------------------------------------
# the contract between run.py and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_workloads_the_harness_has():
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert run.BENCHMARK["paths"] == ["benchmarks/perf"]
    assert "setup_s" in run.declared(0)


@pytest.mark.parametrize("workload", ["traverse_trim", "serve_light"])
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, str(_env.PERF_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.6", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared(trace)
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], float)
    if trace:
        assert result["metrics"]["trace.probes_missing"]["value"] == 0.0
        assert (_env.OUT_DIR / f"trace_{workload}.jsonl").stat().st_size > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
