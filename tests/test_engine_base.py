"""Tests for the shared edge-centric engine scaffolding (X-Stream behaviour)."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tests.helpers import (
    checked_run, fresh_machine, graph_from_pairs, hub_root, small_fastbfs_config,
)

import repro
from repro.algorithms.reference import bfs_levels
from repro.algorithms.streaming import WCCAlgorithm
from repro.core.config import FastBFSConfig
from repro.engines.xstream import XStreamEngine
from repro.errors import ConfigError, EngineError
from repro.graph.generators import rmat_graph
from repro.utils.units import KB, MB


class TestEngineConfig:
    def test_defaults_valid(self):
        FastBFSConfig()

    def test_string_sizes_parsed(self):
        cfg = FastBFSConfig(edge_buffer_bytes="64KB", update_buffer_bytes="1KB")
        assert cfg.edge_buffer_bytes == 64 * KB

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(threads=0),
            dict(num_edge_buffers=0),
            dict(edge_buffer_bytes=0),
            dict(num_partitions=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FastBFSConfig(**kwargs)

    def test_with_copies(self):
        """A copy with a field replaced leaves the original alone and is
        validated like a fresh config."""
        cfg = FastBFSConfig(threads=2)
        cfg2 = replace(cfg, threads=8)
        assert cfg.threads == 2 and cfg2.threads == 8
        with pytest.raises(ConfigError):
            replace(cfg, threads=0)


class TestBasicCorrectness:
    def test_bfs_matches_reference(self, rmat10):
        root = hub_root(rmat10)
        engine = XStreamEngine(small_fastbfs_config())
        result = engine.run(rmat10, fresh_machine(), root=root)
        assert np.array_equal(result.levels, bfs_levels(rmat10, root))

    def test_star_one_iteration_plus_drain(self, star):
        engine = XStreamEngine(small_fastbfs_config(num_partitions=2))
        result = engine.run(star, fresh_machine(), root=0)
        assert (result.levels[1:] == 1).all()
        # scatter-0 generates, pass-1 gathers and generates nothing.
        assert result.num_iterations == 2

    def test_path_runs_one_pass_per_level(self, path):
        engine = XStreamEngine(small_fastbfs_config(num_partitions=2))
        result = checked_run(engine, path, fresh_machine(), 0)
        assert result.levels[-1] == 63
        assert result.num_iterations == 64

    def test_empty_frontier_root_sink(self):
        g = graph_from_pairs(4, [(1, 2)])
        result = XStreamEngine(small_fastbfs_config(num_partitions=2)).run(
            g, fresh_machine(), root=0
        )
        assert result.levels.tolist() == [0, -1, -1, -1]
        assert result.num_iterations == 1

    def test_multiple_roots(self, rmat10):
        roots = [0, 17, 100]
        engine = XStreamEngine(small_fastbfs_config())
        result = engine.run(rmat10, fresh_machine(), roots=roots)
        far = np.int64(1) << 40
        dists = np.stack([bfs_levels(rmat10, r) for r in roots]).astype(np.int64)
        dists[dists < 0] = far
        expected = dists.min(axis=0)
        got = result.levels.astype(np.int64)
        got[got < 0] = far
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("partitions", [1, 2, 3, 7, 16])
    def test_partition_count_invariance(self, rmat10, partitions):
        root = hub_root(rmat10)
        ref = bfs_levels(rmat10, root)
        engine = XStreamEngine(small_fastbfs_config(num_partitions=partitions))
        result = engine.run(rmat10, fresh_machine(), root=root)
        assert np.array_equal(result.levels, ref)
        assert result.extras["partitions"] == min(partitions, rmat10.num_vertices)

    @pytest.mark.parametrize("buffer_bytes", [64, 256, 4096, 10**6])
    def test_buffer_size_invariance(self, rmat10, buffer_bytes):
        root = hub_root(rmat10)
        ref = bfs_levels(rmat10, root)
        engine = XStreamEngine(
            small_fastbfs_config(edge_buffer_bytes=buffer_bytes,
                                 update_buffer_bytes=buffer_bytes)
        )
        assert np.array_equal(
            engine.run(rmat10, fresh_machine(), root=root).levels, ref
        )


class TestMachineContract:
    def test_used_machine_rejected(self, rmat10):
        machine = fresh_machine()
        engine = XStreamEngine(small_fastbfs_config())
        engine.run(rmat10, machine, root=0)
        with pytest.raises(EngineError):
            engine.run(rmat10, machine, root=0)

    def test_engine_reusable_with_fresh_machines(self, rmat10):
        engine = XStreamEngine(small_fastbfs_config())
        a = engine.run(rmat10, fresh_machine(), root=0)
        b = engine.run(rmat10, fresh_machine(), root=0)
        assert np.array_equal(a.levels, b.levels)
        assert a.execution_time == pytest.approx(b.execution_time)


class TestXStreamTraits:
    @pytest.mark.parametrize(
        "config",
        [
            small_fastbfs_config(),
            small_fastbfs_config(
                trim_enabled=True, extended_trim=True,
                selective_scheduling=True, rotate_streams=True, stay_disk=1,
            ),
        ],
        ids=["engine-config", "every-fastbfs-addition"],
    )
    def test_scans_full_graph_every_iteration(self, rmat10, config):
        """X-Stream's weakness: edges scanned = E per scatter pass, whatever
        FastBFS additions its config turns on.  The volume formula reads
        the engine's own config, so it would follow an X-Stream that
        trimmed; these counts do not."""
        engine = XStreamEngine(config)
        result = checked_run(
            engine, rmat10, fresh_machine(num_disks=2), hub_root(rmat10)
        )
        assert result.num_iterations > 2
        for it in result.iterations:
            assert it.edges_scanned == rmat10.num_edges
            assert it.partitions_skipped == 0
        assert result.extras["stay_files_written"] == 0.0

    def test_no_stay_files(self, rmat10):
        result = XStreamEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=0
        )
        assert result.extras["stay_files_written"] == 0.0

    def test_update_parity_files_cleaned_up(self, rmat10):
        machine = fresh_machine()
        XStreamEngine(small_fastbfs_config()).run(machine=machine, graph=rmat10,
                                                  root=hub_root(rmat10))
        leftovers = [n for n in machine.vfs.names() if n.startswith("updates:")]
        assert leftovers == []


class TestInMemoryMode:
    def test_in_memory_when_fits(self, rmat10):
        cfg = FastBFSConfig(num_partitions=2)
        machine = fresh_machine(memory=64 * MB)
        result = XStreamEngine(cfg).run(rmat10, machine, root=hub_root(rmat10))
        assert result.extras["in_memory"] == 1.0
        # Only the initial load touches the disk.
        assert result.report.bytes_read <= 2 * rmat10.nbytes

    def test_out_of_core_when_tight(self, rmat10):
        cfg = FastBFSConfig(num_partitions=2)
        machine = fresh_machine(memory=64 * KB)
        result = XStreamEngine(cfg).run(rmat10, machine, root=hub_root(rmat10))
        assert result.extras["in_memory"] == 0.0

    def test_allow_in_memory_false(self, rmat10):
        cfg = FastBFSConfig(num_partitions=2, allow_in_memory=False)
        machine = fresh_machine(memory=64 * MB)
        result = XStreamEngine(cfg).run(rmat10, machine, root=hub_root(rmat10))
        assert result.extras["in_memory"] == 0.0

    def test_in_memory_is_faster(self, rmat10):
        root = hub_root(rmat10)
        slow = XStreamEngine(FastBFSConfig(num_partitions=2, allow_in_memory=False))
        fast = XStreamEngine(FastBFSConfig(num_partitions=2))
        t_disk = slow.run(rmat10, fresh_machine(memory=64 * MB), root=root)
        t_ram = fast.run(rmat10, fresh_machine(memory=64 * MB), root=root)
        assert t_ram.execution_time < t_disk.execution_time / 2

    def test_in_memory_same_levels(self, rmat10):
        """Same levels, and the passes of the volume formula."""
        root = hub_root(rmat10)
        ref = bfs_levels(rmat10, root)
        result = checked_run(XStreamEngine(FastBFSConfig()), rmat10,
                             fresh_machine(memory=64 * MB), root)
        assert result.extras["in_memory"] == 1.0
        assert np.array_equal(result.levels, ref)


class TestWCCOnBaseEngine:
    def test_wcc_labels_match_networkx(self):
        import networkx as nx

        g = rmat_graph(scale=8, edge_factor=2, seed=9).symmetrized()
        engine = XStreamEngine(small_fastbfs_config(num_partitions=3))
        result = engine.run(g, fresh_machine(), algorithm=WCCAlgorithm(), root=0)
        labels = result.output["label"]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.num_vertices))
        nxg.add_edges_from(zip(g.edges["src"].tolist(), g.edges["dst"].tolist()))
        for comp in nx.connected_components(nxg):
            comp = list(comp)
            assert len(set(labels[comp].tolist())) == 1
            assert labels[comp[0]] == min(comp)


class TestIterationStats:
    def test_updates_monotone_bookkeeping(self, rmat10):
        result = XStreamEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        assert result.iterations[-1].updates_generated == 0
        assert result.updates_generated == sum(
            it.updates_generated for it in result.iterations
        )
        times = [it.clock_end for it in result.iterations]
        assert times == sorted(times)

    def test_activated_sums_to_reachable_minus_roots(self, rmat10):
        root = hub_root(rmat10)
        result = XStreamEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=root
        )
        reachable = int((bfs_levels(rmat10, root) >= 0).sum())
        assert sum(it.activated for it in result.iterations) == reachable - 1


#: The modules of the engine/core import cluster: ``engines.base`` imports
#: ``core`` and ``engines.session`` at module level, and ``core`` imports
#: ``engines.base`` back.
IMPORT_CLUSTER = (
    "repro.engines.base", "repro.engines.session", "repro.engines.xstream",
    "repro.engines.graphchi", "repro.core", "repro.core.config",
    "repro.core.policies", "repro.core.staystream", "repro.core.engine",
    "repro.algorithms.validation", "repro.analysis.calibration", "repro.api",
)


def test_each_cluster_module_imports_first():
    """Every module of the cluster imports in an interpreter that holds
    no ``repro`` module yet (one subprocess, the cache emptied before each
    import)."""
    script = (
        "import importlib, sys\n"
        f"for name in {IMPORT_CLUSTER!r}:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'repro']:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module(name)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=src, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
