"""Tests for the FastBFS engine: correctness, trimming, scheduling, disks."""

import numpy as np
import pytest

from tests.helpers import checked_run, fresh_machine, hub_root, small_fastbfs_config

from repro.algorithms.reference import bfs_levels
from repro.algorithms.streaming import WCCAlgorithm
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.errors import ConfigError
from repro.graph.generators import rmat_graph


class TestConfig:
    def test_defaults_valid(self):
        FastBFSConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(stay_buffer_bytes=0),
            dict(num_stay_buffers=0),
            dict(trim_start_iteration=-1),
            dict(trim_trigger_fraction=1.0),
            dict(trim_trigger_fraction=-0.1),
            dict(cancellation_grace=-1),
            dict(stay_disk=-1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FastBFSConfig(**kwargs)

    def test_two_disk_factory(self):
        cfg = FastBFSConfig(rotate_streams=True, threads=2)
        assert cfg.rotate_streams is True
        assert cfg.threads == 2

    def test_engine_defaults_to_fastbfs_config(self):
        assert FastBFSEngine().config == FastBFSConfig()
        cfg = FastBFSConfig(threads=2)
        assert FastBFSEngine(cfg).config is cfg


class TestCorrectness:
    """FastBFS's answer on every graph kind, partition count, placement and
    feature switch is the contract matrix's (``tests/test_contracts.py``)
    and ``tests/test_fuzz_engines.py``'s; no scenario there is a path, the
    graph with the most levels per vertex."""

    def test_path_extreme_diameter(self, path):
        result = FastBFSEngine(small_fastbfs_config(num_partitions=3)).run(
            path, fresh_machine(), root=0
        )
        assert result.levels.tolist() == list(range(64))


def trimming_run(graph, root, **config):
    """FastBFS on ``small_fastbfs_config(**config)`` from ``root``, its
    passes held to the volume formula (:func:`tests.helpers.checked_run`)."""
    engine = FastBFSEngine(small_fastbfs_config(**config))
    return checked_run(engine, graph, fresh_machine(), root)


class TestTrimming:
    def test_stay_files_shrink_scanned_edges(self, rmat10):
        result = trimming_run(rmat10, hub_root(rmat10), selective_scheduling=False)
        scanned = [it.edges_scanned for it in result.iterations]
        assert scanned[0] == rmat10.num_edges
        # After swaps take effect the scan volume decreases.
        assert min(scanned[1:]) < rmat10.num_edges
        assert result.extras["stay_swaps"] > 0

    def test_trimmed_scans_less_than_untrimmed(self, rmat10):
        root = hub_root(rmat10)
        trimmed = trimming_run(rmat10, root)
        untrimmed = trimming_run(rmat10, root, trim_enabled=False)
        assert trimmed.edges_scanned < untrimmed.edges_scanned
        assert trimmed.report.bytes_read < untrimmed.report.bytes_read

    def test_eliminated_edges_equal_updates_without_extended(self, rmat10):
        """Paper rule: eliminate exactly the update-generating edges."""
        result = trimming_run(rmat10, hub_root(rmat10))
        for it in result.iterations:
            if it.stay_records_written or it.edges_eliminated:
                assert it.edges_eliminated <= it.updates_generated or \
                    it.updates_generated == 0

    def test_extended_trim_eliminates_more(self, rmat10):
        base, ext = (
            trimming_run(rmat10, hub_root(rmat10), selective_scheduling=False,
                         extended_trim=extended)
            for extended in (False, True)
        )
        assert ext.edges_scanned <= base.edges_scanned

    def test_trim_start_iteration_delays(self, rmat10):
        result = trimming_run(rmat10, hub_root(rmat10), trim_start_iteration=2,
                              selective_scheduling=False)
        assert result.iterations[0].stay_records_written == 0
        assert result.iterations[1].stay_records_written == 0
        assert result.iterations[1].edges_scanned == rmat10.num_edges

    def test_trigger_fraction_skips_slow_convergence(self, grid):
        """On a grid the frontier is tiny; a 10% trigger never fires."""
        result = trimming_run(grid, 0, trim_trigger_fraction=0.10)
        assert result.extras["stay_files_written"] == 0.0

    def test_trigger_fraction_fires_on_rmat(self, rmat10):
        result = trimming_run(rmat10, hub_root(rmat10), trim_trigger_fraction=0.10)
        assert result.extras["stay_files_written"] > 0

    def test_no_trimming_for_wcc(self):
        """Label-correcting algorithms fall back to plain streaming."""
        g = rmat_graph(scale=7, edge_factor=4, seed=2).symmetrized()
        result = FastBFSEngine(small_fastbfs_config(num_partitions=3)).run(
            g, fresh_machine(), algorithm=WCCAlgorithm(), root=0
        )
        assert result.extras["stay_files_written"] == 0.0

    def test_stay_bytes_accounted(self, rmat10):
        result = FastBFSEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        assert result.extras["stay_bytes_written"] == pytest.approx(
            result.extras["stay_records_written"] * 8
        )


class TestSelectiveScheduling:
    def test_partitions_skipped_in_tail(self, path):
        """On a path only the frontier's partition has work each pass."""
        result = FastBFSEngine(
            small_fastbfs_config(num_partitions=4, trim_enabled=False)
        ).run(path, fresh_machine(), root=0)
        skipped = sum(it.partitions_skipped for it in result.iterations)
        processed = sum(it.partitions_processed for it in result.iterations)
        assert skipped > processed  # most partitions idle most of the time

    def test_disabled_processes_everything(self, path):
        result = FastBFSEngine(
            small_fastbfs_config(num_partitions=4, selective_scheduling=False)
        ).run(path, fresh_machine(), root=0)
        assert all(it.partitions_skipped == 0 for it in result.iterations)

    def test_selective_reads_less(self, path):
        on = FastBFSEngine(
            small_fastbfs_config(num_partitions=4, trim_enabled=False)
        ).run(path, fresh_machine(), root=0)
        off = FastBFSEngine(
            small_fastbfs_config(num_partitions=4, trim_enabled=False,
                                 selective_scheduling=False)
        ).run(path, fresh_machine(), root=0)
        assert on.report.bytes_read < off.report.bytes_read


class TestPerformanceShape:
    def test_fastbfs_beats_xstream_on_converging_graph(self, rmat12):
        root = hub_root(rmat12)
        fb = FastBFSEngine(small_fastbfs_config(num_partitions=2)).run(
            rmat12, fresh_machine(), root=root
        )
        xs = XStreamEngine(
            small_fastbfs_config(num_partitions=2)
        )
        xs = XStreamEngine(
            FastBFSConfig(edge_buffer_bytes=2048, update_buffer_bytes=1024,
                          num_partitions=2, allow_in_memory=False)
        ).run(rmat12, fresh_machine(), root=root)
        assert fb.report.bytes_read < xs.report.bytes_read
        assert np.array_equal(fb.levels, xs.levels)

    def test_two_disks_faster_than_one(self, rmat12):
        root = hub_root(rmat12)
        one = FastBFSEngine(small_fastbfs_config(num_partitions=2)).run(
            rmat12, fresh_machine(num_disks=1), root=root
        )
        two = FastBFSEngine(
            small_fastbfs_config(num_partitions=2, rotate_streams=True)
        ).run(rmat12, fresh_machine(num_disks=2), root=root)
        assert two.execution_time < one.execution_time

    def test_rotation_on_single_disk_harmless(self, rmat10):
        root = hub_root(rmat10)
        ref = bfs_levels(rmat10, root)
        result = FastBFSEngine(
            small_fastbfs_config(rotate_streams=True)
        ).run(rmat10, fresh_machine(num_disks=1), root=root)
        assert np.array_equal(result.levels, ref)


class TestCleanup:
    def test_no_stay_files_left_behind(self, rmat10):
        machine = fresh_machine()
        FastBFSEngine(small_fastbfs_config()).run(
            rmat10, machine, root=hub_root(rmat10)
        )
        stays = [n for n in machine.vfs.names() if n.startswith("stay:")]
        assert stays == []

    def test_end_of_run_discards_counted(self, rmat10):
        result = FastBFSEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        assert result.extras["stay_end_of_run_discards"] >= 0
