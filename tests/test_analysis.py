"""Tests for calibration, the paper-claims module, harness and tables."""

import numpy as np
import pytest

from repro.analysis import figures, paper
from repro.analysis.calibration import (
    ENGINES,
    SCALE_DIVISOR,
    scaled_bytes,
    scaled_device,
    scaled_fastbfs_config,
    scaled_machine,
)
from repro.analysis.harness import (
    ComparisonRow,
    ExperimentRunner,
    default_root,
)
from repro.analysis.tables import (
    comparison_table,
    datasets_table,
    format_table,
    representation_table,
    speedup_table,
)
from repro.errors import ConfigError
from repro.graph.generators import rmat_graph
from repro.storage.device import DeviceSpec
from repro.utils.units import MB

DIV = 4096  # tiny datasets for harness tests


class TestCalibration:
    def test_one_divisor(self):
        assert SCALE_DIVISOR == 256

    def test_scaled_bytes(self):
        assert scaled_bytes("4GB", 256) == 16 * MB
        assert scaled_bytes(256, 512) == 1  # floor at one byte

    def test_scaled_device_seek(self):
        hdd = scaled_device("hdd", "d", 256)
        assert hdd.seek_time == pytest.approx(DeviceSpec.hdd().seek_time / 256)
        assert hdd.read_bandwidth == DeviceSpec.hdd().read_bandwidth

    def test_scaled_device_unknown(self):
        with pytest.raises(ConfigError):
            scaled_device("floppy", "d")

    def test_scaled_machine(self):
        m = scaled_machine(memory="4GB", num_disks=2, disk_kind="ssd", divisor=256)
        assert m.memory_bytes == 16 * MB
        assert len(m.disks) == 2
        assert m.disks[0].spec.kind == "ssd"

    def test_scaled_configs_buffer_sizes(self):
        for divisor in (256, 1024):
            cfg = scaled_fastbfs_config(divisor)
            assert cfg.edge_buffer_bytes == 16 * MB // divisor
            assert cfg.update_buffer_bytes == 8 * MB // divisor
            assert cfg.stay_buffer_bytes == 8 * MB // divisor
        # X-Stream and FastBFS scale through the one builder.
        assert ENGINES["x-stream"].scaled_config is scaled_fastbfs_config
        assert ENGINES["fastbfs"].scaled_config is scaled_fastbfs_config


class TestPaperClaims:
    def test_claim_contains(self):
        claim = paper.HDD_SPEEDUP_VS_XSTREAM
        assert claim.contains(1.8)
        assert not claim.contains(3.0)
        assert claim.contains(2.5, slack=0.25)

    def test_table2_matches_registry(self):
        from repro.graph.datasets import DATASETS

        for name, row in paper.TABLE2.items():
            assert name in DATASETS
            assert DATASETS[name].paper_vertices == pytest.approx(
                row["vertices"], rel=0.05
            )

    def test_fig1_example(self):
        useful = paper.FIG1_EXAMPLE["useful_after"]
        assert useful[0] == paper.FIG1_EXAMPLE["total_edges"]
        assert useful == sorted(useful, reverse=True)

    def test_shape_claims_enumerated(self):
        claimed = {name for name, fig in figures.FIGURES.items() if fig.claims}
        assert {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} <= claimed


class TestRoots:
    def test_default_root_is_hub(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=1)
        assert default_root(g) == int(np.argmax(g.out_degrees()))


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(divisor=DIV)

    def test_graph_cached(self, runner):
        assert runner.graph("rmat25") is runner.graph("rmat25")

    def test_run_memoized(self, runner):
        a = runner.run("rmat25", "fastbfs")
        b = runner.run("rmat25", "fastbfs")
        assert a is b

    def test_compare_has_all_engines(self, runner):
        rows = runner.compare("rmat25")
        assert set(rows) == {"graphchi", "x-stream", "fastbfs"}
        for row in rows.values():
            assert isinstance(row, ComparisonRow)
            assert row.time > 0
            assert row.input_bytes > 0

    def test_engines_agree(self, runner):
        rows = runner.compare("rmat25")
        levels = [r.result.levels for r in rows.values()]
        for lv in levels[1:]:
            assert np.array_equal(lv, levels[0])

    def test_speedup_and_reductions(self, runner):
        rows = {"rmat25": runner.compare("rmat25")}

        def measured(figure, text):
            (claim,) = [c for c in figures.FIGURES[figure].claims if c.text == text]
            ((_, value),) = claim.cases(rows)
            return value

        x, f = rows["rmat25"]["x-stream"], rows["rmat25"]["fastbfs"]
        speedup = measured("fig4", "FastBFS vs X-Stream, HDD: in the paper's range")
        assert speedup == x.time / f.time > 1.0
        reduction = measured(
            "fig5", "input data reduction vs X-Stream: in the paper's range"
        )
        assert reduction == 1.0 - f.input_bytes / x.input_bytes
        assert 0.0 < reduction < 1.0

    def test_unknown_engine(self, runner):
        with pytest.raises(ConfigError):
            runner.run("rmat25", "pregel")

    def test_threads_and_memory_options_fork_runs(self, runner):
        a = runner.run("rmat22", "x-stream", threads=1)
        b = runner.run("rmat22", "x-stream", threads=8)
        assert a is not b


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xxx", 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2] or "-" in lines[2]

    def test_representation_table_mentions_stay_files(self):
        text = representation_table()
        assert "stay files" in text
        assert "FastBFS" in text

    def test_datasets_table(self):
        g = rmat_graph(scale=6, edge_factor=4, seed=1)
        text = datasets_table({"rmat22": g})
        assert "rmat22" in text
        assert "4.2M" in text  # paper vertices

    def test_comparison_table(self):
        runner = ExperimentRunner(divisor=DIV)
        rows = {"rmat25": runner.compare("rmat25")}
        for metric in ("time", "input", "total", "iowait"):
            text = comparison_table(rows, metric, title=metric)
            assert "rmat25" in text

    def test_speedup_table_includes_paper_range(self):
        text = speedup_table(
            {"rmat25": {"vs x-stream": 1.9}},
            {"vs x-stream": paper.HDD_SPEEDUP_VS_XSTREAM},
            "Fig 4",
        )
        assert "1.6-2.1x" in text
        assert "1.90x" in text


class TestScaledMachineOptions:
    def test_default_no_trace(self):
        m = scaled_machine("4GB")
        assert not m.tracer.enabled
        assert all(dev.tracer is None for dev in m.all_devices())

    def test_ssd_two_disks(self):
        m = scaled_machine("2GB", num_disks=2, disk_kind="ssd", divisor=512)
        assert len(m.disks) == 2
        assert m.disks[1].spec.kind == "ssd"
        assert m.disks[1].spec.seek_time == pytest.approx(
            DeviceSpec.ssd().seek_time / 512
        )
