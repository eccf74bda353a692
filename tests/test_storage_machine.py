"""Tests for the Machine model and IOReport."""

import pytest

from repro.errors import ConfigError
from repro.storage.device import DeviceSpec
from repro.storage.machine import Machine
from repro.utils.units import GB, MB


class TestMachineConstruction:
    def test_commodity_server_defaults(self):
        m = Machine.commodity_server()
        assert m.memory_bytes == 4 * GB
        assert m.cores == 4
        assert len(m.disks) == 1
        assert m.disks[0].spec.kind == "hdd"
        assert m.ram.spec.kind == "ram"

    def test_ssd_server(self):
        m = Machine.commodity_server(disk_kind="ssd", num_disks=2)
        assert len(m.disks) == 2
        assert all(d.spec.kind == "ssd" for d in m.disks)

    def test_bad_disk_kind(self):
        with pytest.raises(ConfigError):
            Machine.commodity_server(disk_kind="tape")

    def test_memory_string(self):
        m = Machine([DeviceSpec.hdd()], memory="256MB")
        assert m.memory_bytes == 256 * MB

    def test_no_disks_rejected(self):
        with pytest.raises(ConfigError):
            Machine([], memory=MB)

    def test_zero_memory_rejected(self):
        with pytest.raises(ConfigError):
            Machine([DeviceSpec.hdd()], memory=0)

    def test_bad_cores_rejected(self):
        with pytest.raises(ConfigError):
            Machine([DeviceSpec.hdd()], memory=MB, cores=0)

    def test_duplicate_device_names_rejected(self):
        with pytest.raises(ConfigError):
            Machine([DeviceSpec.hdd("a"), DeviceSpec.hdd("a")], memory=MB)


class TestDiskAccess:
    def test_disk_clamps_to_last(self):
        m = Machine.commodity_server(num_disks=1)
        assert m.disk(0) is m.disks[0]
        assert m.disk(1) is m.disks[0]  # single-disk machine accepts index 1

    def test_disk_negative_rejected(self):
        m = Machine.commodity_server()
        with pytest.raises(ConfigError):
            m.disk(-1)

    def test_all_devices_includes_ram(self):
        m = Machine.commodity_server(num_disks=2)
        devices = m.all_devices()
        assert len(devices) == 3
        assert devices[-1] is m.ram


class TestIOReport:
    def test_empty_report(self):
        report = Machine.commodity_server().report()
        assert report.execution_time == 0.0
        assert report.bytes_read == 0
        assert report.iowait_ratio == 0.0

    def test_ram_excluded_from_input_bytes(self):
        m = Machine.commodity_server()
        m.ram.submit(0.0, "read", 1000, file_id=1, offset=0)
        m.disks[0].submit(0.0, "read", 500, file_id=2, offset=0)
        report = m.report()
        assert report.bytes_read == 500  # the paper's "input data amount"
        ram_report = [d for d in report.devices if d.kind == "ram"][0]
        assert ram_report.bytes_read == 1000

    def test_totals(self):
        m = Machine.commodity_server(num_disks=2)
        m.disks[0].submit(0.0, "read", 100, file_id=1, offset=0)
        m.disks[1].submit(0.0, "write", 50, file_id=2, offset=0)
        report = m.report()
        assert report.bytes_read == 100
        assert report.bytes_written == 50
        assert report.bytes_total == 150

    def test_iowait_ratio(self):
        m = Machine.commodity_server()
        m.clock.charge_compute(1.0)
        m.clock.wait_until(2.0)
        assert m.report().iowait_ratio == pytest.approx(0.5)

    def test_summary_renders(self):
        m = Machine.commodity_server()
        m.disks[0].submit(0.0, "read", 12345, file_id=1, offset=0)
        m.clock.wait_until(1.0)
        text = m.report().summary()
        assert "iowait" in text
        assert "hdd0" in text
