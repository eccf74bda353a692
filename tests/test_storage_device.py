"""Tests for the block-device timing model (seek + bandwidth)."""

import pytest

from repro.errors import OutOfSpaceError, StorageError
from repro.storage.device import Device, DeviceSpec
from repro.utils.units import MB


class TestDeviceSpec:
    def test_hdd_preset(self):
        spec = DeviceSpec.hdd()
        assert spec.kind == "hdd"
        assert spec.seek_time > 1e-3  # milliseconds, a real spindle

    def test_ssd_preset_seeks_far_less(self):
        assert DeviceSpec.ssd().seek_time < DeviceSpec.hdd().seek_time / 10

    def test_ram_preset_no_seek(self):
        spec = DeviceSpec.ram()
        assert spec.seek_time == 0.0
        assert spec.kind == "ram"

    def test_invalid_bandwidth(self):
        with pytest.raises(StorageError):
            DeviceSpec("x", seek_time=0.0, read_bandwidth=0, write_bandwidth=1)

    def test_invalid_seek(self):
        with pytest.raises(StorageError):
            DeviceSpec("x", seek_time=-1.0, read_bandwidth=1, write_bandwidth=1)



class TestDeviceTiming:
    def _device(self, seek=0.01, bw=100 * MB):
        return Device(
            DeviceSpec("d", seek_time=seek, read_bandwidth=bw, write_bandwidth=bw)
        )

    def test_first_access_seeks(self):
        dev = self._device()
        req = dev.submit(0.0, "read", 100 * MB, file_id=1, offset=0)
        assert req.end == pytest.approx(0.01 + 1.0)
        assert dev.seek_count == 1

    def test_sequential_continuation_no_seek(self):
        dev = self._device()
        dev.submit(0.0, "read", 50 * MB, file_id=1, offset=0)
        dev.submit(0.0, "read", 50 * MB, file_id=1, offset=50 * MB)
        assert dev.seek_count == 1  # only the first access seeked

    def test_file_switch_seeks(self):
        dev = self._device()
        dev.submit(0.0, "read", MB, file_id=1, offset=0)
        dev.submit(0.0, "read", MB, file_id=2, offset=0)
        assert dev.seek_count == 2

    def test_offset_jump_seeks(self):
        dev = self._device()
        dev.submit(0.0, "read", MB, file_id=1, offset=0)
        dev.submit(0.0, "read", MB, file_id=1, offset=10 * MB)
        assert dev.seek_count == 2

    def test_interleaved_streams_thrash(self):
        """Alternating two sequential streams seeks on every request."""
        dev = self._device()
        for i in range(4):
            dev.submit(0.0, "read", MB, file_id=1, offset=i * MB)
            dev.submit(0.0, "write", MB, file_id=2, offset=i * MB)
        assert dev.seek_count == 8

    def test_ram_never_seeks(self):
        dev = Device(DeviceSpec.ram())
        dev.submit(0.0, "read", MB, file_id=1, offset=0)
        dev.submit(0.0, "read", MB, file_id=9, offset=123)
        assert dev.seek_count == 0

    def test_read_write_bandwidths_differ(self):
        dev = Device(
            DeviceSpec("d", seek_time=0.0, read_bandwidth=100 * MB,
                       write_bandwidth=50 * MB)
        )
        r = dev.submit(0.0, "read", 100 * MB, file_id=1, offset=0)
        w = dev.submit(r.end, "write", 100 * MB, file_id=1, offset=0)
        assert r.end - r.start == pytest.approx(1.0)
        assert w.end - w.start == pytest.approx(2.0)

    def test_byte_accounting_passthrough(self):
        dev = self._device()
        dev.submit(0.0, "read", 100, file_id=1, offset=0)
        dev.submit(0.0, "write", 200, file_id=1, offset=100)
        assert dev.bytes_read == 100
        assert dev.bytes_written == 200

    def test_busy_time(self):
        dev = self._device(seek=0.0)
        dev.submit(0.0, "read", 100 * MB, file_id=1, offset=0)
        assert dev.busy_time_until(0.5) == pytest.approx(0.5)
        assert dev.busy_time_until(2.0) == pytest.approx(1.0)


class TestDeviceCapacity:
    def _device(self, capacity=None):
        return Device(
            DeviceSpec("d0", seek_time=0.0, read_bandwidth=MB,
                       write_bandwidth=MB, capacity=capacity)
        )

    def test_unbounded_by_default(self):
        dev = self._device()
        assert dev.available_bytes is None
        dev.reserve(10**12)  # never raises without a capacity
        assert dev.used_bytes == 10**12

    def test_reserve_and_release(self):
        dev = self._device(capacity=1000)
        dev.reserve(400)
        assert dev.used_bytes == 400
        assert dev.available_bytes == 600
        dev.release(150)
        assert dev.used_bytes == 250
        dev.release(10**6)  # clamped, never negative
        assert dev.used_bytes == 0

    def test_out_of_space_message_names_device_and_sizes(self):
        """The single choke point reports device, requested and available."""
        dev = self._device(capacity=100)
        dev.reserve(40)
        with pytest.raises(OutOfSpaceError) as exc_info:
            dev.reserve(200)
        msg = str(exc_info.value)
        assert "'d0'" in msg
        assert "200 bytes" in msg  # requested
        assert "60 bytes" in msg  # available
        assert dev.used_bytes == 40  # failed reserve charges nothing

    def test_out_of_space_is_a_storage_error(self):
        dev = self._device(capacity=1)
        with pytest.raises(StorageError):
            dev.reserve(2)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(StorageError):
            DeviceSpec("d", seek_time=0.0, read_bandwidth=1,
                       write_bandwidth=1, capacity=0)

    def test_used_bytes_survive_snapshot_restore(self):
        dev = self._device(capacity=1000)
        dev.reserve(300)
        snap = dev.snapshot()
        dev.reserve(500)
        dev.restore(snap)
        assert dev.used_bytes == 300
        assert dev.available_bytes == 700
