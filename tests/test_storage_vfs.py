"""Tests for the virtual filesystem."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph.types import EDGE_DTYPE, make_edges
from repro.storage.device import Device, DeviceSpec
from repro.storage.vfs import VFS, as_one_array


@pytest.fixture
def device():
    return Device(DeviceSpec.ram())


@pytest.fixture
def vfs():
    return VFS()


def edges(n, start=0):
    return make_edges(np.arange(start, start + n), np.arange(start, start + n))


class TestVirtualFile:
    def test_append_and_read(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(10))
        f.append_records(edges(5, start=10))
        data = f.records()
        assert len(data) == 15
        assert data["src"][12] == 12

    def test_nbytes_and_count(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(10))
        assert f.num_records == 10
        assert f.nbytes == 10 * EDGE_DTYPE.itemsize
        assert f.record_size == EDGE_DTYPE.itemsize

    def test_empty_file(self, vfs, device):
        f = vfs.create("a", device)
        assert len(f.records()) == 0
        assert f.nbytes == 0
        assert f.record_size == 0

    def test_seal_prevents_append(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(3))
        f.seal()
        with pytest.raises(StorageError):
            f.append_records(edges(1))

    def test_seal_idempotent(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(3))
        f.seal()
        f.seal()
        assert len(f.records()) == 3

    def test_read_records_slice(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(10))
        view = f.read_records(3, 4)
        assert len(view) == 4
        assert view["src"][0] == 3

    def test_read_past_end_clamps(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(10))
        assert len(f.read_records(8, 100)) == 2

    def test_read_bad_start(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(5))
        with pytest.raises(StorageError):
            f.read_records(6, 1)

    def test_read_of_a_deleted_sealed_file_raises(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(5))
        assert len(f.read_records(0, 5)) == 5  # sealed, and read once
        vfs.delete("a")
        with pytest.raises(StorageError, match="was deleted"):
            f.read_records(0, 1)

    def test_dtype_mismatch_rejected(self, vfs, device):
        f = vfs.create("a", device)
        f.append_records(edges(3))
        with pytest.raises(StorageError):
            f.append_records(np.zeros(3, dtype=np.float64))

    def test_2d_rejected(self, vfs, device):
        f = vfs.create("a", device)
        with pytest.raises(StorageError):
            f.append_records(np.zeros((2, 2)))

    def test_file_of_consecutive_views_seals_into_a_copy(self, vfs, device):
        whole = edges(30)
        f = vfs.create("a", device)
        f.append_records(whole[0:10])
        f.append_records(whole[10:24])
        f.append_records(whole[24:25])
        assert f.num_records == 25
        assert not np.shares_memory(f.records(), whole)
        assert f.records().tobytes() == whole[:25].tobytes()

    def test_file_of_one_chunk_seals_as_that_chunk(self, vfs, device):
        whole = edges(30)
        f = vfs.create("a", device)
        f.append_records(whole[5:20])
        assert f.records().base is whole
        assert np.array_equal(f.records(), whole[5:20])

    def test_file_of_anything_else_seals_into_a_copy(self, vfs, device):
        whole = edges(30)
        f = vfs.create("a", device)
        f.append_records(whole[0:10])
        f.append_records(whole[12:20])  # not the continuation
        f.append_records(whole[20:25])
        f.append_records(edges(5))
        assert not np.shares_memory(f.records(), whole)
        assert np.array_equal(
            f.records(),
            np.concatenate([whole[0:10], whole[12:20], whole[20:25], edges(5)]),
        )

    def test_corrupt_at_copies_only_the_chunk_it_damages(self, vfs, device):
        whole = edges(30)
        f = vfs.create("a", device)
        f.append_records(whole[0:10])
        f.append_records(whole[10:20])
        f.corrupt_at(10 * EDGE_DTYPE.itemsize + 3)
        head, damaged = f._chunks
        assert head.base is whole and len(head) == 10
        assert damaged.base is None and len(damaged) == 10
        f.append_records(whole[20:30])
        stored = f.records().view(np.uint8)
        assert not np.shares_memory(stored, whole)
        assert np.flatnonzero(stored != whole.view(np.uint8)).tolist() == [83]
        assert np.array_equal(whole, edges(30))  # never mutated in place

    def test_unique_file_ids(self, vfs, device):
        a = vfs.create("a", device)
        b = vfs.create("b", device)
        assert a.file_id != b.file_id


_concatenate = np.concatenate


def _no_record_concatenate(arrays, *args, **kwargs):
    """``np.concatenate`` that refuses record arrays: the byte join may
    only concatenate their ``uint8`` views."""
    assert all(arr.dtype.names is None for arr in arrays)
    return _concatenate(arrays, *args, **kwargs)


class TestByteJoin:
    """``as_one_array`` of record arrays that are not one in memory: a
    byte copy when they share a structured dtype object and are
    C-contiguous, ``np.concatenate`` otherwise."""

    def test_same_dtype_parts_join_as_bytes(self, monkeypatch):
        parts = [edges(7), edges(0), edges(3, start=50), edges(12, start=9)]
        expected = np.concatenate(parts)
        monkeypatch.setattr(np, "concatenate", _no_record_concatenate)
        joined = as_one_array(parts)
        assert joined.dtype is EDGE_DTYPE
        assert joined.tobytes() == expected.tobytes()
        assert joined.base is None and joined.flags.writeable

    def test_read_only_parts_join_into_a_writeable_copy(self):
        parts = [edges(4), edges(5, start=4)]
        for part in parts:
            part.flags.writeable = False
        joined = as_one_array(parts)
        assert joined.flags.writeable and joined.base is None
        assert np.array_equal(joined, edges(9))

    def test_byte_join_of_views_owns_a_copy(self):
        """Read-only slices, an empty part and a writeable one join into
        an array that owns its bytes: writing a part afterwards leaves
        the join as it was."""
        whole = edges(20)
        whole.flags.writeable = False
        tail = edges(6, start=40)
        parts = [whole[3:9], whole[9:9], tail, whole[15:]]
        expected = np.concatenate(parts).tobytes()
        joined = as_one_array(parts)
        assert joined.dtype is EDGE_DTYPE
        assert joined.flags.owndata and joined.flags.writeable
        assert joined.tobytes() == expected
        tail["src"] = 0
        assert joined.tobytes() == expected

    @pytest.mark.parametrize("parts", [
        lambda: [edges(4), edges(3).astype(np.dtype(EDGE_DTYPE.descr))],
        lambda: [edges(8)[::2], edges(3)],
        lambda: [np.arange(5, dtype=np.uint64), np.arange(3, dtype=np.uint64)],
    ], ids=["mixed-dtype-objects", "non-contiguous", "plain"])
    def test_anything_else_concatenates(self, parts, monkeypatch):
        arrays = parts()
        expected = np.concatenate(arrays)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("out"))
            return _concatenate(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counted)
        joined = as_one_array(arrays)
        assert calls == [None]
        assert joined.tobytes() == expected.tobytes()
        assert joined.base is None


class TestVFS:
    def test_create_get(self, vfs, device):
        f = vfs.create("x", device)
        assert vfs.get("x") is f
        assert "x" in vfs
        assert vfs.exists("x")

    def test_duplicate_create_rejected(self, vfs, device):
        vfs.create("x", device)
        with pytest.raises(StorageError):
            vfs.create("x", device)

    def test_get_missing(self, vfs):
        with pytest.raises(StorageError):
            vfs.get("nope")

    def test_delete(self, vfs, device):
        f = vfs.create("x", device)
        vfs.delete("x")
        assert not vfs.exists("x")
        assert f.deleted
        with pytest.raises(StorageError):
            f.records()

    def test_delete_missing(self, vfs):
        with pytest.raises(StorageError):
            vfs.delete("nope")

    def test_delete_if_exists(self, vfs, device):
        vfs.delete_if_exists("nope")  # no error
        vfs.create("x", device)
        vfs.delete_if_exists("x")
        assert not vfs.exists("x")

    def test_replace_swaps_stay_file_in(self, vfs, device):
        old = vfs.create("edges:p0", device)
        old.append_records(edges(10))
        stay = vfs.create("stay:p0:i1", device)
        stay.append_records(edges(4))
        result = vfs.replace("stay:p0:i1", "edges:p0")
        assert result is stay
        assert vfs.get("edges:p0") is stay
        assert stay.name == "edges:p0"
        assert old.deleted
        assert not vfs.exists("stay:p0:i1")

    def test_replace_to_new_name(self, vfs, device):
        f = vfs.create("a", device)
        vfs.replace("a", "b")
        assert vfs.get("b") is f
        assert not vfs.exists("a")

    def test_total_bytes(self, vfs, device):
        vfs.create("a", device).append_records(edges(10))
        vfs.create("b", device).append_records(edges(5))
        assert vfs.total_bytes() == 15 * EDGE_DTYPE.itemsize
        vfs.delete("a")
        assert vfs.total_bytes() == 5 * EDGE_DTYPE.itemsize

    def test_names_sorted(self, vfs, device):
        for name in ("c", "a", "b"):
            vfs.create(name, device)
        assert vfs.names() == ["a", "b", "c"]

    def test_len(self, vfs, device):
        assert len(vfs) == 0
        vfs.create("a", device)
        assert len(vfs) == 1
