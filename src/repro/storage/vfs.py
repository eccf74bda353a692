"""Virtual filesystem: named record files living on simulated devices.

A :class:`VirtualFile` stores real numpy record arrays (the engines' data
path) while its timing lives on the owning device's timeline (the time
path).  Files are append-only while open, then sealed into one contiguous
array for zero-copy streamed reads: a file of one chunk keeps it, one of
several is joined into one byte copy (:func:`as_one_array`), and a writer
that knows its chunks make up its own buffer's prefix hands that view to
:meth:`VirtualFile.seal`, which keeps it by reference instead.

The VFS supports the file-level operations FastBFS needs each iteration:
create, delete, and atomic *replace* (swapping a freshly written stay file in
for the previous edge file).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.device import Device


def as_one_array(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``arrays`` as one array: the array itself if there is one, else a copy.

    1-D record arrays that share one structured dtype object and are
    C-contiguous are copied as bytes into a fresh array of that dtype:
    ``np.concatenate`` would first promote the dtype field by field, in
    Python, on every call.  The copy owns its data, like a concatenation.
    """
    if len(arrays) == 1:
        return arrays[0]
    dtype = arrays[0].dtype
    if dtype.names is None or not all(
        arr.dtype is dtype and arr.ndim == 1 and arr.flags.c_contiguous
        for arr in arrays
    ):
        return np.concatenate(arrays)
    out = np.empty(sum(len(arr) for arr in arrays), dtype=dtype)
    np.concatenate([arr.view(np.uint8) for arr in arrays], out=out.view(np.uint8))
    return out


class VirtualFile:
    """An append-only record file on one device."""

    _ids = itertools.count(1)

    def __init__(self, name: str, device: Device) -> None:
        self.name = name
        self.device = device
        self.file_id = next(self._ids)
        self._chunks: List[np.ndarray] = []
        self._sealed: Optional[np.ndarray] = None
        self._nbytes = 0
        self._num_records = 0
        self._dtype: Optional[np.dtype] = None
        self.deleted = False
        #: Byte offsets damaged by injected torn writes (diagnostics).
        self.corruptions: List[int] = []

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def append_records(self, arr: np.ndarray) -> None:
        """Append a record array (data only; timing is the writer's job)."""
        self._check_alive()
        if self._sealed is not None:
            raise StorageError(f"file {self.name!r} is sealed; cannot append")
        if arr.ndim != 1:
            raise StorageError(
                f"files hold 1-D record arrays, got shape {arr.shape} for {self.name!r}"
            )
        if self._dtype is None:
            self._dtype = arr.dtype
        elif arr.dtype != self._dtype:
            raise StorageError(
                f"dtype mismatch appending to {self.name!r}: "
                f"{arr.dtype} != {self._dtype}"
            )
        self.device.reserve(arr.nbytes)
        self._chunks.append(arr)
        self._nbytes += arr.nbytes
        self._num_records += len(arr)

    def corrupt_at(self, offset: int) -> None:
        """Flip one stored byte at ``offset`` (torn-write fault data path).

        Models a write that was acknowledged but did not land intact: what
        subsequent reads see differs from what the writer sent.  The flip
        is copy-on-corrupt — the stored chunk is replaced by a modified
        copy, never mutated in place — because appended arrays may still
        be shared with engine or writer buffers.
        """
        self._check_alive()
        if not 0 <= offset < self._nbytes:
            raise StorageError(
                f"corruption offset {offset} out of range for {self.name!r} "
                f"({self._nbytes} bytes)"
            )
        if self._sealed is not None:
            damaged = self._sealed.copy()
            damaged.view(np.uint8)[offset] ^= 0xFF
            self._sealed = damaged
        else:
            base = 0
            for i, chunk in enumerate(self._chunks):
                if offset < base + chunk.nbytes:
                    damaged = chunk.copy()
                    damaged.view(np.uint8)[offset - base] ^= 0xFF
                    self._chunks[i] = damaged
                    break
                base += chunk.nbytes
        self.corruptions.append(offset)

    def seal(self, whole: Optional[np.ndarray] = None) -> None:
        """Freeze the chunks as one contiguous array (idempotent).

        ``whole`` is what the writer knows the chunks to be as one array, a
        view of the buffer they were all sliced from.  It is kept by
        reference when no corruption was recorded, it holds the file's
        bytes, and every chunk still is a view of that buffer: a chunk
        replaced by a copy (``corrupt_at``, or damage no injector tagged)
        takes the general path, so the stored bytes are what it holds.
        """
        self._check_alive()
        if self._sealed is None:
            if whole is not None and self._is_whole(whole):
                self._sealed = whole
            elif self._chunks:
                self._sealed = as_one_array(self._chunks)
            else:
                dtype = self._dtype if self._dtype is not None else np.uint8
                self._sealed = np.empty(0, dtype=dtype)
            self._chunks = []

    def _is_whole(self, whole: np.ndarray) -> bool:
        base = whole.base
        return (
            not self.corruptions
            and base is not None
            and whole.dtype == self._dtype
            and whole.nbytes == self._nbytes
            and all(chunk.base is base for chunk in self._chunks)
        )

    def records(self) -> np.ndarray:
        """The full contents as one contiguous array (seals the file)."""
        self.seal()
        sealed = self._sealed
        if sealed is None:  # pragma: no cover - seal() always sets it
            raise StorageError(f"file {self.name!r} failed to seal")
        return sealed

    def read_records(self, start: int, count: int) -> np.ndarray:
        """Zero-copy view of ``count`` records beginning at ``start``."""
        data = self._sealed
        if data is None or self.deleted:
            data = self.records()  # seals, or raises for a deleted file
        if start < 0 or start > len(data):
            raise StorageError(
                f"read out of range in {self.name!r}: start={start}, len={len(data)}"
            )
        return data[start : start + count]

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def record_size(self) -> int:
        """Bytes per record; 0 for an empty file with unknown dtype."""
        if self._dtype is None:
            return 0
        return self._dtype.itemsize

    @property
    def dtype(self) -> Optional[np.dtype]:
        return self._dtype

    def _check_alive(self) -> None:
        if self.deleted:
            raise StorageError(f"file {self.name!r} was deleted")

    def __len__(self) -> int:
        return self._num_records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VirtualFile({self.name!r}, records={self._num_records}, "
            f"device={self.device.name!r})"
        )


class VFS:
    """Flat namespace of virtual files across a machine's devices."""

    def __init__(self) -> None:
        self._files: Dict[str, VirtualFile] = {}

    def create(self, name: str, device: Device, overwrite: bool = False) -> VirtualFile:
        if name in self._files:
            if not overwrite:
                raise StorageError(f"file {name!r} already exists")
            self.delete(name)
        f = VirtualFile(name, device)
        self._files[name] = f
        return f

    def get(self, name: str) -> VirtualFile:
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        f = self._files.pop(name, None)
        if f is None:
            raise StorageError(f"no such file {name!r}")
        f.deleted = True
        f.device.release(f.nbytes)

    def delete_if_exists(self, name: str) -> None:
        if name in self._files:
            self.delete(name)

    def replace(self, new_name: str, target_name: str) -> VirtualFile:
        """Atomically install file ``new_name`` as ``target_name``.

        Mirrors FastBFS step 5: "replace the previous edge files with the new
        stay files as future input".  The displaced target (if any) is
        deleted.
        """
        f = self.get(new_name)
        if target_name in self._files and target_name != new_name:
            self.delete(target_name)
        del self._files[new_name]
        f.name = target_name
        self._files[target_name] = f
        return f

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, VirtualFile]:
        """Capture the current namespace for a later :meth:`restore`.

        The snapshot shares file objects by reference — it records *which*
        files exist under *which* names, not their contents.  That is the
        contract the query-session protocol needs: staged artifact files
        are sealed (immutable) by the time a checkpoint is taken, and
        everything created afterwards is transient per-query state.
        """
        return dict(self._files)

    def restore(self, snap: Dict[str, VirtualFile]) -> None:
        """Roll the namespace back to a snapshot.

        Files created since the snapshot are deleted; files present in the
        snapshot are re-registered (and resurrected if a query displaced
        them via :meth:`replace`).
        """
        for name, f in self._files.items():
            if snap.get(name) is not f:
                f.deleted = True
        self._files = dict(snap)
        for name, f in self._files.items():
            f.name = name
            f.deleted = False

    def counter_samples(self):
        """Yield (name, labels, value) occupancy gauges for the registry."""
        yield "vfs_live_files", {}, float(len(self._files))
        yield "vfs_live_bytes", {}, float(self.total_bytes())

    def names(self) -> List[str]:
        return sorted(self._files)

    def total_bytes(self) -> int:
        """Sum of live file sizes (modeled disk occupancy)."""
        return sum(f.nbytes for f in self._files.values())

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def __len__(self) -> int:
        return len(self._files)
