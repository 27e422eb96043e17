"""Shared-memory block devices for the sharded round plan.

:class:`SharedMemorySegment` owns one ``multiprocessing.shared_memory``
segment; :class:`SharedMemoryBlockDevice` exposes a byte range of it
with exactly the accounting of :class:`~repro.storage.blockio.
MemoryBlockDevice` (one-block read cache, per-block charges).  The
sharded driver keeps its estimate tables on such devices so forked
workers see the same bytes without any per-round pickling, while the
charged I/O stays bit-identical to the memory-device path.

Lifecycle
---------
The *driver* process creates the segment (``create()``) and is the only
unlinker: ``close()`` both detaches and removes the ``/dev/shm`` entry,
and is idempotent.  Worker processes inherit the mapping through
``fork`` -- they never open the segment by name, so the stdlib resource
tracker holds exactly one registration and cleanup cannot double-unlink
or leak, whatever order workers die in.  Segment names are
deterministic (``repro_shm_<pid>_<counter>``), which keeps the module
inside the repo's determinism lint and makes leak checks greppable.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory as _shared_memory

from repro.errors import StorageError
from repro.storage.blockio import DEFAULT_BLOCK_SIZE, BlockDevice

#: Prefix of every segment this module creates (leak checks glob it).
SEGMENT_PREFIX = "repro_shm"

_SEGMENT_COUNTER = 0


class SharedMemorySegment:
    """One owned shared-memory segment, closed and unlinked together."""

    def __init__(self, size):
        global _SEGMENT_COUNTER
        if size <= 0:
            raise StorageError(
                "segment size must be positive, got %d" % size
            )
        shm = None
        while shm is None:
            _SEGMENT_COUNTER += 1
            name = "%s_%d_%d" % (SEGMENT_PREFIX, os.getpid(),
                                 _SEGMENT_COUNTER)
            try:
                shm = _shared_memory.SharedMemory(
                    name=name, create=True, size=size)
            except FileExistsError:
                continue
        self._shm = shm
        self.name = name
        self.size = size
        self._closed = False
        # Fresh segments are zero-filled by the kernel; rely on that.

    @property
    def buf(self):
        if self._closed:
            raise StorageError("shared segment %s is closed" % self.name)
        return self._shm.buf

    def close(self):
        """Detach and unlink; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return "SharedMemorySegment(%s, %d bytes%s)" % (
            self.name, self.size, ", closed" if self._closed else ""
        )


class SharedMemoryBlockDevice(BlockDevice):
    """A counting block device over a range of a shared segment.

    Behaves exactly like a :class:`~repro.storage.blockio.
    MemoryBlockDevice` bounded by ``capacity``: the logical size starts
    at ``size`` (zero by default) and grows with writes, reads past the
    logical end raise, and every access is charged by the base class's
    block rules.  Each process tracks the logical end of its own copy,
    so a device that one process writes after another forked from it
    starts at ``size=capacity`` (fresh segments are zero-filled).  The
    backing bytes live at ``[offset, offset + capacity)`` of
    ``segment``, where any process sharing the mapping can also reach
    them raw (uncharged) -- the round plan's transport path.
    """

    def __init__(self, segment, offset, capacity,
                 block_size=DEFAULT_BLOCK_SIZE, stats=None, size=0):
        super().__init__(block_size=block_size, stats=stats)
        if offset < 0 or capacity < 0 or \
                offset + capacity > segment.size:
            raise StorageError(
                "device range [%d, +%d) exceeds segment of %d bytes"
                % (offset, capacity, segment.size)
            )
        self._segment = segment
        self._offset = offset
        self._capacity = capacity
        self._length = size

    def _read_raw(self, offset, size):
        base = self._offset + offset
        return bytes(self._segment.buf[base:base + size])

    def _write_raw(self, offset, data):
        end = offset + len(data)
        if end > self._capacity:
            raise StorageError(
                "write past device capacity: [%d, %d) but capacity is %d"
                % (offset, end, self._capacity)
            )
        base = self._offset + offset
        self._segment.buf[base:base + len(data)] = data
        if end > self._length:
            self._length = end

    def _size_raw(self):
        return self._length
