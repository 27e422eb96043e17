"""Partition store used by the EMCore baseline.

EMCore (Cheng et al., reproduced here from Section III of the paper) keeps
the graph as disjoint node partitions on disk.  Partitions are loaded
wholesale, shrunk as nodes are finalized, and written back -- EMCore is the
only algorithm in the paper that issues *write* I/Os during decomposition.

Each partition serializes its records as::

    record_count: u32
    repeated: node id u32, degree u32, neighbour ids u32...

Every partition lives in its own block device; all devices share one
:class:`~repro.storage.blockio.IOStats` so EMCore reports a single I/O
figure.
"""

from __future__ import annotations

import os

from repro.errors import StorageError
from repro.storage.blockio import (
    DEFAULT_BLOCK_SIZE,
    FileBlockDevice,
    IOStats,
    MemoryBlockDevice,
)
from repro.storage.partition_codec import decode_records, encode_records

_U32 = 4


class PartitionStore:
    """On-disk store of EMCore partitions with shared I/O accounting."""

    def __init__(self, *, block_size=DEFAULT_BLOCK_SIZE, stats=None,
                 directory=None):
        self.block_size = block_size
        self.stats = stats if stats is not None else IOStats()
        self.directory = directory
        self._devices = {}
        self._sizes = {}
        self._counter = 0

    def write(self, records):
        """Store a new partition; returns ``(partition_id, byte_size)``."""
        return self.write_bytes(encode_records(records))

    def write_bytes(self, data):
        """Store pre-serialized partition bytes (the numpy engine path)."""
        pid = self._counter
        self._counter += 1
        device = self._new_device(pid)
        device.write_at(0, data)
        self._devices[pid] = device
        self._sizes[pid] = len(data)
        return pid, len(data)

    def rewrite(self, pid, records):
        """Replace partition ``pid`` in place; returns the new byte size."""
        return self.rewrite_bytes(pid, encode_records(records))

    def rewrite_bytes(self, pid, data):
        """Replace partition ``pid`` with pre-serialized bytes."""
        self._check(pid)
        device = self._devices[pid]
        device.drop_cache()
        device.write_at(0, data)
        self._sizes[pid] = len(data)
        return len(data)

    def read(self, pid):
        """Load partition ``pid`` as ``[(node, neighbour array), ...]``."""
        return decode_records(self.read_bytes(pid))

    def read_bytes(self, pid):
        """Raw serialized bytes of partition ``pid`` (charges the reads)."""
        self._check(pid)
        device = self._devices[pid]
        return device.read_at(0, self._sizes[pid])

    def size_bytes(self, pid):
        """Serialized size of partition ``pid`` in bytes."""
        self._check(pid)
        return self._sizes[pid]

    def delete(self, pid):
        """Drop partition ``pid`` (after a merge)."""
        self._check(pid)
        device = self._devices.pop(pid)
        self._sizes.pop(pid)
        device.close()
        if self.directory is not None:
            path = self._path(pid)
            if os.path.exists(path):
                os.unlink(path)

    @property
    def partition_ids(self):
        """Sorted ids of the live partitions."""
        return sorted(self._devices)

    def close(self):
        """Release every partition device."""
        for device in self._devices.values():
            device.close()
        self._devices.clear()
        self._sizes.clear()

    # -- internals ----------------------------------------------------------
    def _new_device(self, pid):
        if self.directory is None:
            return MemoryBlockDevice(block_size=self.block_size,
                                     stats=self.stats)
        return FileBlockDevice(self._path(pid), "w+",
                               block_size=self.block_size, stats=self.stats)

    def _path(self, pid):
        return os.path.join(self.directory, "partition_%06d.bin" % pid)

    def _check(self, pid):
        if pid not in self._devices:
            raise StorageError("unknown partition id %r" % (pid,))
