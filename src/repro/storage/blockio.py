"""Block-level I/O devices with external-memory accounting.

The paper analyses algorithms in the external memory model of Aggarwal and
Vitter: memory holds a bounded number of blocks of size ``B``; a read I/O
loads one block from disk and a write I/O stores one block.  This module
provides byte-addressable devices that count I/Os in exactly those units.

Counting rules
--------------
* A read of the byte range ``[offset, offset + size)`` touches the blocks
  ``offset // B .. (offset + size - 1) // B``.  Each touched block costs one
  read I/O unless it is the block currently held in the device's one-block
  read cache.  After the read, the last touched block stays cached, so a
  sequential scan of ``N`` bytes costs exactly ``ceil(N / B)`` read I/Os
  regardless of how the scan is chopped into calls.
* A write of ``[offset, offset + size)`` costs one write I/O per touched
  block.  Writes invalidate an overlapping read cache.

Two backends share this accounting logic:

* :class:`MemoryBlockDevice` keeps data in a ``bytearray``.  Tests and
  property-based suites use it so the I/O *model* is exercised without
  filesystem noise.
* :class:`FileBlockDevice` stores data in a real file (used by benchmarks
  and examples).  Reads are served through the same one-block cache, which
  also keeps the syscall count reasonable for per-node access patterns.

Several devices may share one :class:`IOStats` instance; this is how a
graph's node table and edge table report a single combined I/O figure.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import StorageError

DEFAULT_BLOCK_SIZE = 4096

#: Up to this many spans :func:`read_spans` and :func:`charge_spans`
#: issue one read per span.  Their array path costs about 55 us a call
#: before its first span, a ``read_at`` about 3 us a span: the two
#: break even near 32 spans.
SPAN_LOOP_MAX = 32


class IOStats:
    """Mutable counters for block-level I/O.

    Attributes mirror what the paper reports: the number of read and write
    I/Os (in blocks) plus the raw byte counts for diagnostics.
    """

    __slots__ = ("read_ios", "write_ios", "bytes_read", "bytes_written")

    def __init__(self, read_ios=0, write_ios=0, bytes_read=0, bytes_written=0):
        self.read_ios = read_ios
        self.write_ios = write_ios
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written

    @property
    def total_ios(self):
        """Read plus write I/Os."""
        return self.read_ios + self.write_ios

    def reset(self):
        """Zero every counter in place."""
        self.read_ios = 0
        self.write_ios = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def snapshot(self):
        """Return an independent copy of the current counters."""
        return IOStats(
            self.read_ios, self.write_ios, self.bytes_read, self.bytes_written
        )

    def delta_since(self, snapshot):
        """Return counters accumulated since ``snapshot`` was taken."""
        return IOStats(
            self.read_ios - snapshot.read_ios,
            self.write_ios - snapshot.write_ios,
            self.bytes_read - snapshot.bytes_read,
            self.bytes_written - snapshot.bytes_written,
        )

    def __add__(self, other):
        if not isinstance(other, IOStats):
            return NotImplemented
        return IOStats(
            self.read_ios + other.read_ios,
            self.write_ios + other.write_ios,
            self.bytes_read + other.bytes_read,
            self.bytes_written + other.bytes_written,
        )

    def __sub__(self, other):
        if not isinstance(other, IOStats):
            return NotImplemented
        return IOStats(
            self.read_ios - other.read_ios,
            self.write_ios - other.write_ios,
            self.bytes_read - other.bytes_read,
            self.bytes_written - other.bytes_written,
        )

    def __eq__(self, other):
        if not isinstance(other, IOStats):
            return NotImplemented
        return (
            self.read_ios == other.read_ios
            and self.write_ios == other.write_ios
            and self.bytes_read == other.bytes_read
            and self.bytes_written == other.bytes_written
        )

    def __repr__(self):
        return (
            "IOStats(read_ios={}, write_ios={}, bytes_read={}, "
            "bytes_written={})".format(
                self.read_ios, self.write_ios, self.bytes_read, self.bytes_written
            )
        )


class BlockDevice:
    """Base class implementing the block accounting over a byte store.

    Subclasses provide ``_read_raw``/``_write_raw``/``_size_raw``.  The base
    class owns the one-block read cache and the I/O counters.
    """

    def __init__(self, block_size=DEFAULT_BLOCK_SIZE, stats=None):
        if block_size <= 0:
            raise ValueError("block_size must be positive, got %r" % (block_size,))
        self.block_size = block_size
        self.stats = stats if stats is not None else IOStats()
        self._cached_block = -1
        self._cached_data = b""
        self._closed = False

    # -- abstract backend hooks -------------------------------------------
    def _read_raw(self, offset, size):
        raise NotImplementedError

    def _write_raw(self, offset, data):
        raise NotImplementedError

    def _size_raw(self):
        raise NotImplementedError

    # -- public API ---------------------------------------------------------
    @property
    def size(self):
        """Current length of the device in bytes."""
        self._check_open()
        return self._size_raw()

    def read_at(self, offset, size):
        """Read ``size`` bytes starting at ``offset``, counting block I/Os."""
        self._check_open()
        if offset < 0 or size < 0:
            raise StorageError(
                "invalid read range offset=%d size=%d" % (offset, size)
            )
        if size == 0:
            return b""
        end = offset + size
        device_size = self._size_raw()
        if end > device_size:
            raise StorageError(
                "read past end of device: [%d, %d) but size is %d"
                % (offset, end, device_size)
            )
        block_size = self.block_size
        first = offset // block_size
        last = (end - 1) // block_size
        # Serve a read fully contained in the cached block without touching
        # the backend at all.
        if first == last == self._cached_block:
            lo = offset - first * block_size
            return self._cached_data[lo:lo + size]
        touched = last - first + 1
        if self._cached_block == first:
            touched -= 1
        self.stats.read_ios += touched
        self.stats.bytes_read += size
        # One backend read covers the caller's bytes and the whole last
        # block, which stays cached.
        tail = last * block_size
        low = min(offset, tail)
        data = self._read_raw(low, min(tail + block_size, device_size) - low)
        self._cached_block = last
        self._cached_data = data[tail - low:]
        return data[offset - low:end - low]

    def read_spans(self, starts, counts, dtype, *, charge=True):
        """:func:`read_spans` on this device alone."""
        return read_spans([self], None, starts, counts, dtype,
                          charge=charge)

    def write_at(self, offset, data):
        """Write ``data`` at ``offset``, counting one write I/O per block."""
        self._check_open()
        if offset < 0:
            raise StorageError("invalid write offset %d" % offset)
        if not data:
            return
        end = offset + len(data)
        block_size = self.block_size
        first = offset // block_size
        last = (end - 1) // block_size
        self.stats.write_ios += last - first + 1
        self.stats.bytes_written += len(data)
        if first <= self._cached_block <= last:
            self._cached_block = -1
            self._cached_data = b""
        self._write_raw(offset, bytes(data))

    def append(self, data):
        """Write ``data`` at the current end of the device."""
        self.write_at(self.size, data)

    def drop_cache(self):
        """Forget the cached block (next read of it is charged again)."""
        self._cached_block = -1
        self._cached_data = b""

    def close(self):
        """Release backend resources; further access raises StorageError."""
        self._closed = True
        self.drop_cache()

    @property
    def closed(self):
        """True once :meth:`close` has been called."""
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- internals ----------------------------------------------------------
    def _cache_block(self, block_index):
        start = block_index * self.block_size
        stop = min(start + self.block_size, self._size_raw())
        if stop <= start:
            self.drop_cache()
            return
        self._cached_block = block_index
        self._cached_data = self._read_raw(start, stop - start)

    def _check_open(self):
        if self._closed:
            raise StorageError("device is closed")


def read_spans(devices, owners, starts, counts, dtype, *, charge=True):
    """Read spans of ``dtype`` entries, charged as one ``read_at`` per
    span.

    Span ``i`` holds ``counts[i]`` entries from byte ``starts[i]`` of
    ``devices[owners[i]]`` (of ``devices[0]`` when ``owners`` is None).
    The devices are :class:`BlockDevice` objects of one block size.
    Spans are sorted by owner; one owner's spans ascend, do not overlap
    and lie a whole number of entries apart.  The read I/Os, bytes and
    the cached block left behind are exactly those of calling
    ``read_at(start, size)`` span by span.  ``charge=False`` counts
    nothing and leaves the caches alone: a look-ahead read for a caller
    that charges the spans later (:func:`charge_spans`), in the order
    the reference reads in.  Returns the entries of every span,
    concatenated, as an array of ``dtype``.

    Up to :data:`SPAN_LOOP_MAX` spans are read one by one.  More are
    charged in a few array operations -- the block cached before a span
    is the previous span's last one -- and spans of one device less
    than a block apart share one backend read.  Charged, each device's
    last such read also covers the whole of its last block, which stays
    cached.
    """
    dtype = np.dtype(dtype)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(counts, dtype=np.int64) * dtype.itemsize
    _check_devices(devices)
    if starts.size <= SPAN_LOOP_MAX:
        return np.frombuffer(b"".join(_read_each(
            devices, owners, starts, sizes, charge)), dtype=dtype)
    if owners is not None:
        owners = np.asarray(owners, dtype=np.int64)
    if not sizes.all():
        keep = sizes > 0
        starts, sizes = starts[keep], sizes[keep]
        if owners is not None:
            owners = owners[keep]
    total = starts.size
    if not total:
        return np.zeros(0, dtype=dtype)
    heads, used, ends, gaps = _span_layout(devices, owners, starts, sizes)
    if charge:
        _charge(used, heads, starts, sizes, ends)
    # One backend read per run of one device's close spans; the
    # entries are picked from the joined reads, which keep the gaps
    # inside runs.
    block_size = used[0].block_size
    apart = gaps >= block_size
    apart[[head - 1 for head in heads[1:]]] = True
    gaps[apart] = 0
    runs = [0] + (np.flatnonzero(apart) + 1).tolist()
    stops = runs[1:] + [total]
    run_ends = ends[np.array(stops) - 1].tolist()
    device_of = dict(zip(heads, used))
    parts = []
    device = used[0]
    for base, top, run, stop in zip(starts[runs].tolist(), run_ends, runs,
                                    stops):
        device = device_of.get(run, device)
        if not charge or (stop < total and stop not in device_of):
            parts.append(device._read_raw(base, top - base))
            continue
        # A device's last run reads on to the end of its last block,
        # which stays cached, as ``read_at`` leaves it.
        tail = (top - 1) // block_size * block_size
        low = min(base, tail)
        raw = device._read_raw(
            low, min(tail + block_size, device._size_raw()) - low)
        parts.append(memoryview(raw)[base - low:top - low])
        device._cached_block = tail // block_size
        device._cached_data = raw[tail - low:]
    data = np.frombuffer(b"".join(parts), dtype=dtype)
    if gaps.any():
        skip = np.zeros(total, dtype=np.int64)
        np.cumsum(gaps // dtype.itemsize, out=skip[1:])
        data = data[np.arange(data.size - int(skip[-1]))
                    + np.repeat(skip, sizes // dtype.itemsize)]
    return data


def charge_spans(device, starts, sizes):
    """Charge ``device`` for byte spans as :func:`read_spans` would,
    for a caller that holds their bytes already.

    Up to :data:`SPAN_LOOP_MAX` spans are simply read again; the
    charges of more are computed without reading them.
    """
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    _check_devices([device])
    if starts.size <= SPAN_LOOP_MAX:
        _read_each([device], None, starts, sizes, True)
        return
    keep = sizes > 0
    starts, sizes = starts[keep], sizes[keep]
    if not starts.size:
        return
    heads, used, ends, _ = _span_layout([device], None, starts, sizes)
    _charge(used, heads, starts, sizes, ends)
    device._cache_block(int(ends[-1] - 1) // device.block_size)


def _check_devices(devices):
    for device in devices:
        if not isinstance(device, BlockDevice):
            # A proxy (the fault injector) brings its own read_spans.
            raise StorageError("span reads need BlockDevices, got %r"
                               % (device,))


def _read_each(devices, owners, starts, sizes, charge):
    """The bytes of each span, read with its own ``read_at`` (or,
    uncharged, its own backend read)."""
    which = ([0] * starts.size if owners is None
             else np.asarray(owners).tolist())
    done = {}
    parts = []
    for k, start, size in zip(which, starts.tolist(), sizes.tolist()):
        if not size:
            continue
        device = devices[k]
        if start < done.get(k, 0):
            raise StorageError("one device's read spans must ascend and "
                               "not overlap")
        done[k] = start + size
        if charge:
            parts.append(device.read_at(start, size))
            continue
        device._check_open()
        if start + size > device._size_raw():
            raise StorageError("read spans must lie inside the device")
        parts.append(device._read_raw(start, size))
    return parts


def _span_layout(devices, owners, starts, sizes):
    """Check a span request; return each device's first span, the
    devices in request order, the span ends and the gaps between
    spans (0 where the device changes)."""
    total = starts.size
    if owners is None:
        heads = [0]
        used = [devices[0]]
    else:
        heads = [0] + (np.flatnonzero(owners[1:] != owners[:-1])
                       + 1).tolist()
        used = [devices[k] for k in owners[heads].tolist()]
    ends = starts + sizes
    gaps = starts[1:] - ends[:-1]
    tails = [head - 1 for head in heads[1:]] + [total - 1]
    for device, low, top in zip(used, starts[heads].tolist(),
                                ends[tails].tolist()):
        device._check_open()
        if device.block_size != used[0].block_size or low < 0 or \
                top > device._size_raw():
            raise StorageError(
                "read spans must lie inside devices of one block size")
    gaps[tails[:-1]] = 0
    if total > 1 and gaps.min() < 0:
        raise StorageError("one device's read spans must ascend and "
                           "not overlap")
    return heads, used, ends, gaps


def _charge(used, heads, starts, sizes, ends):
    """Charge each device as one ``read_at`` per span; the caller
    leaves each device's last block cached.

    A span inside the cached block is free; any other span costs the
    blocks it touches less the cached one plus its size in bytes, and
    leaves its last block cached.
    """
    block_size = used[0].block_size
    first = starts // block_size
    last = (ends - 1) // block_size
    cached = np.empty(starts.size, dtype=np.int64)
    cached[1:] = last[:-1]
    cached[heads] = [device._cached_block for device in used]
    hit = first == cached
    # A free span (inside the cached block) adds 0 - 0 + 1 - 1.
    ios = last - first + 1 - hit
    read = np.where(hit & (first == last), 0, sizes)
    if len(heads) == 1:
        ios, read = [int(ios.sum())], [int(read.sum())]
    else:
        ios = np.add.reduceat(ios, heads).tolist()
        read = np.add.reduceat(read, heads).tolist()
    for device, n_ios, n_bytes in zip(used, ios, read):
        device.stats.read_ios += n_ios
        device.stats.bytes_read += n_bytes


class MemoryBlockDevice(BlockDevice):
    """A block device backed by an in-memory ``bytearray``."""

    def __init__(self, data=b"", block_size=DEFAULT_BLOCK_SIZE, stats=None):
        super().__init__(block_size=block_size, stats=stats)
        self._data = bytearray(data)

    def _read_raw(self, offset, size):
        return bytes(self._data[offset:offset + size])

    def _write_raw(self, offset, data):
        end = offset + len(data)
        if end > len(self._data):
            self._data.extend(b"\x00" * (end - len(self._data)))
        self._data[offset:end] = data

    def _size_raw(self):
        return len(self._data)

    def getvalue(self):
        """Return the full backing buffer (test helper; not I/O counted)."""
        return bytes(self._data)


class FileBlockDevice(BlockDevice):
    """A block device backed by a file on disk.

    Parameters
    ----------
    path:
        Filesystem path of the backing file.
    mode:
        ``"r"`` opens read-only, ``"r+"`` read-write (file must exist),
        ``"w+"`` creates or truncates.
    """

    def __init__(self, path, mode="r", block_size=DEFAULT_BLOCK_SIZE, stats=None):
        super().__init__(block_size=block_size, stats=stats)
        if mode not in ("r", "r+", "w+"):
            raise ValueError("mode must be one of 'r', 'r+', 'w+', got %r" % mode)
        self.path = os.fspath(path)
        self.mode = mode
        flags = {
            "r": os.O_RDONLY,
            "r+": os.O_RDWR,
            "w+": os.O_RDWR | os.O_CREAT | os.O_TRUNC,
        }[mode]
        self._fd = os.open(self.path, flags)
        self._file_size = os.fstat(self._fd).st_size

    def _read_raw(self, offset, size):
        data = os.pread(self._fd, size, offset)
        if len(data) != size:
            raise StorageError(
                "short read from %s: wanted %d bytes at %d, got %d"
                % (self.path, size, offset, len(data))
            )
        return data

    def _write_raw(self, offset, data):
        if self.mode == "r":
            raise StorageError("device %s is read-only" % self.path)
        written = os.pwrite(self._fd, data, offset)
        if written != len(data):
            raise StorageError("short write to %s" % self.path)
        self._file_size = max(self._file_size, offset + len(data))

    def _size_raw(self):
        return self._file_size

    def close(self):
        """Close the backing file descriptor."""
        if not self._closed:
            os.close(self._fd)
        super().close()
