"""Unit tests for the block I/O devices and their accounting model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.blockio import (
    SPAN_LOOP_MAX,
    FileBlockDevice,
    IOStats,
    MemoryBlockDevice,
    charge_spans,
    read_spans,
)


class TestIOStats:
    def test_initial_zero(self):
        stats = IOStats()
        assert stats.read_ios == 0
        assert stats.write_ios == 0
        assert stats.total_ios == 0

    def test_snapshot_is_independent(self):
        stats = IOStats(read_ios=3)
        snap = stats.snapshot()
        stats.read_ios += 5
        assert snap.read_ios == 3
        assert stats.read_ios == 8

    def test_delta_since(self):
        stats = IOStats()
        snap = stats.snapshot()
        stats.read_ios += 4
        stats.write_ios += 2
        delta = stats.delta_since(snap)
        assert delta.read_ios == 4
        assert delta.write_ios == 2

    def test_addition_and_subtraction(self):
        a = IOStats(1, 2, 3, 4)
        b = IOStats(10, 20, 30, 40)
        total = a + b
        assert total == IOStats(11, 22, 33, 44)
        assert total - b == a

    def test_reset(self):
        stats = IOStats(5, 5, 5, 5)
        stats.reset()
        assert stats == IOStats()

    def test_repr_mentions_counts(self):
        assert "read_ios=7" in repr(IOStats(read_ios=7))


class TestMemoryBlockDevice:
    def test_roundtrip(self):
        dev = MemoryBlockDevice(block_size=16)
        dev.write_at(0, b"hello world")
        assert dev.read_at(0, 11) == b"hello world"

    def test_write_extends_device(self):
        dev = MemoryBlockDevice(block_size=8)
        dev.write_at(20, b"xy")
        assert dev.size == 22
        assert dev.read_at(18, 4) == b"\x00\x00xy"

    def test_append(self):
        dev = MemoryBlockDevice(block_size=8)
        dev.append(b"abc")
        dev.append(b"def")
        assert dev.read_at(0, 6) == b"abcdef"

    def test_read_past_end_raises(self):
        dev = MemoryBlockDevice(b"abcd", block_size=4)
        with pytest.raises(StorageError):
            dev.read_at(2, 10)

    def test_negative_offset_raises(self):
        dev = MemoryBlockDevice(b"abcd", block_size=4)
        with pytest.raises(StorageError):
            dev.read_at(-1, 2)
        with pytest.raises(StorageError):
            dev.write_at(-1, b"x")

    def test_zero_length_read_free(self):
        dev = MemoryBlockDevice(b"abcd", block_size=4)
        assert dev.read_at(0, 0) == b""
        assert dev.stats.read_ios == 0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            MemoryBlockDevice(block_size=0)

    def test_closed_device_rejects_access(self):
        dev = MemoryBlockDevice(b"abcd", block_size=4)
        dev.close()
        with pytest.raises(StorageError):
            dev.read_at(0, 1)

    def test_context_manager_closes(self):
        with MemoryBlockDevice(b"abcd", block_size=4) as dev:
            assert dev.read_at(0, 1) == b"a"
        assert dev.closed


class TestReadAccounting:
    def test_single_block_read_costs_one(self):
        dev = MemoryBlockDevice(bytes(64), block_size=16)
        dev.read_at(0, 10)
        assert dev.stats.read_ios == 1

    def test_read_spanning_blocks_costs_each_block(self):
        dev = MemoryBlockDevice(bytes(64), block_size=16)
        dev.read_at(8, 20)  # touches blocks 0 and 1
        assert dev.stats.read_ios == 2

    def test_sequential_scan_costs_ceil_bytes_over_block(self):
        dev = MemoryBlockDevice(bytes(1000), block_size=64)
        for offset in range(0, 1000, 10):
            dev.read_at(offset, min(10, 1000 - offset))
        # ceil(1000 / 64) == 16 regardless of the 100 calls
        assert dev.stats.read_ios == 16

    def test_repeated_read_same_block_cached(self):
        dev = MemoryBlockDevice(bytes(64), block_size=16)
        dev.read_at(0, 8)
        dev.read_at(4, 8)
        dev.read_at(0, 16)
        assert dev.stats.read_ios == 1

    def test_random_access_charges_again(self):
        dev = MemoryBlockDevice(bytes(160), block_size=16)
        dev.read_at(0, 8)
        dev.read_at(128, 8)
        dev.read_at(0, 8)  # block 0 no longer cached
        assert dev.stats.read_ios == 3

    def test_cached_block_is_last_of_span(self):
        dev = MemoryBlockDevice(bytes(64), block_size=16)
        dev.read_at(0, 48)   # blocks 0..2, caches block 2
        dev.read_at(32, 8)   # block 2, free
        assert dev.stats.read_ios == 3

    def test_drop_cache_charges_next_read(self):
        dev = MemoryBlockDevice(bytes(32), block_size=16)
        dev.read_at(0, 8)
        dev.drop_cache()
        dev.read_at(0, 8)
        assert dev.stats.read_ios == 2

    def test_bytes_read_accumulate(self):
        dev = MemoryBlockDevice(bytes(64), block_size=16)
        dev.read_at(0, 10)
        dev.read_at(16, 6)  # different block: transferred from the backend
        assert dev.stats.bytes_read == 16

    def test_cache_hits_transfer_no_bytes(self):
        dev = MemoryBlockDevice(bytes(64), block_size=16)
        dev.read_at(0, 10)
        dev.read_at(10, 6)  # inside the cached block
        assert dev.stats.bytes_read == 10


class CountingDevice(MemoryBlockDevice):
    """A memory device that records every backend read it serves."""

    def __init__(self, data, block_size):
        super().__init__(data, block_size=block_size)
        self.raw_reads = []

    def _read_raw(self, offset, size):
        self.raw_reads.append((offset, size))
        return super()._read_raw(offset, size)


class TestReadOnce:
    """A ``read_at`` miss is one backend read that covers the caller's
    bytes and the whole last block, which it keeps cached."""

    @pytest.mark.parametrize("size, offset, length, raw, cached", [
        (64, 5, 6, (0, 16), 0),      # mid-block start, one block
        (64, 8, 20, (8, 24), 1),     # a span over two blocks
        (64, 16, 32, (16, 32), 2),   # a span ending on a block boundary
        (50, 45, 4, (45, 5), 3),     # the device end clips the last block
        (50, 49, 1, (48, 2), 3),     # a clipped block read on its own
    ])
    def test_one_backend_read_per_miss(self, size, offset, length, raw,
                                       cached):
        data = bytes(range(size))
        dev = CountingDevice(data, block_size=16)
        assert dev.read_at(offset, length) == data[offset:offset + length]
        assert dev.raw_reads == [raw]
        first, last = offset // 16, (offset + length - 1) // 16
        assert dev.stats == IOStats(read_ios=last - first + 1,
                                    bytes_read=length)
        # The cached block is whole: any read inside it is free.
        block = data[cached * 16:(cached + 1) * 16]
        assert dev.read_at(cached * 16, len(block)) == block
        assert dev.raw_reads == [raw]
        assert dev.stats.read_ios == last - first + 1

    def test_charges_follow_the_model(self):
        """Random reads: one backend read per miss, none per hit, the
        right bytes, and the charges of the one-block cache model."""
        rng = random.Random(11)
        for block_size in (4, 16, 64):
            size = rng.randint(1, 300)
            data = bytes(rng.randrange(256) for _ in range(size))
            dev = CountingDevice(data, block_size)
            cached, expected = -1, IOStats()
            for _ in range(200):
                offset = rng.randrange(size)
                length = rng.randint(1, min(size - offset, 3 * block_size))
                first = offset // block_size
                last = (offset + length - 1) // block_size
                before = len(dev.raw_reads)
                assert dev.read_at(offset, length) == \
                    data[offset:offset + length]
                if first == last == cached:
                    assert len(dev.raw_reads) == before
                else:
                    assert len(dev.raw_reads) == before + 1
                    expected.read_ios += last - first + 1 - (first == cached)
                    expected.bytes_read += length
                    cached = last
                assert dev.stats == expected


class TestWriteAccounting:
    def test_write_costs_one_per_block(self):
        dev = MemoryBlockDevice(block_size=16)
        dev.write_at(0, bytes(40))  # blocks 0..2
        assert dev.stats.write_ios == 3

    def test_write_invalidates_overlapping_cache(self):
        dev = MemoryBlockDevice(bytes(32), block_size=16)
        assert dev.read_at(0, 4) == b"\x00" * 4
        dev.write_at(2, b"zz")
        assert dev.read_at(0, 4) == b"\x00\x00zz"
        # cache was invalidated, so the re-read was charged
        assert dev.stats.read_ios == 2

    def test_empty_write_free(self):
        dev = MemoryBlockDevice(block_size=16)
        dev.write_at(0, b"")
        assert dev.stats.write_ios == 0


class TestSharedStats:
    def test_two_devices_share_stats(self):
        stats = IOStats()
        a = MemoryBlockDevice(bytes(32), block_size=16, stats=stats)
        b = MemoryBlockDevice(bytes(32), block_size=16, stats=stats)
        a.read_at(0, 8)
        b.read_at(0, 8)
        assert stats.read_ios == 2


class TestFileBlockDevice:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "dev.bin"
        dev = FileBlockDevice(path, "w+", block_size=16)
        dev.write_at(0, b"file backed data")
        assert dev.read_at(5, 6) == b"backed"
        dev.close()

    def test_reopen_readonly(self, tmp_path):
        path = tmp_path / "dev.bin"
        with FileBlockDevice(path, "w+", block_size=16) as dev:
            dev.write_at(0, b"persisted")
        with FileBlockDevice(path, "r", block_size=16) as dev:
            assert dev.read_at(0, 9) == b"persisted"
            with pytest.raises(StorageError):
                dev.write_at(0, b"nope")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            FileBlockDevice(tmp_path / "absent.bin", "r")

    def test_invalid_mode(self, tmp_path):
        with pytest.raises(ValueError):
            FileBlockDevice(tmp_path / "x.bin", "a+")

    def test_accounting_matches_memory_device(self, tmp_path):
        mem = MemoryBlockDevice(bytes(256), block_size=32)
        fil = FileBlockDevice(tmp_path / "d.bin", "w+", block_size=32)
        fil.write_at(0, bytes(256))
        fil.stats.reset()
        for offset, size in ((0, 10), (30, 10), (100, 50), (0, 5)):
            mem.read_at(offset, size)
            fil.read_at(offset, size)
        assert mem.stats.read_ios == fil.stats.read_ios
        fil.close()

    def test_size_tracks_writes(self, tmp_path):
        dev = FileBlockDevice(tmp_path / "d.bin", "w+", block_size=16)
        assert dev.size == 0
        dev.write_at(100, b"x")
        assert dev.size == 101
        dev.close()


def _span_requests(draw_random, num_devices, size, entry):
    """Random read_spans requests: per device, ascending disjoint spans
    a whole number of entries apart (empty spans included)."""
    owners, starts, counts = [], [], []
    for k in range(num_devices):
        cursor = draw_random.randrange(0, 3) * entry
        while cursor < size:
            count = min(draw_random.choice([0, 0, 1, 1, 2, 3, 9]),
                        (size - cursor) // entry)
            owners.append(k)
            starts.append(cursor)
            counts.append(count)
            cursor += (count + draw_random.choice([0, 0, 1, 2, 40])) * entry
    return owners, starts, counts


class TestReadSpans:
    """``read_spans`` charges exactly one ``read_at`` per span in order,
    whatever the block size, run structure or device mix."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([6, 16, 64, 4096]),
           st.integers(min_value=1, max_value=3),
           st.sampled_from([4, 12]),
           st.booleans())
    def test_charges_equal_point_reads(self, seed, block_size, num_devices,
                                       entry, warm):
        rnd = random.Random(seed)
        # Up to ~90 spans per device.
        size = 24 * entry * rnd.randint(1, 40)
        payloads = [rnd.randbytes(size) for _ in range(num_devices)]
        owners, starts, counts = _span_requests(rnd, num_devices, size,
                                                entry)
        warm_at = [rnd.randrange(size) for _ in payloads]
        runs = {}
        for how in ("spans", "point"):
            stats = IOStats()
            devices = [MemoryBlockDevice(data, block_size=block_size,
                                         stats=stats) for data in payloads]
            if warm:  # leave a block cached before the request
                for device, offset in zip(devices, warm_at):
                    device.read_at(offset, 1)
            stats.reset()
            if how == "spans":
                data = read_spans(devices, owners, starts, counts,
                                  "<u4" if entry == 4 else "V12").tobytes()
            else:
                data = b"".join(devices[k].read_at(s, c * entry)
                                for k, s, c in zip(owners, starts, counts))
            runs[how] = (data, stats, [d._cached_block for d in devices],
                         [d._cached_data for d in devices])
        assert runs["spans"] == runs["point"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([6, 64, 4096]), st.booleans())
    def test_charging_without_reading_equals_point_reads(self, seed,
                                                         block_size, warm):
        rnd = random.Random(seed)
        size = 96 * rnd.randint(1, 40)
        _, starts, counts = _span_requests(rnd, 1, size, 4)
        sizes = [4 * count for count in counts]
        warm_at = rnd.randrange(size)
        runs = []
        for charge in (charge_spans, None):
            stats = IOStats()
            device = MemoryBlockDevice(bytes(size), block_size=block_size,
                                       stats=stats)
            if warm:
                device.read_at(warm_at, 1)
            stats.reset()
            if charge is None:
                for start, length in zip(starts, sizes):
                    device.read_at(start, length)
            else:
                charge(device, starts, sizes)
            runs.append((stats, device._cached_block))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("base", [0, 2])  # 2: last span mid-block
    @pytest.mark.parametrize("stride, backend_reads", [
        (64, 40),  # 40 spans 4 blocks apart: one read per span
        (12, 1),   # 40 spans inside one run: one read in all
    ])
    def test_array_path_reads_each_block_once(self, base, stride,
                                              backend_reads):
        """The run reads also fetch the block left cached; no second
        backend read refetches it, and the charges, bytes and cached
        block are those of point reads."""
        payload = bytes(range(256)) * 16
        starts = [base + stride * i for i in range(40)]
        runs = []
        for how in ("spans", "point"):
            device = CountingDevice(payload, block_size=16)
            if how == "spans":
                data = device.read_spans(starts, [3] * 40, "<u4").tobytes()
                assert len(device.raw_reads) == backend_reads
            else:
                data = b"".join(device.read_at(s, 12) for s in starts)
            runs.append((data, device.stats, device._cached_block,
                         device._cached_data))
        assert runs[0] == runs[1]

    def test_uncharged_reads_leave_stats_and_cache_alone(self):
        stats = IOStats()
        payload = bytes(range(256)) * 64
        device = MemoryBlockDevice(payload, block_size=64, stats=stats)
        device.read_at(100, 4)
        cached = device._cached_block
        starts = list(range(0, 16384, 40 * 4))
        data = device.read_spans(starts, [3] * len(starts), "<u4",
                                 charge=False)
        assert stats.read_ios == 1 and stats.bytes_read == 4
        assert device._cached_block == cached
        assert data.tobytes() == b"".join(payload[s:s + 12] for s in starts)

    @pytest.mark.parametrize("charge", [True, False])
    def test_many_empty_spans_read_nothing(self, charge):
        """Past the loop cutoff, a request whose spans are all empty
        returns an empty array of its dtype and charges nothing, as the
        loop path does."""
        stats = IOStats()
        device = MemoryBlockDevice(bytes(4096), block_size=64, stats=stats)
        device.read_at(100, 4)
        stats.reset()
        spans = SPAN_LOOP_MAX + 8
        data = device.read_spans([8 * i for i in range(spans)], [0] * spans,
                                 "<u4", charge=charge)
        assert data.dtype.str == "<u4" and data.size == 0
        assert stats == IOStats() and device._cached_block == 1

    def test_overlapping_spans_rejected(self):
        device = MemoryBlockDevice(bytes(4096))
        with pytest.raises(StorageError):
            device.read_spans(list(range(0, 400, 8)), [3] * 50, "<u4")
        with pytest.raises(StorageError):
            device.read_spans([4090], [2], "<u4", charge=False)

    @pytest.mark.parametrize("spans", [0, 1, 2, SPAN_LOOP_MAX,
                                       SPAN_LOOP_MAX + 1, 90])
    def test_both_sides_of_the_loop_cutoff(self, spans):
        """Read one by one or in arrays, spans charge what ``read_at``
        per span charges; uncharged, they charge nothing; overlapping,
        they are refused."""
        payload = bytes(range(256)) * 16
        starts = [40 * i for i in range(spans)]
        runs = []
        for how in ("spans", "point", "uncharged"):
            stats = IOStats()
            device = MemoryBlockDevice(payload, block_size=64, stats=stats)
            device.read_at(100, 4)
            if how == "point":
                data = b"".join(device.read_at(s, 12) for s in starts)
            else:
                data = device.read_spans(starts, [3] * spans, "<u4",
                                         charge=how == "spans").tobytes()
            runs.append((data, stats.snapshot(), device._cached_block))
        assert runs[0] == runs[1]
        assert runs[2][0] == runs[0][0]
        assert runs[2][1:] == (IOStats(read_ios=1, bytes_read=4), 1)
        if spans > 1:
            with pytest.raises(StorageError):
                device.read_spans(starts, [11] * spans, "<u4")
