"""Unit tests for the EMCore partition store."""

from array import array

import pytest

from repro.errors import StorageError
from repro.storage.blockio import IOStats
from repro.storage.partition import PartitionStore
from repro.storage.partition_codec import decode_records, encode_records


def records_equal(a, b):
    return [(v, list(nbrs)) for v, nbrs in a] == \
           [(v, list(nbrs)) for v, nbrs in b]


class TestSerialization:
    def test_roundtrip(self):
        records = [(3, array("I", [1, 2])), (7, array("I", []))]
        assert records_equal(decode_records(encode_records(records)), records)

    def test_empty_record_list(self):
        assert decode_records(encode_records([])) == []

    def test_truncated_payload_rejected(self):
        data = encode_records([(1, [2, 3])])
        with pytest.raises(StorageError):
            decode_records(data[:8])

    def test_empty_payload_rejected(self):
        with pytest.raises(StorageError):
            decode_records(b"")


class TestStore:
    def test_write_read_roundtrip(self):
        store = PartitionStore(block_size=64)
        records = [(0, [1, 2, 3]), (1, [0]), (2, [0])]
        pid, size = store.write(records)
        assert size == store.size_bytes(pid)
        assert records_equal(store.read(pid), records)

    def test_multiple_partitions(self):
        store = PartitionStore(block_size=64)
        p1, _ = store.write([(0, [1])])
        p2, _ = store.write([(5, [6, 7])])
        assert store.partition_ids == [p1, p2]
        assert records_equal(store.read(p2), [(5, [6, 7])])

    def test_rewrite_shrinks(self):
        store = PartitionStore(block_size=64)
        pid, size_before = store.write([(0, list(range(50)))])
        size_after = store.rewrite(pid, [(0, [1])])
        assert size_after < size_before
        assert records_equal(store.read(pid), [(0, [1])])

    def test_delete(self):
        store = PartitionStore(block_size=64)
        pid, _ = store.write([(0, [1])])
        store.delete(pid)
        assert store.partition_ids == []
        with pytest.raises(StorageError):
            store.read(pid)

    def test_unknown_pid(self):
        store = PartitionStore(block_size=64)
        with pytest.raises(StorageError):
            store.read(99)

    def test_io_accounting(self):
        stats = IOStats()
        store = PartitionStore(block_size=64, stats=stats)
        pid, _ = store.write([(0, list(range(100)))])
        assert stats.write_ios > 0
        writes = stats.write_ios
        store.read(pid)
        assert stats.read_ios > 0
        assert stats.write_ios == writes

    def test_file_backend(self, tmp_path):
        store = PartitionStore(block_size=64, directory=str(tmp_path))
        pid, _ = store.write([(0, [1, 2])])
        assert (tmp_path / ("partition_%06d.bin" % pid)).exists()
        assert records_equal(store.read(pid), [(0, [1, 2])])
        store.delete(pid)
        assert not (tmp_path / ("partition_%06d.bin" % pid)).exists()

    def test_close(self):
        store = PartitionStore(block_size=64)
        store.write([(0, [1])])
        store.close()
        assert store.partition_ids == []
