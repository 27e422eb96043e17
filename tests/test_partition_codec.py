"""Tests for the shared partition payload codec."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.partition import PartitionStore
from repro.storage.partition_codec import (
    RECORD_OVERHEAD,
    decode_records,
    encode_records,
    record_words,
)

SAMPLE = [(3, [1, 2, 9]), (5, []), (7, [0, 3])]


class TestRecordCodec:
    def test_roundtrip(self):
        records = decode_records(encode_records(SAMPLE))
        assert [(node, list(nbrs)) for node, nbrs in records] == \
            [(node, list(nbrs)) for node, nbrs in SAMPLE]

    def test_empty_record_list(self):
        assert decode_records(encode_records([])) == []

    def test_empty_payload_rejected(self):
        with pytest.raises(StorageError):
            decode_records(b"")

    def test_truncated_payload_rejected(self):
        data = encode_records(SAMPLE)
        with pytest.raises(StorageError):
            decode_records(data[:8])

    def test_record_words(self):
        assert record_words(SAMPLE) == 5 + RECORD_OVERHEAD * 3


class TestCSRCodec:
    def to_csr(self, records):
        from repro.storage.partition_codec import encode_csr

        nodes = np.array([node for node, _ in records], dtype=np.int64)
        degrees = np.array([len(nbrs) for _, nbrs in records],
                           dtype=np.int64)
        indptr = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.array(
            [u for _, nbrs in records for u in nbrs], dtype=np.int64)
        return encode_csr(nodes, indptr, indices)

    def test_encoders_are_byte_identical(self):
        assert self.to_csr(SAMPLE) == encode_records(SAMPLE)

    def test_encoders_agree_on_empty(self):
        assert self.to_csr([]) == encode_records([])

    def test_decode_csr_matches_decode_records(self):
        from repro.storage.partition_codec import decode_csr

        data = encode_records(SAMPLE)
        nodes, indptr, indices = decode_csr(data)
        assert nodes.tolist() == [3, 5, 7]
        assert indptr.tolist() == [0, 3, 3, 5]
        assert indices.tolist() == [1, 2, 9, 0, 3]

    def test_decode_csr_rejects_bad_payloads(self):
        from repro.storage.partition_codec import decode_csr

        with pytest.raises(StorageError):
            decode_csr(b"")
        with pytest.raises(StorageError):
            decode_csr(encode_records(SAMPLE)[:8])

    def test_csr_roundtrip_through_store(self):
        """Bytes written via either path read back identically."""
        from repro.storage.partition_codec import decode_csr

        store = PartitionStore(block_size=64)
        pid_records, size_records = store.write(SAMPLE)
        pid_csr, size_csr = store.write_bytes(self.to_csr(SAMPLE))
        assert size_records == size_csr
        assert store.read_bytes(pid_records) == store.read_bytes(pid_csr)
        nodes, indptr, indices = decode_csr(store.read_bytes(pid_csr))
        assert nodes.tolist() == [3, 5, 7]
        records = store.read(pid_records)
        assert [int(n) for n, _ in records] == [3, 5, 7]
