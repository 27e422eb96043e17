"""Shared codec for EMCore partition payloads.

A partition serializes its records as little more than a flat ``u32``
word stream::

    record_count: u32
    repeated: node id u32, degree u32, neighbour ids u32...

Both execution engines materialize partitions through this module so
there is exactly one partition-decode code path:

* the reference engine uses :func:`decode_records` /
  :func:`encode_records` -- per-record Python objects whose neighbour
  payloads stay ``array('I')`` slices (never per-edge Python lists);
* the numpy engine uses :func:`decode_csr` / :func:`encode_csr` --
  zero-copy ``np.frombuffer`` views sliced into CSR ``(nodes, indptr,
  indices)`` triples.  Only the record *headers* are walked in Python
  (they form a degree-linked chain); the neighbour payload itself is
  gathered with one vectorized index expression.

The two representations are byte-identical on encode: the parity suite
relies on both engines issuing the same ``write_at`` payloads so their
write-I/O figures agree block for block.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import StorageError

#: u32 words of per-record overhead (node id + degree).
RECORD_OVERHEAD = 2


def encode_records(records):
    """Serialize ``[(node, neighbours), ...]`` into partition bytes."""
    payload = array("I", [len(records)])
    for node, neighbours in records:
        payload.append(node)
        payload.append(len(neighbours))
        payload.extend(neighbours)
    return payload.tobytes()


def decode_records(data):
    """Inverse of :func:`encode_records`.

    Neighbour payloads are returned as ``array('I')`` slices of the
    decoded word buffer -- no per-edge Python objects are created.
    """
    values = array("I")
    values.frombytes(data)
    if not len(values):
        raise StorageError("empty partition payload")
    count = values[0]
    records = []
    cursor = 1
    for _ in range(count):
        if cursor + 2 > len(values):
            raise StorageError("truncated partition payload")
        node = values[cursor]
        degree = values[cursor + 1]
        cursor += 2
        records.append((node, values[cursor:cursor + degree]))
        cursor += degree
    return records


def record_words(records):
    """Total serialized size of ``records`` in u32 words (sans count)."""
    return sum(len(nbrs) + RECORD_OVERHEAD for _, nbrs in records)


# ----------------------------------------------------------------------
# numpy CSR views (zero-copy decode, vectorized encode)
# ----------------------------------------------------------------------

def decode_csr(data):
    """Decode partition bytes into ``(nodes, indptr, indices)`` arrays.

    ``nodes`` and ``indptr`` are int64, ``indices`` holds the global
    neighbour ids as int64 (gathered straight from the ``np.frombuffer``
    word view).  Only the record headers are visited in Python; the
    header chain is sequential by construction (each header's position
    depends on the previous record's degree).
    """
    words = np.frombuffer(data, dtype=np.uint32)
    if words.size == 0:
        raise StorageError("empty partition payload")
    count = int(words[0])
    nodes = np.empty(count, dtype=np.int64)
    degrees = np.empty(count, dtype=np.int64)
    headers = np.empty(count, dtype=np.int64)
    cursor = 1
    for i in range(count):
        if cursor + 2 > words.size:
            raise StorageError("truncated partition payload")
        headers[i] = cursor
        nodes[i] = words[cursor]
        degree = int(words[cursor + 1])
        degrees[i] = degree
        cursor += 2 + degree
    indptr = np.zeros(count + 1, dtype=np.int64)
    if count:
        np.cumsum(degrees, out=indptr[1:])
    total = int(indptr[-1])
    if total:
        positions = np.arange(total, dtype=np.int64) + \
            np.repeat(headers + 2 - indptr[:-1], degrees)
        indices = words[positions].astype(np.int64)
    else:
        indices = np.zeros(0, dtype=np.int64)
    return nodes, indptr, indices


def encode_csr(nodes, indptr, indices):
    """Serialize a CSR triple into partition bytes.

    Produces exactly the bytes :func:`encode_records` would produce for
    the equivalent record list, so the two engines issue identical
    partition writes.
    """
    count = len(nodes)
    degrees = np.diff(indptr)
    total_arcs = int(indptr[-1]) if count else 0
    out = np.empty(1 + RECORD_OVERHEAD * count + total_arcs, dtype=np.uint32)
    out[0] = count
    if count:
        headers = 1 + RECORD_OVERHEAD * np.arange(count, dtype=np.int64) + \
            indptr[:-1]
        out[headers] = nodes
        out[headers + 1] = degrees
        if total_arcs:
            positions = np.arange(total_arcs, dtype=np.int64) + \
                np.repeat(headers + 2 - indptr[:-1], degrees)
            out[positions] = indices
    return out.tobytes()
