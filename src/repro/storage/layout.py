"""Binary layout of the on-disk graph tables.

The paper stores a graph as two tables (Section II, "Graph Storage"):

* a *node table* holding, for each node ``v`` in id order, the offset of
  ``nbr(v)`` in the edge table together with ``deg(v)``; and
* an *edge table* holding ``nbr(v_1), nbr(v_2), ...`` consecutively as
  adjacency lists.

This module defines the byte-level format shared by every backend:

``node table``
    64-byte header, then one 12-byte entry per node:
    ``offset`` (u64, *in edge entries*, not bytes) + ``degree`` (u32).

``edge table``
    64-byte header, then one u32 neighbour id per adjacency entry.

Headers are validated on open so that truncated or foreign files fail fast
with :class:`~repro.errors.CorruptStorageError`.
"""

from __future__ import annotations

import struct

from repro.errors import CorruptStorageError

MAGIC = b"RPRCORE1"
FORMAT_VERSION = 1

TABLE_NODE = 1
TABLE_EDGE = 2
#: Per-shard boundary table (see :mod:`repro.storage.shards`): the
#: sorted global ids behind a shard's halo rows, one u32 per entry.
TABLE_BOUNDARY = 3
#: Per-shard reverse boundary table: for each halo row, the owned rows
#: whose adjacency holds it (a node-table index, then u32 local ids).
TABLE_REVERSE = 4

HEADER_SIZE = 64
# magic (8s), version (u32), table type (u32), entry count (u64),
# companion count (u64: m for the node table, n for the edge table),
# 32 reserved bytes.
_HEADER_STRUCT = struct.Struct("<8sIIQQ32x")

NODE_ENTRY_SIZE = 12
_NODE_ENTRY_STRUCT = struct.Struct("<QI")

EDGE_ENTRY_SIZE = 4
EDGE_TYPECODE = "I"
MAX_NODE_ID = 2 ** 32 - 1


def pack_header(table_type, entry_count, companion_count):
    """Serialize a 64-byte table header."""
    return _HEADER_STRUCT.pack(
        MAGIC, FORMAT_VERSION, table_type, entry_count, companion_count
    )


def unpack_header(data, expected_type):
    """Parse and validate a header, returning (entry_count, companion_count).

    Raises :class:`CorruptStorageError` when the magic, version or table
    type does not match.
    """
    if len(data) < HEADER_SIZE:
        raise CorruptStorageError(
            "truncated header: %d bytes, expected %d" % (len(data), HEADER_SIZE)
        )
    magic, version, table_type, entries, companion = _HEADER_STRUCT.unpack(
        data[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise CorruptStorageError("bad magic %r" % (magic,))
    if version != FORMAT_VERSION:
        raise CorruptStorageError(
            "unsupported format version %d (supported: %d)"
            % (version, FORMAT_VERSION)
        )
    if table_type != expected_type:
        raise CorruptStorageError(
            "wrong table type %d, expected %d" % (table_type, expected_type)
        )
    return entries, companion


def pack_node_entry(offset_entries, degree):
    """Serialize one node-table entry."""
    return _NODE_ENTRY_STRUCT.pack(offset_entries, degree)


def unpack_node_entry(data, position=0):
    """Parse one node-table entry, returning (offset_entries, degree)."""
    return _NODE_ENTRY_STRUCT.unpack_from(data, position)


def node_entry_position(node):
    """Byte offset of a node's entry within the node table."""
    return HEADER_SIZE + node * NODE_ENTRY_SIZE


def edge_entry_position(entry_index):
    """Byte offset of an adjacency entry within the edge table."""
    return HEADER_SIZE + entry_index * EDGE_ENTRY_SIZE


def node_table_size(num_nodes):
    """Total byte size of a node table for ``num_nodes`` nodes."""
    return HEADER_SIZE + num_nodes * NODE_ENTRY_SIZE


def edge_table_size(num_entries):
    """Total byte size of an edge table for ``num_entries`` entries."""
    return HEADER_SIZE + num_entries * EDGE_ENTRY_SIZE
