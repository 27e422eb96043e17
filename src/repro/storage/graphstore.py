"""On-disk graph storage: node table + edge table behind block devices.

:class:`GraphStorage` is the substrate every semi-external algorithm runs
on.  It mirrors the paper's storage layout (Section II): adjacency lists
live consecutively in an *edge table* while per-node ``(offset, degree)``
entries live in a *node table*.  All access goes through counting
:class:`~repro.storage.blockio.BlockDevice` objects, so algorithms can
report exact read/write I/O figures.

Both tables share one :class:`~repro.storage.blockio.IOStats` instance;
``storage.io_stats`` therefore reports the combined I/O of the graph.
"""

from __future__ import annotations

import os
from array import array

import numpy as np

from repro.errors import GraphError, StorageError
from repro.storage import layout
from repro.storage.blockio import (
    DEFAULT_BLOCK_SIZE,
    FileBlockDevice,
    IOStats,
    MemoryBlockDevice,
)
from repro.storage.memgraph import normalize_edges

NODE_SUFFIX = ".nodes"
EDGE_SUFFIX = ".edges"

#: Bytes per sequential-scan chunk (public: the CSR snapshot builder
#: mirrors the scan's read plan and must use the same default).
SCAN_CHUNK_BYTES = 1 << 18

_DEFAULT_CHUNK_BYTES = SCAN_CHUNK_BYTES

#: A node-table entry (see :mod:`repro.storage.layout`) for bulk decoding.
NODE_ENTRY_DTYPE = np.dtype([("offset", "<u8"), ("degree", "<u4")])


class GraphStorage:
    """An undirected graph stored in block-addressed node/edge tables."""

    def __init__(self, node_device, edge_device, num_nodes, num_arcs):
        self._nodes = node_device
        self._edges = edge_device
        self.num_nodes = num_nodes
        self.num_arcs = num_arcs

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency, num_nodes, *, path=None,
                       block_size=DEFAULT_BLOCK_SIZE, stats=None):
        """Build storage from an iterable of per-node neighbour lists.

        ``adjacency`` must yield exactly ``num_nodes`` sequences, one per
        node in id order.  When ``path`` is None the tables live in memory;
        otherwise they are written to ``path + '.nodes'`` / ``'.edges'``.
        """
        stats = stats if stats is not None else IOStats()
        node_dev, edge_dev = _create_devices(path, block_size, stats)

        node_chunk = bytearray()
        edge_chunk = bytearray()
        node_pos = layout.HEADER_SIZE
        edge_pos = layout.HEADER_SIZE
        offset_entries = 0
        count = 0
        for nbrs in adjacency:
            nbr_array = array(layout.EDGE_TYPECODE, nbrs)
            node_chunk += layout.pack_node_entry(offset_entries, len(nbr_array))
            edge_chunk += nbr_array.tobytes()
            offset_entries += len(nbr_array)
            count += 1
            if len(node_chunk) >= _DEFAULT_CHUNK_BYTES:
                node_dev.write_at(node_pos, bytes(node_chunk))
                node_pos += len(node_chunk)
                node_chunk.clear()
            if len(edge_chunk) >= _DEFAULT_CHUNK_BYTES:
                edge_dev.write_at(edge_pos, bytes(edge_chunk))
                edge_pos += len(edge_chunk)
                edge_chunk.clear()
        if count != num_nodes:
            raise GraphError(
                "adjacency yielded %d node lists, expected %d" % (count, num_nodes)
            )
        if node_chunk:
            node_dev.write_at(node_pos, bytes(node_chunk))
        if edge_chunk:
            edge_dev.write_at(edge_pos, bytes(edge_chunk))
        num_arcs = offset_entries
        node_dev.write_at(0, layout.pack_header(layout.TABLE_NODE,
                                                num_nodes, num_arcs))
        edge_dev.write_at(0, layout.pack_header(layout.TABLE_EDGE,
                                                num_arcs, num_nodes))
        return cls(node_dev, edge_dev, num_nodes, num_arcs)

    @classmethod
    def from_edges(cls, edges, num_nodes=None, *, path=None,
                   block_size=DEFAULT_BLOCK_SIZE, stats=None):
        """Build storage from an iterable of undirected edges.

        Edges are normalized (self loops dropped, duplicates removed) and
        each edge is stored in both endpoints' adjacency lists, as in the
        paper's datasets.  Convenient for graphs that fit in memory during
        construction; use :mod:`repro.storage.builder` for streaming builds.
        """
        edge_list, n = normalize_edges(edges, num_nodes)
        adjacency = [[] for _ in range(n)]
        for u, v in edge_list:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for nbrs in adjacency:
            nbrs.sort()
        return cls.from_adjacency(adjacency, n, path=path,
                                  block_size=block_size, stats=stats)

    @classmethod
    def from_memgraph(cls, graph, *, path=None,
                      block_size=DEFAULT_BLOCK_SIZE, stats=None):
        """Build storage from a :class:`~repro.storage.MemoryGraph`."""
        adjacency = (graph.neighbors(v) for v in range(graph.num_nodes))
        return cls.from_adjacency(adjacency, graph.num_nodes, path=path,
                                  block_size=block_size, stats=stats)

    @classmethod
    def open(cls, path, *, block_size=DEFAULT_BLOCK_SIZE, stats=None,
             writable=False):
        """Open previously written tables at ``path`` (+ suffixes)."""
        stats = stats if stats is not None else IOStats()
        mode = "r+" if writable else "r"
        node_dev = FileBlockDevice(os.fspath(path) + NODE_SUFFIX, mode,
                                   block_size=block_size, stats=stats)
        edge_dev = FileBlockDevice(os.fspath(path) + EDGE_SUFFIX, mode,
                                   block_size=block_size, stats=stats)
        num_nodes, num_arcs = layout.unpack_header(
            node_dev.read_at(0, layout.HEADER_SIZE), layout.TABLE_NODE
        )
        arcs_check, nodes_check = layout.unpack_header(
            edge_dev.read_at(0, layout.HEADER_SIZE), layout.TABLE_EDGE
        )
        if arcs_check != num_arcs or nodes_check != num_nodes:
            raise StorageError(
                "node/edge tables disagree: (%d, %d) vs (%d, %d)"
                % (num_nodes, num_arcs, nodes_check, arcs_check)
            )
        expected = layout.edge_table_size(num_arcs)
        if edge_dev.size < expected:
            raise StorageError(
                "edge table truncated: %d bytes, expected %d"
                % (edge_dev.size, expected)
            )
        return cls(node_dev, edge_dev, num_nodes, num_arcs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self):
        """Number of undirected edges (half the adjacency entries)."""
        return self.num_arcs // 2

    @property
    def path(self):
        """Path prefix of file-backed tables, or None for in-memory ones.

        Services record this in their manifests so a checkpointed data
        directory can reopen its seed graph without the caller passing
        the storage again.
        """
        node_path = getattr(self._nodes, "path", None)
        if node_path is not None and node_path.endswith(NODE_SUFFIX):
            return node_path[: -len(NODE_SUFFIX)]
        return None

    @property
    def io_stats(self):
        """Combined I/O counters of the node and edge tables."""
        return self._nodes.stats

    @property
    def block_size(self):
        """Block size of the backing devices."""
        return self._nodes.block_size

    @property
    def node_device(self):
        """The node table's block device (read access for engines)."""
        return self._nodes

    @property
    def edge_device(self):
        """The edge table's block device (read access for engines)."""
        return self._edges

    def node_entry(self, v):
        """Read ``(offset_entries, degree)`` for node ``v`` from disk."""
        self._check_node(v)
        data = self._nodes.read_at(layout.node_entry_position(v),
                                   layout.NODE_ENTRY_SIZE)
        return layout.unpack_node_entry(data)

    def degree(self, v):
        """Degree of node ``v`` (reads the node table)."""
        return self.node_entry(v)[1]

    def neighbors(self, v):
        """Adjacency list of node ``v`` as an array of node ids."""
        offset, degree = self.node_entry(v)
        if degree == 0:
            return array(layout.EDGE_TYPECODE)
        data = self._edges.read_at(layout.edge_entry_position(offset),
                                   degree * layout.EDGE_ENTRY_SIZE)
        return array(layout.EDGE_TYPECODE, data)

    def read_degrees(self):
        """All degrees via one sequential scan of the node table."""
        parts = []
        position = layout.HEADER_SIZE
        remaining = self.num_nodes
        entries_per_chunk = max(1, _DEFAULT_CHUNK_BYTES // layout.NODE_ENTRY_SIZE)
        while remaining:
            batch = min(remaining, entries_per_chunk)
            data = self._nodes.read_at(position, batch * layout.NODE_ENTRY_SIZE)
            parts.append(np.frombuffer(data, dtype=NODE_ENTRY_DTYPE)["degree"])
            position += batch * layout.NODE_ENTRY_SIZE
            remaining -= batch
        degrees = array("i")
        if parts:
            degrees.frombytes(np.concatenate(parts).astype(np.int32).tobytes())
        return degrees

    def iter_adjacency_chunks(self, start=0, stop=None,
                              chunk_bytes=_DEFAULT_CHUNK_BYTES):
        """Yield ``(first_node, degrees, edge_data)`` raw scan groups.

        This is the block-level substrate of :meth:`iter_adjacency`: the
        node table is read in large sequential batches and consecutive
        nodes whose adjacency fits in one ``chunk_bytes`` read are grouped
        into a single edge-table read.  ``degrees`` is the per-node degree
        list of the group and ``edge_data`` the group's concatenated
        adjacency bytes.  Consumers that want the raw payload (e.g. the
        CSR snapshot builder) use this directly and are guaranteed to
        issue exactly the same device reads as :meth:`iter_adjacency`.
        """
        if stop is None:
            stop = self.num_nodes
        if not 0 <= start <= stop <= self.num_nodes:
            raise GraphError(
                "bad node range [%d, %d) for n=%d" % (start, stop, self.num_nodes)
            )
        entries_per_chunk = max(1, chunk_bytes // layout.NODE_ENTRY_SIZE)
        v = start
        while v < stop:
            batch = min(stop - v, entries_per_chunk)
            node_data = self._nodes.read_at(
                layout.node_entry_position(v), batch * layout.NODE_ENTRY_SIZE
            )
            entries = [
                layout.unpack_node_entry(node_data, i * layout.NODE_ENTRY_SIZE)
                for i in range(batch)
            ]
            # Group consecutive nodes whose adjacency fits in one chunk read.
            i = 0
            while i < batch:
                first_offset = entries[i][0]
                j = i
                span = 0
                while j < batch:
                    degree = entries[j][1]
                    size = degree * layout.EDGE_ENTRY_SIZE
                    if span and span + size > chunk_bytes:
                        break
                    span += size
                    j += 1
                if span:
                    edge_data = self._edges.read_at(
                        layout.edge_entry_position(first_offset), span
                    )
                else:
                    edge_data = b""
                yield v + i, [entries[k][1] for k in range(i, j)], edge_data
                i = j
            v += batch

    def iter_adjacency(self, start=0, stop=None,
                       chunk_bytes=_DEFAULT_CHUNK_BYTES):
        """Yield ``(v, neighbours)`` sequentially for ``v`` in [start, stop).

        The scan reads both tables in large sequential chunks, so a full
        pass costs ``ceil(table bytes / B)`` read I/Os -- the access pattern
        SemiCore relies on.
        """
        for first, degrees, edge_data in self.iter_adjacency_chunks(
                start, stop, chunk_bytes):
            view = memoryview(edge_data)
            cursor = 0
            for k, degree in enumerate(degrees):
                size = degree * layout.EDGE_ENTRY_SIZE
                nbrs = array(layout.EDGE_TYPECODE)
                nbrs.frombytes(view[cursor:cursor + size])
                yield first + k, nbrs
                cursor += size

    def edges(self):
        """Yield each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u, nbrs in self.iter_adjacency():
            for v in nbrs:
                if u < v:
                    yield (u, int(v))

    def drop_caches(self):
        """Forget both devices' one-block read caches.

        Back-to-back algorithm runs on the same storage otherwise start
        with whatever block the previous run left cached, which skews
        their I/O figures by a block or two; dropping the caches puts
        every run in the same cold-start state.
        """
        self._nodes.drop_cache()
        self._edges.drop_cache()

    def close(self):
        """Close both backing devices."""
        self._nodes.close()
        self._edges.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return "GraphStorage(n=%d, m=%d)" % (self.num_nodes, self.num_edges)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_node(self, v):
        if not 0 <= v < self.num_nodes:
            raise GraphError("node %d out of range [0, %d)" % (v, self.num_nodes))


def _create_devices(path, block_size, stats):
    """Create a (node, edge) device pair for the requested backend."""
    if path is None:
        node_dev = MemoryBlockDevice(block_size=block_size, stats=stats)
        edge_dev = MemoryBlockDevice(block_size=block_size, stats=stats)
    else:
        node_dev = FileBlockDevice(os.fspath(path) + NODE_SUFFIX, "w+",
                                   block_size=block_size, stats=stats)
        edge_dev = FileBlockDevice(os.fspath(path) + EDGE_SUFFIX, "w+",
                                   block_size=block_size, stats=stats)
    return node_dev, edge_dev
