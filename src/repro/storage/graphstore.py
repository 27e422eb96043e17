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

import itertools
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
    def from_csr(cls, degrees, indices, *, path=None,
                 block_size=DEFAULT_BLOCK_SIZE, stats=None):
        """Build storage from whole per-node degree and adjacency arrays.

        ``degrees`` holds one entry per node in id order and ``indices``
        the concatenated neighbour lists (``sum(degrees)`` entries).  The
        node table's offsets are the degrees' exclusive prefix sums, so a
        trailing run of degree-0 rows all point at ``num_arcs``.  Each
        table's body goes out in one bulk ``write_at``, then its header;
        the bytes are those :meth:`from_adjacency` writes for the same
        rows.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        indices = np.asarray(indices)
        num_nodes = len(degrees)
        entries = np.empty(num_nodes, dtype=NODE_ENTRY_DTYPE)
        entries["degree"] = degrees
        entries["offset"] = np.cumsum(degrees) - degrees
        num_arcs = int(degrees.sum())
        if len(indices) != num_arcs:
            raise GraphError(
                "degrees sum to %d but indices has %d entries"
                % (num_arcs, len(indices))
            )
        stats = stats if stats is not None else IOStats()
        node_dev, edge_dev = _create_devices(path, block_size, stats)
        node_dev.write_at(layout.HEADER_SIZE, entries.tobytes())
        edge_dev.write_at(layout.HEADER_SIZE,
                          indices.astype("<u4", copy=False).tobytes())
        node_dev.write_at(0, layout.pack_header(layout.TABLE_NODE,
                                                num_nodes, num_arcs))
        edge_dev.write_at(0, layout.pack_header(layout.TABLE_EDGE,
                                                num_arcs, num_nodes))
        return cls(node_dev, edge_dev, num_nodes, num_arcs)

    @classmethod
    def from_edges(cls, edges, num_nodes=None, *, path=None,
                   block_size=DEFAULT_BLOCK_SIZE, stats=None):
        """Build storage from an iterable of undirected ``(u, v)`` pairs.

        Edges are normalized (self loops dropped, duplicates in either
        orientation removed, ``num_nodes`` inferred as ``1 + max id``,
        the rules of :func:`~repro.storage.memgraph.normalize_edges`)
        and each edge is stored in both endpoints' sorted adjacency
        lists, as in the paper's datasets.  The normalization is
        whole-array numpy work and the tables go out through
        :meth:`from_csr`.  Convenient for graphs that fit in memory
        during construction; use :mod:`repro.storage.builder` for
        streaming builds.
        """
        edges = edges if isinstance(edges, list) else list(edges)
        flat = array("q", itertools.chain.from_iterable(edges))
        if len(flat) != 2 * len(edges):
            raise GraphError("every edge must be a (u, v) pair")
        pairs = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if len(lo) and lo.min() < 0:
            u, v = pairs[np.argmax(lo < 0)].tolist()
            raise GraphError("negative node id in edge (%r, %r)" % (u, v))
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        max_node = int(hi.max()) if len(hi) else -1
        if num_nodes is None:
            num_nodes = max_node + 1
        elif num_nodes <= max_node:
            raise GraphError(
                "num_nodes=%d but edges reference node %d"
                % (num_nodes, max_node)
            )
        if max_node > layout.MAX_NODE_ID:
            raise GraphError(
                "node %d exceeds the largest storable id %d"
                % (max_node, layout.MAX_NODE_ID)
            )
        # Ids fit in 32 bits, so ``lo * base + hi`` is exact in uint64.
        base = np.uint64(max_node + 1)
        keys = sorted_unique(lo.astype(np.uint64) * base
                             + hi.astype(np.uint64))
        lo, hi = keys // base, keys % base
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        dst = dst[np.argsort(src * base + dst)]
        degrees = np.bincount(src.astype(np.int64), minlength=num_nodes)
        return cls.from_csr(degrees, dst, path=path, block_size=block_size,
                            stats=stats)

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


def sorted_unique(values):
    """The distinct entries of a 1-D array, ascending.

    ``np.unique`` gives the same result, but numpy 2 routes it through a
    hash table that runs about 50x slower than this sort on the uint64
    keys of :meth:`GraphStorage.from_edges`.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
