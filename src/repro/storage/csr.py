"""CSR adjacency snapshots for the vectorized engines.

:class:`CSRGraph` is an immutable compressed-sparse-row view of a graph:
``indptr`` (``n + 1`` int64 offsets) and ``indices`` (``m`` uint32
neighbour ids, the on-disk edge-entry type).  It is the batch substrate
the NumPy engine computes on -- one contiguous buffer instead of per-node
Python objects.

Snapshots are buildable from any object with the storage read protocol.
:func:`read_range` is the one scan primitive under them: it replays the
block-wise read plan of
:meth:`~repro.storage.graphstore.GraphStorage.iter_adjacency` against
the raw node/edge devices, concatenating the edge payloads.  Because it
issues exactly the reads that ``iter_adjacency`` issues, materializing a
snapshot charges the shared :class:`~repro.storage.blockio.IOStats`
precisely one sequential scan -- the same figure a reference-engine pass
pays.  This is what lets the vectorized engines report I/O counts
identical to the pure-Python paths.  Graphs without exposed block
devices (:class:`~repro.storage.MemoryGraph`, dynamic overlays) are
read with ``iter_adjacency`` itself; the per-node reads still go through
whatever I/O accounting the source graph has.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import ReproError
from repro.storage import layout
from repro.storage.graphstore import NODE_ENTRY_DTYPE, SCAN_CHUNK_BYTES


class CSRGraph:
    """An immutable CSR adjacency snapshot of an undirected graph."""

    __slots__ = ("indptr", "indices", "num_nodes", "num_arcs")

    def __init__(self, indptr, indices):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.uint32)
        if len(self.indptr) < 1:
            raise ReproError("indptr must have at least one entry")
        self.num_nodes = len(self.indptr) - 1
        self.num_arcs = int(self.indptr[-1])
        if self.num_arcs != len(self.indices):
            raise ReproError(
                "indptr ends at %d but indices has %d entries"
                % (self.num_arcs, len(self.indices))
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_storage(cls, storage, *, chunk_bytes=None, stop=None):
        """Materialize from one sequential scan (see :func:`read_range`).

        On a graph with block devices this issues exactly the reads of
        ``iter_adjacency``, so the snapshot's I/O accounting is
        identical to one reference-engine pass; the test suite asserts
        read-for-read I/O equality with ``iter_adjacency``.  ``stop``
        limits the scan to the rows below it (a shard's owned prefix);
        later rows stay empty in the snapshot.
        """
        n = storage.num_nodes
        degrees, indices = read_range(storage, 0, stop,
                                      chunk_bytes=chunk_bytes)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:len(degrees) + 1])
        indptr[len(degrees) + 1:] = indptr[len(degrees)]
        return cls(indptr, indices)

    @classmethod
    def from_graph(cls, graph, *, chunk_bytes=None):
        """Build a snapshot of every row of any graph with the read
        protocol (:meth:`from_storage` without a ``stop``)."""
        return cls.from_storage(graph, chunk_bytes=chunk_bytes)

    @classmethod
    def from_rows(cls, graph, rows):
        """Build a snapshot of ``graph`` holding adjacency for ``rows`` only.

        Every other row is empty.  Rows are read in ascending id order
        and charged as the reads of ``graph.neighbors`` (see
        :func:`read_sorted_rows`).  The NumPy SemiCore* and SemiCore+
        engines use this to snapshot exactly the nodes the reference
        algorithm reads, in exactly the order it reads them.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        degrees = np.zeros(graph.num_nodes, dtype=np.int64)
        _, degrees[rows], indices = read_sorted_rows(graph, rows)
        indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(indptr, indices)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self):
        """Number of undirected edges (half the adjacency entries)."""
        return self.num_arcs // 2

    def degrees(self):
        """Per-node degrees as an int64 numpy array."""
        return np.diff(self.indptr)

    def neighbors(self, v):
        """Adjacency slice of node ``v`` (a uint32 numpy view)."""
        if not 0 <= v < self.num_nodes:
            raise ReproError(
                "node %d out of range [0, %d)" % (v, self.num_nodes)
            )
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def model_memory_bytes(self):
        """Bytes of the snapshot under the paper's memory accounting."""
        return 8 * (self.num_nodes + 1) + \
            layout.EDGE_ENTRY_SIZE * self.num_arcs

    def __repr__(self):
        return "CSRGraph(n=%d, m=%d)" % (self.num_nodes, self.num_edges)


def read_range(graph, start=0, stop=None, *, chunk_bytes=None):
    """Adjacency of rows ``[start, stop)`` as ``(degrees, indices)``.

    ``degrees`` is an int64 array of ``stop - start`` entries and
    ``indices`` the rows' concatenated uint32 adjacency.  A graph that
    exposes its block devices gets the read plan of
    ``iter_adjacency(start, stop)`` replayed on ``node_device`` /
    ``edge_device`` -- node-table batches of ``chunk_bytes``, edge-table
    spans grouped greedily up to ``chunk_bytes`` (a group's first
    non-empty adjacency is accepted regardless of size) -- with the plan
    computed in numpy, so the read does no per-row Python work and
    charges exactly the I/O of the scan.  Any other graph is read with
    one ``iter_adjacency(start, stop)`` pass.
    """
    if chunk_bytes is None:
        chunk_bytes = SCAN_CHUNK_BYTES
    n = graph.num_nodes
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ReproError(
            "bad node range [%d, %d) for n=%d" % (start, stop, n))
    degree_parts = []
    payload = []
    if not (hasattr(graph, "node_device") and hasattr(graph, "edge_device")):
        degrees = array("q")
        for _, nbrs in graph.iter_adjacency(start, stop):
            degrees.append(len(nbrs))
            if len(nbrs):
                if not isinstance(nbrs, array) or \
                        nbrs.typecode != layout.EDGE_TYPECODE:
                    nbrs = array(layout.EDGE_TYPECODE, nbrs)
                payload.append(nbrs.tobytes())
        degree_parts.append(np.frombuffer(degrees, dtype=np.int64))
    else:
        nodes_dev = graph.node_device
        edges_dev = graph.edge_device
        entries_per_chunk = max(1, chunk_bytes // layout.NODE_ENTRY_SIZE)
        v = start
        while v < stop:
            batch = min(stop - v, entries_per_chunk)
            node_data = nodes_dev.read_at(
                layout.node_entry_position(v),
                batch * layout.NODE_ENTRY_SIZE,
            )
            entries = np.frombuffer(node_data, dtype=NODE_ENTRY_DTYPE)
            degrees = entries["degree"].astype(np.int64)
            degree_parts.append(degrees)
            sizes = degrees * layout.EDGE_ENTRY_SIZE
            bounds = np.zeros(batch + 1, dtype=np.int64)
            np.cumsum(sizes, out=bounds[1:])
            nonzero = np.flatnonzero(sizes)
            i = 0
            while i < batch:
                j = int(np.searchsorted(bounds, bounds[i] + chunk_bytes,
                                        side="right")) - 1
                # The group's first non-empty adjacency is always taken,
                # even when it alone exceeds the chunk budget.
                first_nonzero = int(np.searchsorted(nonzero, i))
                if first_nonzero < len(nonzero):
                    j = max(j, int(nonzero[first_nonzero]) + 1)
                j = min(j, batch)
                span = int(bounds[j] - bounds[i])
                if span:
                    payload.append(edges_dev.read_at(
                        layout.edge_entry_position(int(entries["offset"][i])),
                        span,
                    ))
                i = j
            v += batch
    degrees = (np.concatenate(degree_parts) if degree_parts
               else np.zeros(0, dtype=np.int64))
    indices = np.frombuffer(b"".join(payload), dtype=np.uint32)
    return degrees, indices


def read_sorted_rows(graph, rows, *, charge=True):
    """Adjacency of strictly ascending ``rows``.

    Charged exactly as per-row ``graph.neighbors(v)`` calls charge the
    same rows, or -- on a graph with block devices -- not at all with
    ``charge=False``: a look-ahead read for a caller that charges the
    rows later, in the order the reference reads them in.  On a graph
    with block devices the rows take one ``read_spans`` per table: rows
    are stored back to back in id order, so their adjacency spans ascend
    too, and each table keeps its own read cache, so the charges are
    those of the per-row reads, which alternate between the tables.  Any
    other graph is asked for ``neighbors(v)`` row by row.  Returns
    ``(offsets, degrees, indices)``: the rows' edge-table offsets (None
    without block devices) and degrees as int64, and their uint32
    adjacency, row after row.
    """
    if not (hasattr(graph, "node_device") and hasattr(graph, "edge_device")):
        degrees = []
        payload = []
        for v in rows:
            nbrs = graph.neighbors(int(v))
            degrees.append(len(nbrs))
            if len(nbrs):
                payload.append(array(layout.EDGE_TYPECODE, nbrs).tobytes())
        return (None, np.asarray(degrees, dtype=np.int64),
                np.frombuffer(b"".join(payload), dtype=np.uint32))
    entries = graph.node_device.read_spans(
        layout.node_entry_position(0)
        + np.asarray(rows, dtype=np.int64) * layout.NODE_ENTRY_SIZE,
        np.ones(len(rows), dtype=np.int64), NODE_ENTRY_DTYPE,
        charge=charge)
    offsets = entries["offset"].astype(np.int64)
    degrees = entries["degree"].astype(np.int64)
    return offsets, degrees, graph.edge_device.read_spans(
        layout.edge_entry_position(0) + offsets * layout.EDGE_ENTRY_SIZE,
        degrees, "<u4", charge=charge)
