"""Dynamic graph: on-disk storage plus an in-memory edge buffer.

:class:`DynamicGraph` exposes the same read protocol as
:class:`~repro.storage.GraphStorage` (``num_nodes``, ``neighbors``,
``read_degrees``, ``iter_adjacency``, ``io_stats``) while supporting
``insert_edge`` / ``delete_edge``.  Updates accumulate in an
:class:`~repro.storage.buffer.EdgeBuffer`; when the buffer reaches its
capacity the graph is *compacted*: the merged adjacency is streamed to a
fresh pair of tables (read + write I/Os are counted), exactly the
maintenance strategy described in Section V of the paper.
"""

from __future__ import annotations

import itertools

from repro.errors import EdgeExistsError, EdgeNotFoundError, GraphError
from repro.storage.buffer import EdgeBuffer
from repro.storage.graphstore import GraphStorage

DEFAULT_BUFFER_CAPACITY = 65536


class DynamicGraph:
    """A mutable graph backed by block storage and an edge buffer."""

    def __init__(self, storage, *, buffer_capacity=DEFAULT_BUFFER_CAPACITY,
                 path_factory=None, auto_compact=True):
        """Wrap ``storage``.

        Parameters
        ----------
        buffer_capacity:
            Pending undirected edge operations kept in memory before a
            compaction rewrites the tables (``None`` disables compaction).
        path_factory:
            Callable returning a fresh path prefix for each compaction when
            the graph lives in files; ``None`` compacts to memory-backed
            tables.
        auto_compact:
            When False, :meth:`compact` must be called explicitly.
        """
        self._storage = storage
        self._buffer = EdgeBuffer(buffer_capacity)
        self._path_factory = path_factory
        self._auto_compact = auto_compact
        self._generation = itertools.count(1)
        self._arc_delta = 0
        #: Edge updates recorded so far.  An update is recorded before
        #: any compaction it triggers, so a caller that notes this count
        #: before a sequence of updates knows how many reached the graph
        #: even when one of them failed.
        self.mutations = 0

    # -- read protocol -------------------------------------------------------
    @property
    def num_nodes(self):
        """Number of nodes."""
        return self._storage.num_nodes

    @property
    def num_arcs(self):
        """Adjacency entries including pending operations."""
        return self._storage.num_arcs + self._arc_delta

    @property
    def num_edges(self):
        """Undirected edges including pending operations."""
        return self.num_arcs // 2

    @property
    def io_stats(self):
        """Combined I/O counters of the base storage."""
        return self._storage.io_stats

    @property
    def block_size(self):
        """Block size of the base storage."""
        return self._storage.block_size

    @property
    def storage(self):
        """The current base storage (replaced by compaction)."""
        return self._storage

    @property
    def pending_operations(self):
        """Number of buffered undirected edge operations."""
        return len(self._buffer)

    def degree(self, v):
        """Degree of ``v`` including pending operations."""
        return self._storage.degree(v) + self._buffer.degree_delta(v)

    def neighbors(self, v):
        """Adjacency of ``v`` with pending operations applied."""
        base = self._storage.neighbors(v)
        return self._buffer.adjust(v, base)

    def read_degrees(self):
        """All degrees with pending operations applied."""
        degrees = self._storage.read_degrees()
        for v in range(len(degrees)):
            if self._buffer.touches(v):
                degrees[v] += self._buffer.degree_delta(v)
        return degrees

    def iter_adjacency(self, start=0, stop=None, **kwargs):
        """Sequential scan with pending operations applied per node."""
        for v, nbrs in self._storage.iter_adjacency(start, stop, **kwargs):
            yield v, self._buffer.adjust(v, nbrs)

    def edges(self):
        """Yield each undirected edge once with pending operations applied."""
        for v, nbrs in self.iter_adjacency():
            for u in nbrs:
                if v < u:
                    yield (v, int(u))

    def has_edge(self, u, v):
        """Edge membership (reads the base adjacency of ``u``)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        if self._buffer.is_inserted(u, v):
            return True
        if self._buffer.is_deleted(u, v):
            return False
        return v in set(self._storage.neighbors(u))

    # -- mutation --------------------------------------------------------------
    def insert_edge(self, u, v, *, validate=True):
        """Insert undirected edge (u, v) into the buffer.

        With ``validate`` (default) the base adjacency is consulted so a
        duplicate insertion raises :class:`EdgeExistsError`; benchmarks may
        disable the check to avoid charging the extra read.
        """
        self._check_edge_nodes(u, v)
        if validate and self.has_edge(u, v):
            raise EdgeExistsError("edge (%d, %d) already present" % (u, v))
        self._buffer.record_insert(u, v)
        self._arc_delta += 2
        self.mutations += 1
        self._maybe_compact()

    def delete_edge(self, u, v, *, validate=True):
        """Delete undirected edge (u, v) via the buffer."""
        self._check_edge_nodes(u, v)
        if validate and not self.has_edge(u, v):
            raise EdgeNotFoundError("edge (%d, %d) not present" % (u, v))
        self._buffer.record_delete(u, v)
        self._arc_delta -= 2
        self.mutations += 1
        self._maybe_compact()

    def compact(self):
        """Merge the buffer into fresh tables and clear it.

        The merged adjacency is streamed from the old tables (read I/Os)
        into new ones (write I/Os) that share the same
        :class:`~repro.storage.blockio.IOStats`, so accounting stays
        continuous across generations.
        """
        if not len(self._buffer):
            return
        path = None
        if self._path_factory is not None:
            path = self._path_factory(next(self._generation))
        merged = (self._buffer.adjust(v, nbrs)
                  for v, nbrs in self._storage.iter_adjacency())
        new_storage = GraphStorage.from_adjacency(
            merged, self.num_nodes, path=path,
            block_size=self._storage.block_size,
            stats=self._storage.io_stats,
        )
        old = self._storage
        self._storage = new_storage
        self._buffer.clear()
        self._arc_delta = 0
        old.close()

    # -- internals ---------------------------------------------------------------
    def _maybe_compact(self):
        if self._auto_compact and self._buffer.is_full:
            self.compact()

    def _check_edge_nodes(self, u, v):
        n = self.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError("edge (%d, %d) out of range for n=%d" % (u, v, n))
        if u == v:
            raise GraphError("self loop (%d, %d) not allowed" % (u, v))

    def close(self):
        """Close the current base storage."""
        self._storage.close()

    def __repr__(self):
        return "DynamicGraph(n=%d, m=%d, pending=%d)" % (
            self.num_nodes, self.num_edges, self.pending_operations
        )
