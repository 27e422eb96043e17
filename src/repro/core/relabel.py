"""Locality relabeling: permute node ids so neighbourhoods cluster.

Contiguous node-range shards (:mod:`repro.storage.shards`) pay one halo
row per *distinct* cross-shard neighbour.  When ids are scrambled, a
node's neighbours scatter over every shard and the boundary tables
approach the arc count; when ids follow a traversal order, most
neighbours land in the same range and the halo shrinks.  This module
builds that permutation as a pre-pass for
:func:`~repro.core.sharded.sharded_semi_core_star`:

1. :func:`locality_permutation` computes a visitation order over the
   source graph -- BFS (:func:`~repro.core.ordering.bfs_ordering`, the
   default: O(n) bookkeeping) or degeneracy
   (:func:`~repro.core.ordering.degeneracy_ordering`, which loads the
   full adjacency) -- and returns it with its inverse.
2. :class:`PermutedGraphView` presents the source graph *as if* it were
   stored in the relabeled id space, so the shard builder runs
   unchanged.  Every read goes through the underlying counting devices:
   the view's ``read_range`` (the shard builder's ranged read) resolves
   one node-table entry and one edge-table range per relabeled node
   (random access, charged per the I/O model -- the honest price of
   building shards out of id order) and remaps the rows in numpy.
3. The driver decomposes in relabeled space and inverse-maps the cores
   on the way out (``cores[v] == relabeled_cores[rank[v]]``), so results
   stay bit-identical to the unrelabeled run: core numbers are invariant
   under graph isomorphism and every kernel here is order-independent at
   the fixpoint.

The permutation itself is O(n) resident ints -- id bookkeeping, like
the driver's shard fenceposts, not per-node algorithm state -- and is
reported inside the decomposition's ``model_memory_bytes``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.ordering import bfs_ordering, degeneracy_ordering
from repro.errors import GraphError
from repro.storage import layout
from repro.storage.csr import read_rows

#: Permutation methods accepted by :func:`locality_permutation`.
RELABEL_METHODS = ("bfs", "degeneracy")


def locality_permutation(graph, method="bfs"):
    """Return ``(order, rank)`` for ``graph`` under ``method``.

    ``order[i]`` is the original id of relabeled node ``i``;
    ``rank[v]`` is the relabeled id of original node ``v`` (the
    inverse).  Both are ``array('i')`` of length ``num_nodes``.
    """
    if method not in RELABEL_METHODS:
        raise GraphError(
            "relabel method must be one of %s, got %r"
            % (", ".join(RELABEL_METHODS), method)
        )
    if method == "bfs":
        order = bfs_ordering(graph)
    else:
        order, _ = degeneracy_ordering(graph)
    n = graph.num_nodes
    if len(order) != n:
        raise GraphError(
            "ordering covered %d of %d nodes" % (len(order), n)
        )
    rank = np.empty(n, dtype=np.int32)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int32)
    return array("i", order), array("i", rank.tobytes())


class PermutedGraphView:
    """Read-only view of a graph in a permuted id space.

    Exposes the subset of the :class:`~repro.storage.GraphStorage`
    surface the shard builder and driver consume -- ``num_nodes``,
    ``num_arcs``, ``io_stats``, ``block_size``, ``read_degrees``,
    ``read_range`` and ``iter_adjacency`` -- with every id translated
    through the permutation.  All data still comes from the underlying
    storage's counting devices, so I/O keeps being charged to the source
    graph's ``IOStats``.
    """

    def __init__(self, graph, order, rank):
        n = graph.num_nodes
        if len(order) != n or len(rank) != n:
            raise GraphError(
                "permutation length %d/%d does not match n=%d"
                % (len(order), len(rank), n)
            )
        self._graph = graph
        self._order = order
        self._rank = rank

    @property
    def num_nodes(self):
        return self._graph.num_nodes

    @property
    def num_arcs(self):
        return self._graph.num_arcs

    @property
    def io_stats(self):
        return getattr(self._graph, "io_stats", None)

    @property
    def block_size(self):
        return getattr(self._graph, "block_size", None)

    def read_degrees(self):
        """Degrees in relabeled order (one sequential scan, permuted)."""
        base = np.asarray(self._graph.read_degrees(), dtype=np.int32)
        order = np.asarray(self._order, dtype=np.int64)
        return array("i", np.take(base, order).tobytes())

    def read_range(self, start=0, stop=None):
        """Relabeled rows ``[start, stop)`` as ``(degrees, indices)``, the
        contract of :func:`~repro.storage.csr.read_range`.

        The source rows are read with :func:`~repro.storage.csr.
        read_rows` in relabeled order -- the reads of one
        ``neighbors()`` call per row, out of id order by construction
        -- then every entry is renamed with one ``np.take`` of the rank
        and one sort of ``row * n + rank`` keys re-sorts the rows, so
        shard tables keep the sorted-adjacency invariant.
        """
        if stop is None:
            stop = self.num_nodes
        self._check_range(start, stop)
        payload = []
        degrees = np.asarray(read_rows(self._graph, self._order[start:stop],
                                       payload), dtype=np.int64)
        renamed = np.take(np.asarray(self._rank, dtype=np.int64),
                          np.frombuffer(b"".join(payload), dtype=np.uint32))
        # Rows and ranks are below num_nodes <= 2**32: the keys fit in
        # uint64.
        base = np.repeat(np.arange(stop - start, dtype=np.uint64)
                         * np.uint64(self.num_nodes), degrees)
        indices = (np.sort(base + renamed.astype(np.uint64))
                   - base).astype(np.uint32)
        return degrees, indices

    def iter_adjacency(self, start=0, stop=None):
        """Yield ``(i, neighbours)`` for relabeled ids in [start, stop).

        Each row is one random-access adjacency read of the source
        (out-of-order by construction), remapped and re-sorted so shard
        tables keep the sorted-adjacency invariant.
        """
        if stop is None:
            stop = self.num_nodes
        self._check_range(start, stop)
        rank = self._rank
        for i in range(start, stop):
            nbrs = self._graph.neighbors(self._order[i])
            yield i, array(layout.EDGE_TYPECODE,
                           sorted(rank[u] for u in nbrs))

    def neighbors(self, i):
        """Relabeled adjacency of relabeled node ``i``."""
        nbrs = self._graph.neighbors(self._order[i])
        return array(layout.EDGE_TYPECODE,
                     sorted(self._rank[u] for u in nbrs))

    def drop_caches(self):
        self._graph.drop_caches()

    def _check_range(self, start, stop):
        if not 0 <= start <= stop <= self.num_nodes:
            raise GraphError(
                "bad node range [%d, %d) for n=%d"
                % (start, stop, self.num_nodes)
            )

    def __repr__(self):
        return "PermutedGraphView(n=%d, m=%d)" % (
            self.num_nodes, self.num_arcs // 2
        )


def inverse_map_cores(cores, rank):
    """Map relabeled-space core numbers back to original ids.

    ``cores`` indexes by relabeled id; the result indexes by original
    id: ``out[v] = cores[rank[v]]``.
    """
    if len(cores) != len(rank):
        raise GraphError(
            "cores length %d does not match permutation length %d"
            % (len(cores), len(rank))
        )
    out = np.take(np.asarray(cores, dtype=np.int32),
                  np.asarray(rank, dtype=np.int64))
    return array("i", out.tobytes())
