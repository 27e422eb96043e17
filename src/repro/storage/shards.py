"""Node-range sharding of a stored graph.

:class:`ShardedGraphStorage` splits a :class:`~repro.storage.GraphStorage`
into ``num_shards`` contiguous node-range shards, the partitioning step of
the sharded decomposition driver (:mod:`repro.core.sharded`).  The layout
follows Gao et al. ("K-Core Decomposition on Super Large Graphs with
Limited Resources", PAPERS.md): partition the node id space, keep each
partition's state bounded, and exchange boundary estimates between
passes.

Each shard is itself a :class:`GraphStorage` -- a per-shard node/edge
block-device pair -- so the whole I/O model carries over unchanged: the
one-block read cache, the :meth:`~repro.storage.GraphStorage.\
iter_adjacency_chunks` scan protocol, and the CSR snapshot fast path all
work per shard exactly as they do on the unsharded tables.  Every shard
device shares one :class:`~repro.storage.blockio.IOStats`, so
``sharded.io_stats`` reports the combined figure.

Shard layout
------------
Shard ``i`` owns the contiguous global id range ``[bounds[i],
bounds[i+1])``.  Fenceposts come from :func:`shard_bounds` (even node
split) or :func:`arc_balanced_bounds` (``balance="arc"``: ~``m/p``
owned adjacency entries per shard, computed from one sequential degree
scan).  Its local tables hold ``num_owned + num_boundary``
nodes:

* local ids ``[0, num_owned)`` are the owned nodes (global id minus
  ``start``), each storing its full adjacency -- intra-shard neighbours
  remapped to owned local ids, cross-shard neighbours remapped to *halo*
  local ids;
* local ids ``[num_owned, num_owned + num_boundary)`` are halo rows:
  one per distinct cross-shard neighbour, with an empty adjacency.

The cross-shard edges are therefore materialized inside the shard's own
edge table, and the *boundary table* (a third per-shard device) records
the sorted global ids behind the halo rows.  The *reverse boundary
table* (a fourth device) inverts the cross-shard entries: for each halo
row, the owned local ids whose adjacency holds it, ascending, behind an
index in the node-table entry format.  A shard pass reads only the
shard's own devices; resolving a halo row's current core estimate is
the driver's boundary-exchange step, not the pass's.

Invariants (asserted by ``tests/test_shards.py``):

* the owned ranges partition ``[0, num_nodes)``;
* boundary ids are strictly ascending and never fall in the owned range;
* remapping a shard's local adjacency through the boundary table
  reproduces the source graph's adjacency exactly;
* the sum of owned degrees over all shards equals ``num_arcs``.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right

import numpy as np

from repro.errors import GraphError
from repro.storage import layout
from repro.storage.blockio import (
    DEFAULT_BLOCK_SIZE,
    FileBlockDevice,
    IOStats,
    MemoryBlockDevice,
)
from repro.storage.csr import read_range
from repro.storage.graphstore import NODE_ENTRY_DTYPE, GraphStorage

BOUNDARY_SUFFIX = ".boundary"
REVERSE_SUFFIX = ".reverse"


def shard_bounds(num_nodes, num_shards):
    """Even contiguous node-range split: ``num_shards + 1`` fenceposts."""
    if num_shards < 1:
        raise GraphError("num_shards must be >= 1, got %d" % num_shards)
    return [i * num_nodes // num_shards for i in range(num_shards + 1)]


def arc_balanced_bounds(degrees, num_shards):
    """Contiguous node-range fenceposts balancing *owned arcs* per shard.

    Places fencepost ``i`` at the node where the cumulative arc total is
    nearest to ``i * total / num_shards`` (ties resolve to the earlier
    cut), all in exact integer arithmetic: one ``cumsum`` of the degrees
    and one ``searchsorted`` of the scaled targets.  Hub shards
    therefore own ~``m/p`` adjacency entries instead of ~``n/p`` nodes,
    which is what bounds the slowest shard pass on skewed degree
    distributions.  The split stays a partition of the id range: bounds
    are nondecreasing, start at 0 and end at ``len(degrees)``.
    """
    if num_shards < 1:
        raise GraphError("num_shards must be >= 1, got %d" % num_shards)
    n = len(degrees)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.asarray(degrees, dtype=np.int64), out=prefix[1:])
    total = int(prefix[-1])
    if total == 0:
        return shard_bounds(n, num_shards)
    # Scaled by p, so ``prefix[c] * p >= i * total`` compares exactly.
    scaled = prefix * num_shards
    targets = np.arange(1, num_shards, dtype=np.int64) * total
    # The first cut whose running total reaches the target (it exists
    # and is >= 1: prefix[n] * p > every target > prefix[0] * p) ...
    cuts = np.searchsorted(scaled, targets, side="left")
    # ... moves back one node when that lands nearer the target
    # (undershoot no larger than overshoot).
    undershoot = targets - scaled[cuts - 1]
    overshoot = scaled[cuts] - targets
    cuts -= undershoot <= overshoot
    return [0] + cuts.tolist() + [n]


class Shard:
    """One contiguous node-range shard of a sharded graph."""

    __slots__ = ("index", "start", "stop", "graph", "boundary_device",
                 "reverse_device", "path")

    def __init__(self, index, start, stop, graph, boundary_device,
                 reverse_device, path=None):
        self.index = index
        self.start = start
        self.stop = stop
        self.graph = graph
        self.boundary_device = boundary_device
        self.reverse_device = reverse_device
        self.path = path

    @property
    def num_owned(self):
        """Number of nodes this shard owns (its global id range)."""
        return self.stop - self.start

    @property
    def num_boundary(self):
        """Number of halo rows (distinct cross-shard neighbours)."""
        return self.graph.num_nodes - self.num_owned

    @property
    def num_local(self):
        """Total local rows: owned plus halo."""
        return self.graph.num_nodes

    @property
    def num_arcs(self):
        """Adjacency entries stored in this shard (owned rows only)."""
        return self.graph.num_arcs

    def boundary_ids(self):
        """Sorted global ids of the halo rows (one sequential read)."""
        count = self.num_boundary
        ids = array(layout.EDGE_TYPECODE)
        if count:
            data = self.boundary_device.read_at(
                layout.HEADER_SIZE, count * layout.EDGE_ENTRY_SIZE
            )
            ids.frombytes(data)
        return ids

    def reverse_rows(self, positions):
        """Owned local ids whose adjacency holds the halo rows at
        ``positions`` (ascending halo indices, ``local id - num_owned``).

        Reads the rows' index entries, then their id spans, each with
        one ``read_spans``: the charges of one point read per row and
        table part.  Returns ``(ids, lengths)``: the ids row after row
        (uint32) and the per-row counts.
        """
        positions = np.asarray(positions, dtype=np.int64)
        device = self.reverse_device
        index = device.read_spans(
            layout.HEADER_SIZE + positions * layout.NODE_ENTRY_SIZE,
            np.ones(positions.size, dtype=np.int64), NODE_ENTRY_DTYPE)
        lengths = index["degree"].astype(np.int64)
        ids_base = layout.HEADER_SIZE + \
            self.num_boundary * layout.NODE_ENTRY_SIZE
        ids = device.read_spans(
            ids_base + index["offset"].astype(np.int64)
            * layout.EDGE_ENTRY_SIZE, lengths, "<u4")
        return ids, lengths

    def to_global(self, local_ids, boundary=None):
        """Map local ids (owned or halo) back to global ids."""
        if boundary is None:
            boundary = self.boundary_ids()
        owned = self.num_owned
        out = array(layout.EDGE_TYPECODE)
        for v in local_ids:
            if v < owned:
                out.append(self.start + v)
            else:
                out.append(boundary[v - owned])
        return out

    def close(self):
        """Close the shard's four backing devices."""
        self.graph.close()
        self.boundary_device.close()
        self.reverse_device.close()

    def __repr__(self):
        return "Shard(%d, [%d, %d), halo=%d)" % (
            self.index, self.start, self.stop, self.num_boundary
        )


class ShardedGraphStorage:
    """A graph split into contiguous node-range shards."""

    def __init__(self, shards, num_nodes, num_arcs, stats, bounds,
                 balance="node"):
        self.shards = list(shards)
        self.num_nodes = num_nodes
        self.num_arcs = num_arcs
        self._stats = stats
        self.bounds = list(bounds)
        self.balance = balance

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_storage(cls, storage, num_shards, *, path=None,
                     block_size=None, stats=None, balance="node"):
        """Split ``storage`` into ``num_shards`` node-range shards.

        The source graph is read with one sequential scan, one ranged
        read per shard (charged to its own accounting); each shard's
        tables are written through devices sharing one ``stats``
        instance (fresh by default -- the sharded decomposition driver
        passes the source's so one figure covers the whole pipeline).
        ``path`` selects file-backed shards written to
        ``<path>.shard<i>.nodes/.edges/.boundary/.reverse``; the default
        keeps them in counting memory devices.

        ``balance`` picks the fencepost rule: ``"node"`` splits the id
        range evenly (:func:`shard_bounds`), ``"arc"`` balances owned
        adjacency entries from the cumulative degree sequence
        (:func:`arc_balanced_bounds`) at the cost of one extra
        sequential node-table scan, charged like any other read.

        Only one shard's arrays are resident at a time, so the
        build itself respects the ``O(max shard)`` memory bound of the
        sharded decomposition.
        """
        stats = stats if stats is not None else IOStats()
        if block_size is None:
            block_size = getattr(storage, "block_size", DEFAULT_BLOCK_SIZE)
        n = storage.num_nodes
        if balance == "node":
            bounds = shard_bounds(n, num_shards)
        elif balance == "arc":
            bounds = arc_balanced_bounds(storage.read_degrees(), num_shards)
        else:
            raise GraphError(
                "balance must be 'node' or 'arc', got %r" % (balance,)
            )
        shards = []
        num_arcs = 0
        for index in range(num_shards):
            start, stop = bounds[index], bounds[index + 1]
            shard = _build_shard(storage, index, start, stop, path,
                                 block_size, stats)
            num_arcs += shard.num_arcs
            shards.append(shard)
        return cls(shards, n, num_arcs, stats, bounds, balance=balance)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_shards(self):
        return len(self.shards)

    @property
    def num_edges(self):
        """Number of undirected edges (half the adjacency entries)."""
        return self.num_arcs // 2

    @property
    def io_stats(self):
        """Combined I/O counters of every shard device."""
        return self._stats

    @property
    def max_shard_nodes(self):
        """Largest per-shard row count (owned + halo) -- the memory unit."""
        return max((s.num_local for s in self.shards), default=0)

    @property
    def num_boundary(self):
        """Total halo rows over all shards (cross-shard edge endpoints)."""
        return sum(s.num_boundary for s in self.shards)

    @property
    def max_owned_arcs(self):
        """Largest per-shard owned adjacency count (the slowest pass)."""
        return max((s.num_arcs for s in self.shards), default=0)

    @property
    def mean_owned_arcs(self):
        """Average per-shard owned adjacency count (``m / p``)."""
        if not self.shards:
            return 0.0
        return self.num_arcs / len(self.shards)

    @property
    def arc_skew(self):
        """``max / mean`` owned arcs: 1.0 is a perfectly balanced split."""
        mean = self.mean_owned_arcs
        if mean == 0:
            return 1.0
        return self.max_owned_arcs / mean

    @property
    def halo_bytes(self):
        """Bytes spent on halo state over all shards.

        Each halo row costs a node-table entry (empty adjacency) plus
        one boundary-table entry recording its global id.
        """
        per_row = layout.NODE_ENTRY_SIZE + layout.EDGE_ENTRY_SIZE
        return self.num_boundary * per_row

    @property
    def boundary_fraction(self):
        """Halo rows per owned node -- the cross-shard coupling measure."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_boundary / self.num_nodes

    def shard_of(self, v):
        """The shard owning global node ``v``."""
        if not 0 <= v < self.num_nodes:
            raise GraphError(
                "node %d out of range [0, %d)" % (v, self.num_nodes)
            )
        return self.shards[bisect_right(self.bounds, v) - 1]

    def neighbors(self, v):
        """Global-id adjacency of ``v``, served from its shard only."""
        shard = self.shard_of(v)
        local = shard.graph.neighbors(v - shard.start)
        return shard.to_global(local)

    def close(self):
        """Close every shard's devices."""
        for shard in self.shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return "ShardedGraphStorage(n=%d, m=%d, shards=%d)" % (
            self.num_nodes, self.num_edges, self.num_shards
        )


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _build_shard(storage, index, start, stop, path, block_size, stats):
    """Build one shard from one ranged read of its owned rows.

    The owned range is read as ``iter_adjacency(start, stop)`` reads it
    (:func:`~repro.storage.csr.read_range`), remapped to local ids in
    numpy -- owned ids to ``g - start``, cross-shard ids to
    ``num_owned + rank`` in the sorted boundary table -- and each table
    is written in bulk.  One sort of the cross-shard entries by
    ``(global id, owned row)`` yields the boundary table, each entry's
    rank in it and the reverse table's rows, referrers ascending.  Only
    this shard's arrays are resident.
    """
    degrees, indices = read_range(storage, start, stop)
    owned = stop - start
    cross = (indices < start) | (indices >= stop)
    referrers = np.repeat(np.arange(owned, dtype=np.int64), degrees)[cross]
    outside = indices[cross].astype(np.int64)
    # Ids and ``owned`` are at most 2**32, so the key fits in uint64.
    order = np.argsort(outside.astype(np.uint64) * np.uint64(max(owned, 1))
                       + referrers.astype(np.uint64))
    ordered = outside[order]
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    boundary = ordered[first]
    halo = np.empty(ordered.size, dtype=np.int64)
    halo[order] = np.cumsum(first) - 1
    local = indices - np.uint32(start)
    local[cross] = owned + halo
    shard_path = None
    if path is not None:
        shard_path = "%s.shard%d" % (os.fspath(path), index)
    # Halo rows: degree 0, so their offsets all land on num_arcs.
    local_degrees = np.concatenate(
        [degrees, np.zeros(len(boundary), dtype=np.int64)])
    graph = GraphStorage.from_csr(local_degrees, local, path=shard_path,
                                  block_size=block_size, stats=stats)
    boundary_device = _table_device(shard_path, BOUNDARY_SUFFIX,
                                    block_size, stats)
    boundary_device.write_at(0, layout.pack_header(
        layout.TABLE_BOUNDARY, len(boundary), owned))
    boundary_device.write_at(layout.HEADER_SIZE,
                             boundary.astype("<u4").tobytes())
    row_starts = np.flatnonzero(first)
    entries = np.empty(len(boundary), dtype=NODE_ENTRY_DTYPE)
    entries["offset"] = row_starts
    entries["degree"] = np.diff(np.append(row_starts, ordered.size))
    reverse_device = _table_device(shard_path, REVERSE_SUFFIX,
                                   block_size, stats)
    reverse_device.write_at(layout.HEADER_SIZE, entries.tobytes()
                            + referrers[order].astype("<u4").tobytes())
    reverse_device.write_at(0, layout.pack_header(
        layout.TABLE_REVERSE, len(boundary), ordered.size))
    return Shard(index, start, stop, graph, boundary_device,
                 reverse_device, path=shard_path)


def _table_device(shard_path, suffix, block_size, stats):
    if shard_path is None:
        return MemoryBlockDevice(block_size=block_size, stats=stats)
    return FileBlockDevice(shard_path + suffix, "w+",
                           block_size=block_size, stats=stats)
