"""Immutable per-epoch snapshots: the read plane of the service.

Snapshot isolation splits :class:`~repro.service.core_service.CoreService`
into two planes.  The *write plane* -- the :class:`CoreMaintainer`, its
``core``/``cnt`` arrays and the mutable :class:`DynamicGraph` -- is
private to ``apply()``; no read ever touches it.  The *read plane* is an
:class:`EpochSnapshot`: a frozen ``core[]`` copy, a frozen per-node
adjacency (the rows the ``subgraph`` query walks) and the coherent stats
triple of one epoch.  ``apply()`` builds the next epoch's snapshot from
the private state and publishes it with a single pointer swap, so a
threaded front end keeps answering under write load with no torn reads.

Every read answer is a function of one snapshot, and these properties
make that cheap and safe:

* **structural sharing** -- :meth:`EpochSnapshot.advance` copies the row
  *list* (``n`` pointers) but re-reads only the adjacency rows the batch
  touched (its event endpoints); every untouched row object is shared
  with the predecessor snapshot.  The cores array is copied outright
  (``O(n)``, the same cost ``apply()`` already pays per batch).
* **the coreness layout** -- the constructor sorts the nodes once,
  vectorized, by descending core number then ascending id, and counts
  the nodes at or above every core value.  ``members``, ``top``,
  ``histogram`` and ``degeneracy`` are then slices and lookups of that
  layout; ``subgraph`` filters the member rows in one numpy pass and is
  memoized on the snapshot, one entry per distinct k-core.  A miss
  filters the smallest memoized k-core that contains the asked one
  (k-cores nest), sharing its edge tuples, before it falls back to the
  rows.
* **the carried memo** -- ``advance`` hands every memo entry on to the
  next epoch before it is published.  A batch moves core numbers by
  little and only near its edges, so a k-core's edge set changes by the
  touched rows' edges and the edges of the nodes whose k-membership
  flipped.  An entry with no such change is shared as the same object;
  any other is spliced: its removed and added edges are located by
  bisection in the lexicographically sorted tuple, and the new tuple is
  built from slices of the old one.  No device is read for it.
* **refcounted retirement** -- readers pin a snapshot with
  :meth:`acquire` before their first read and :meth:`release` it after
  the last one.  Publishing retires the predecessor; its buffers (and
  its memo) are dropped only when the last in-flight reader releases, so
  a reader pinned across a swap finishes on its own epoch, never on a
  mix.

The snapshot lifecycle is a tiny state machine::

    BUILDING --publish--> CURRENT --swap--> RETIRED --last release--> DROPPED

``BUILDING`` happens on the writer thread only; ``CURRENT`` is the one
pointer readers pin; a ``RETIRED`` snapshot serves only the readers
already pinned to it; ``DROPPED`` frees the buffers.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from itertools import compress
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.storage import layout


class CacheStats:
    """Counters of the ``subgraph`` memo, surfaced next to IOStats.

    Only ``subgraph`` reads probe the memo (``hits``, ``misses``); every
    other read is a slice of the snapshot layout and counts nothing
    here.  Each published ``advance`` adds the entries it handed on
    unchanged (``carried``, shared as the same object) and the ones it
    spliced by the batch's edge delta (``patched``).  ``evictions``,
    ``invalidations`` and ``stale`` stay 0: an entry is exact for the
    snapshot that holds it, so none is ever evicted, invalidated or
    read at another epoch.
    """

    __slots__ = ("hits", "misses", "carried", "patched", "evictions",
                 "invalidations", "stale")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.carried = 0
        self.patched = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale = 0

    @property
    def lookups(self):
        """Total number of memo probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self):
        """Fraction of probes served from the memo (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self):
        """Plain-dict view for reports and manifests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "carried": self.carried,
            "patched": self.patched,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale": self.stale,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return ("CacheStats(hits=%d, misses=%d, carried=%d, patched=%d, "
                "evictions=%d, invalidations=%d)"
                % (self.hits, self.misses, self.carried, self.patched,
                   self.evictions, self.invalidations))


def _row_array(row: Sequence[int]) -> array:
    """``row`` as a uint32 ``array`` (shared when it already is one)."""
    if isinstance(row, array) and row.typecode == layout.EDGE_TYPECODE:
        return row
    return array(layout.EDGE_TYPECODE, row)


def _splice(entry: tuple, removed: Iterable[tuple[int, int]],
            added: Iterable[tuple[int, int]]) -> tuple:
    """``entry`` (sorted edges) without ``removed`` and with ``added``.

    Every removed edge is in ``entry`` and no added one is, so bisection
    finds each cut; the result is slices of ``entry`` around the cuts.
    An added edge cut at the index of a removed one sorts before it.
    """
    cuts = sorted([(bisect_left(entry, edge), 1, edge) for edge in removed]
                  + [(bisect_left(entry, edge), 0, edge) for edge in added])
    out = []
    start = 0
    for at, drop, edge in cuts:
        out.extend(entry[start:at])
        if drop:
            start = at + 1
        else:
            start = at
            out.append(edge)
    out.extend(entry[start:])
    return tuple(out)


class EpochSnapshot:
    """One epoch's frozen, refcounted read state.

    Instances are immutable once published: ``cores`` is a read-only
    int32 array and the adjacency rows must never be mutated (rows are
    shared across epochs).  The refcount protocol is ``acquire()`` /
    ``release()`` around reads and ``retire()`` by the publisher;
    ``on_drop`` (when set) fires exactly once, when a retired snapshot's
    last reader releases it.
    """

    __slots__ = ("epoch", "cores", "kmax", "stats", "num_nodes", "_rows",
                 "_ids", "_order", "_at_least", "_histogram", "_subgraphs",
                 "carried", "patched", "_refs", "_retired", "_dropped",
                 "_lock", "on_drop")

    #: Fires once, when a retired snapshot's last reader releases it.
    on_drop: Callable[["EpochSnapshot"], None] | None

    def __init__(self, epoch: int, cores: Sequence[int],
                 rows: list[Sequence[int]], stats: dict[str, Any], *,
                 ids: list[int] | None = None) -> None:
        self.epoch = epoch
        self.cores = np.array(cores, dtype=np.int32)
        self.cores.flags.writeable = False
        self.num_nodes = len(self.cores)
        # The coreness layout: nodes by descending core, ascending id;
        # ``_at_least[k]`` nodes have core >= k, so the k-core is the
        # head ``_order[:_at_least[k]]``.
        self._order = np.argsort(-self.cores, kind="stable")
        counts = np.bincount(self.cores, minlength=1)
        self._at_least = np.cumsum(counts[::-1])[::-1]
        self.kmax = len(counts) - 1
        self._histogram = {k: int(count)
                           for k, count in enumerate(counts) if count}
        stats = dict(stats)
        stats["epoch"] = epoch
        stats["kmax"] = self.kmax
        stats["num_nodes"] = self.num_nodes
        self.stats = stats
        self._rows: Any = rows
        #: One int object per node id, shared by every edge tuple of
        #: every epoch's memo.
        self._ids = ids if ids is not None else list(range(self.num_nodes))
        #: ``subgraph`` answers keyed by k-core size: thresholds with the
        #: same member set share one entry.
        self._subgraphs: dict[int, tuple] = {}
        #: Memo entries ``advance`` handed on unchanged / spliced.
        self.carried = 0
        self.patched = 0
        self._refs = 0
        self._retired = False
        self._dropped = False
        self._lock = threading.Lock()
        self.on_drop = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: Any, cores: Sequence[int], *, epoch: int,
              events_applied: int) -> "EpochSnapshot":
        """Materialize a full snapshot of ``graph`` + ``cores``.

        One sequential adjacency scan, charged through whatever I/O
        accounting ``graph`` has -- the same figure any full-scan pass
        pays.  Used once per service lifetime (seeding / open); every
        later epoch advances incrementally.
        """
        rows = [nbrs for _, nbrs in graph.iter_adjacency()]
        return cls(epoch, cores, rows,
                   cls._graph_stats(graph, events_applied))

    def advance(self, graph: Any, cores: Sequence[int], *, epoch: int,
                events_applied: int,
                touched: Iterable[int]) -> "EpochSnapshot":
        """The next epoch's snapshot, sharing every untouched row.

        ``touched`` are the nodes whose adjacency the batch changed (its
        event endpoints); only their rows are re-read from the graph --
        per-node reads, I/O-counted as always.  Core numbers may have
        changed anywhere, so the cores array is copied in full.  The
        ``subgraph`` memo is carried over (see :meth:`_carry`) before
        the snapshot is returned, so no reader sees it half filled.
        """
        touched = sorted(touched)
        rows = list(self._rows)
        for v in touched:
            rows[v] = graph.neighbors(v)
        snapshot = type(self)(epoch, cores, rows,
                              self._graph_stats(graph, events_applied),
                              ids=self._ids)
        # Readers pinned to ``self`` may fill its memo meanwhile; the
        # copy is taken under the lock they insert under.
        with self._lock:
            memo = dict(self._subgraphs)
        snapshot._carry(self, memo, touched)
        return snapshot

    def _carry(self, old: "EpochSnapshot", memo: dict[int, tuple],
               touched: list[int]) -> None:
        """Fill the memo from ``old``'s, patched by the batch's delta.

        Each threshold ``k`` that ``memo`` answers is patched once per
        distinct new k-core size.  Its removed and added edges come
        from two places: the rows of ``touched`` nodes, old against new
        (the batch's own edges), and every edge of a node whose core
        crossed ``k`` (old cores against new).  No other edge can
        change: both its endpoints kept their rows and membership.
        """
        if not memo:
            return
        ids = self._ids
        old_cores, new_cores = old.cores, self.cores
        old_rows, new_rows = old._rows, self._rows
        changed = np.flatnonzero(old_cores != new_cores)
        low = np.minimum(old_cores[changed], new_cores[changed])
        high = np.maximum(old_cores[changed], new_cores[changed])

        def edge(a, b):
            return (ids[a], ids[b]) if a < b else (ids[b], ids[a])

        gone, came = set(), set()
        for v in touched:
            before, after = set(old_rows[v]), set(new_rows[v])
            gone.update(edge(v, x) for x in before - after)
            came.update(edge(v, x) for x in after - before)
        entries = {}
        for k in range(old.kmax + 2):
            entry = memo.get(old.kcore_size(k))
            size = self.kcore_size(k)
            if entry is None or size in entries:
                continue
            removed = {(u, v) for u, v in gone
                       if old_cores[u] >= k and old_cores[v] >= k}
            added = {(u, v) for u, v in came
                     if new_cores[u] >= k and new_cores[v] >= k}
            for w in changed[(low < k) & (high >= k)].tolist():
                leaving = old_cores[w] >= k
                cores = old_cores if leaving else new_cores
                row = (old_rows if leaving else new_rows)[w]
                nbrs = np.frombuffer(_row_array(row), dtype=np.uint32)
                (removed if leaving else added).update(
                    edge(w, x) for x in nbrs[cores[nbrs] >= k].tolist())
            if removed or added:
                entries[size] = _splice(entry, removed, added)
                self.patched += 1
            else:
                entries[size] = entry
                self.carried += 1
        with self._lock:
            self._subgraphs = entries

    @staticmethod
    def _graph_stats(graph: Any, events_applied: int) -> dict[str, Any]:
        return {
            "events_applied": events_applied,
            "num_edges": graph.num_edges,
        }

    # ------------------------------------------------------------------
    # reads (arguments are validated by the caller)
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> Sequence[int]:
        """Frozen adjacency row of node ``v`` (do not mutate)."""
        return self._rows[v]

    def kcore_size(self, k: int) -> int:
        """Number of nodes with core number >= ``k``."""
        return int(self._at_least[k]) if k <= self.kmax else 0

    def members(self, k: int) -> list[int]:
        """Ascending node ids of the k-core."""
        return np.sort(self._order[:self.kcore_size(k)]).tolist()

    def top(self, k: int) -> list[tuple[int, int]]:
        """The ``k`` first ``(node, core)`` pairs of the layout."""
        nodes = self._order[:k]
        return list(zip(nodes.tolist(), self.cores[nodes].tolist()))

    def histogram(self) -> dict[int, int]:
        """Mapping ``core number -> node count`` (a copy)."""
        return dict(self._histogram)

    def subgraph(self, k: int) -> tuple[tuple[tuple[int, int], ...], bool]:
        """The k-core's ``(u, v)`` edges with ``u < v``, and a memo-hit flag.

        Edges come in ascending ``u``, then row order (rows are sorted).
        A miss filters the smallest memoized k-core larger than this one
        (k-cores nest, so it holds every edge, in order) and shares its
        tuples; with none memoized it builds from the member rows.
        Extraction runs outside the lock: two readers racing on one miss
        both extract (equal answers) and both count a miss.
        """
        size = self.kcore_size(k)
        with self._lock:
            edges = self._subgraphs.get(size)
            outer = min((s for s in self._subgraphs if s > size),
                        default=None)
            superset = self._subgraphs[outer] if outer else None
        if edges is not None:
            return edges, True
        if superset is not None:
            # The k-core of ``outer`` nodes is the core-``c`` one, ``c``
            # the smallest core among its members.
            owners, nbrs = self._arcs(int(self.cores[self._order[outer - 1]]))
            keep = (self.cores[owners] >= k) & (self.cores[nbrs] >= k)
            edges = tuple(compress(superset, keep.tolist()))
        else:
            owners, nbrs = self._arcs(k)
            ids = self._ids.__getitem__
            edges = tuple(zip(map(ids, owners.tolist()),
                              map(ids, nbrs.tolist())))
        with self._lock:
            self._subgraphs[size] = edges
        return edges, False

    def _arcs(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k-core's ``(u, v)`` edges, ``u < v``, as two arrays in order."""
        members = np.sort(self._order[:self.kcore_size(k)])
        rows = [self._rows[v] for v in members.tolist()]
        nbrs = np.frombuffer(b"".join(map(_row_array, rows)),
                             dtype=np.uint32)
        owners = np.repeat(members, [len(row) for row in rows])
        keep = (nbrs > owners) & (self.cores[nbrs] >= k)
        return owners[keep], nbrs[keep]

    @property
    def memo_entries(self) -> int:
        """Number of memoized ``subgraph`` answers (diagnostics)."""
        return len(self._subgraphs)

    # ------------------------------------------------------------------
    # refcount protocol
    # ------------------------------------------------------------------
    def acquire(self) -> "EpochSnapshot":
        """Pin the snapshot for reading; pairs with :meth:`release`."""
        with self._lock:
            if self._dropped:
                raise RuntimeError(
                    "snapshot of epoch %d was already dropped" % self.epoch)
            self._refs += 1
        return self

    def release(self) -> None:
        """Unpin; a retired snapshot drops on its last release."""
        with self._lock:
            if self._refs <= 0:
                raise RuntimeError(
                    "unbalanced release of epoch %d snapshot" % self.epoch)
            self._refs -= 1
            drop = self._retired and self._refs == 0
        if drop:
            self._drop()

    def retire(self) -> None:
        """Mark superseded; drops now unless readers are still pinned."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            drop = self._refs == 0
        if drop:
            self._drop()

    def _drop(self) -> None:
        """Free the buffers; fires ``on_drop`` exactly once."""
        self._dropped = True
        self._rows = None
        self._subgraphs = {}
        callback = self.on_drop
        if callback is not None:
            self.on_drop = None
            callback(self)

    @property
    def refcount(self) -> int:
        """Number of in-flight pins (diagnostics)."""
        return self._refs

    @property
    def retired(self) -> bool:
        """True once a newer epoch was published over this one."""
        return self._retired

    @property
    def dropped(self) -> bool:
        """True once retired with no readers left (buffers freed)."""
        return self._dropped

    def __repr__(self) -> str:
        state = ("dropped" if self._dropped
                 else "retired" if self._retired else "current")
        return "EpochSnapshot(epoch=%d, kmax=%d, refs=%d, %s)" % (
            self.epoch, self.kmax, self._refs, state)


class SnapshotView:
    """The read API of a :class:`CoreService`, pinned to one epoch.

    Obtained from :meth:`CoreService.read_view`; every query answered
    through the view -- and the ``epoch`` / ``stats`` it reports -- comes
    from the same snapshot, however many swaps happen meanwhile.  Use as
    a context manager (or call :meth:`close`) so the pinned snapshot can
    retire; queries after close raise.
    """

    __slots__ = ("_service", "_snapshot", "_closed")

    def __init__(self, service: Any, snapshot: EpochSnapshot) -> None:
        self._service = service
        self._snapshot = snapshot
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the pinned snapshot (idempotent)."""
        if not self._closed:
            self._closed = True
            self._snapshot.release()

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False

    # -- coherent metadata --------------------------------------------------
    @property
    def epoch(self) -> int:
        """The pinned epoch."""
        return self._snapshot.epoch

    @property
    def snapshot(self) -> EpochSnapshot:
        """The pinned :class:`EpochSnapshot` (diagnostics)."""
        return self._snapshot

    @property
    def stats(self) -> dict[str, Any]:
        """The pinned epoch's coherent stats triple (a copy)."""
        return dict(self._snapshot.stats)

    # -- the read API, bound to the pinned epoch ----------------------------
    def _snap(self) -> EpochSnapshot:
        if self._closed:
            raise RuntimeError("read view was closed")
        return self._snapshot

    def coreness(self, v: int) -> int:
        return self._service._coreness(self._snap(), v)

    def coreness_many(self, nodes: Iterable[int]) -> list[int]:
        return self._service._coreness_many(self._snap(), nodes)

    def kcore_members(self, k: int) -> list[int]:
        return self._service._kcore_members(self._snap(), k)

    def kcore_subgraph(self, k: int) -> Any:
        return self._service._kcore_subgraph(self._snap(), k)

    def core_histogram(self) -> dict[int, int]:
        return self._service._core_histogram(self._snap())

    def top_k(self, k: int) -> list[tuple[int, int]]:
        return self._service._top_k(self._snap(), k)

    def degeneracy(self) -> int:
        return self._service._degeneracy(self._snap())

    def __repr__(self) -> str:
        return "SnapshotView(epoch=%d, closed=%s)" % (
            self._snapshot.epoch, self._closed)
