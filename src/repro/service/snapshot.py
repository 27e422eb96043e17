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
  memoized on the snapshot, one entry per distinct k-core.
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
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.storage import layout


class CacheStats:
    """Probe counters of the ``subgraph`` memo, surfaced next to IOStats.

    Only ``subgraph`` reads probe the memo; every other read is a slice
    of the snapshot layout and counts nothing here.  ``evictions``,
    ``invalidations`` and ``stale`` stay 0: a memo lives and dies with
    its snapshot, so no entry is ever evicted, invalidated or read at
    another epoch.
    """

    __slots__ = ("hits", "misses", "evictions", "invalidations", "stale")

    def __init__(self):
        self.hits = 0
        self.misses = 0
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
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale": self.stale,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return ("CacheStats(hits=%d, misses=%d, evictions=%d, "
                "invalidations=%d)" % (self.hits, self.misses,
                                       self.evictions, self.invalidations))


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
                 "_order", "_at_least", "_histogram", "_subgraphs",
                 "_refs", "_retired", "_dropped", "_lock", "on_drop")

    #: Fires once, when a retired snapshot's last reader releases it.
    on_drop: Callable[["EpochSnapshot"], None] | None

    def __init__(self, epoch: int, cores: Sequence[int],
                 rows: list[Sequence[int]],
                 stats: dict[str, Any]) -> None:
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
        #: ``subgraph`` answers keyed by k-core size: thresholds with the
        #: same member set share one entry.
        self._subgraphs: dict[int, tuple] = {}
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
        changed anywhere, so the cores array is copied in full.
        """
        rows = list(self._rows)
        for v in sorted(touched):
            rows[v] = graph.neighbors(v)
        return type(self)(epoch, cores, rows,
                          self._graph_stats(graph, events_applied))

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
        Extraction runs outside the lock: two readers racing on one miss
        both extract (equal answers) and both count a miss.
        """
        size = self.kcore_size(k)
        with self._lock:
            edges = self._subgraphs.get(size)
        if edges is not None:
            return edges, True
        members = np.sort(self._order[:size])
        rows = [self._rows[v] for v in members.tolist()]
        nbrs = np.frombuffer(b"".join(
            row if isinstance(row, array)
            and row.typecode == layout.EDGE_TYPECODE
            else array(layout.EDGE_TYPECODE, row) for row in rows),
            dtype=np.uint32)
        owners = np.repeat(members, [len(row) for row in rows])
        keep = (nbrs > owners) & (self.cores[nbrs] >= k)
        edges = tuple(zip(owners[keep].tolist(), nbrs[keep].tolist()))
        with self._lock:
            self._subgraphs[size] = edges
        return edges, False

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
