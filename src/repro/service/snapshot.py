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

Three properties make this cheap and safe:

* **structural sharing** -- :meth:`EpochSnapshot.advance` copies the row
  *list* (``n`` pointers) but re-reads only the adjacency rows the batch
  touched (its event endpoints); every untouched row object is shared
  with the predecessor snapshot.  The cores array is copied outright
  (``O(n)``, the same cost ``apply()`` already pays per batch).
* **refcounted retirement** -- readers pin a snapshot with
  :meth:`acquire` before their first read and :meth:`release` it after
  the last one.  Publishing retires the predecessor; its buffers are
  dropped only when the last in-flight reader releases, so a reader
  pinned across a swap finishes on its own epoch, never on a mix.
* **the CSR fast path** -- :meth:`csr` lazily materializes the frozen
  rows as a :class:`~repro.storage.csr.CSRGraph` (plus an int32 view of
  the cores), the same batch substrate the vectorized engines compute
  on; ``subgraph`` extraction filters whole adjacency slices at once.
  The build is per-snapshot, thread-safe and
  charged no I/O: the rows were already paid for when the snapshot was
  built from the (I/O-counted) graph.

The snapshot lifecycle is a tiny state machine::

    BUILDING --publish--> CURRENT --swap--> RETIRED --last release--> DROPPED

``BUILDING`` happens on the writer thread only; ``CURRENT`` is the one
pointer readers pin; a ``RETIRED`` snapshot serves only the readers
already pinned to it; ``DROPPED`` frees the buffers.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.kcore import degeneracy


class EpochSnapshot:
    """One epoch's frozen, refcounted read state.

    Instances are immutable once published: ``cores`` and the adjacency
    rows must never be mutated (rows are shared across epochs).  The
    refcount protocol is ``acquire()`` / ``release()`` around reads and
    ``retire()`` by the publisher; ``on_drop`` (when set) fires exactly
    once, when a retired snapshot's last reader releases it.
    """

    __slots__ = ("epoch", "cores", "kmax", "stats", "num_nodes", "_rows",
                 "_refs", "_retired", "_dropped", "_lock", "_csr",
                 "_cores_np", "on_drop")

    #: Fires once, when a retired snapshot's last reader releases it.
    on_drop: Callable[["EpochSnapshot"], None] | None

    def __init__(self, epoch: int, cores: Sequence[int],
                 rows: list[Sequence[int]],
                 stats: dict[str, Any]) -> None:
        self.epoch = epoch
        self.cores = cores
        self.num_nodes = len(cores)
        self.kmax = degeneracy(cores)
        stats = dict(stats)
        stats["epoch"] = epoch
        stats["kmax"] = self.kmax
        stats["num_nodes"] = self.num_nodes
        self.stats = stats
        self._rows: Any = rows
        self._refs = 0
        self._retired = False
        self._dropped = False
        self._lock = threading.Lock()
        self._csr: Any = None
        self._cores_np: Any = None
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
        from array import array

        rows = [nbrs for _, nbrs in graph.iter_adjacency()]
        return cls(epoch, array("i", cores), rows,
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
        from array import array

        rows = list(self._rows)
        for v in sorted(touched):
            rows[v] = graph.neighbors(v)
        return type(self)(epoch, array("i", cores), rows,
                          self._graph_stats(graph, events_applied))

    @staticmethod
    def _graph_stats(graph: Any, events_applied: int) -> dict[str, Any]:
        return {
            "events_applied": events_applied,
            "num_edges": graph.num_edges,
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> Sequence[int]:
        """Frozen adjacency row of node ``v`` (do not mutate)."""
        return self._rows[v]

    def csr(self) -> Any:
        """The snapshot's CSR artifact.

        Built lazily, once, under the snapshot lock -- concurrent
        readers share one :class:`CSRGraph` over the frozen rows.
        """
        with self._lock:
            if self._csr is None:
                from repro.storage.csr import CSRGraph

                rows = self._rows
                self._csr = CSRGraph.from_rows(
                    range(self.num_nodes), self.num_nodes,
                    lambda v: rows[v])
            return self._csr

    def cores_np(self) -> Any:
        """The frozen cores as an int32 numpy view."""
        with self._lock:
            if self._cores_np is None:
                self._cores_np = np.frombuffer(self.cores, dtype=np.int32)
            return self._cores_np

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
        self._csr = None
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
