"""CoreMaintainer: the high-level dynamic-graph API.

Owns the semi-external node state (``core`` and ``cnt`` arrays) alongside
a mutable graph and routes edge updates to the maintenance algorithms.
This is the object a downstream application keeps alive while its graph
streams updates::

    maintainer = CoreMaintainer.from_storage(storage)
    maintainer.insert_edge(u, v)          # SemiInsert* by default
    maintainer.delete_edge(u, v)          # SemiDelete*
    maintainer.core(v), maintainer.kmax
"""

from __future__ import annotations

from array import array

from repro.core.kcore import core_histogram, degeneracy, k_core_nodes
from repro.core.maintenance.delete_star import semi_delete_star
from repro.core.maintenance.insert import semi_insert
from repro.core.maintenance.insert_star import semi_insert_star
from repro.core.semicore_star import semi_core_star
from repro.errors import GraphError
from repro.storage.dynamic import DynamicGraph

INSERT_ALGORITHMS = ("star", "two-phase")


class CoreMaintainer:
    """Incrementally maintained core decomposition of a dynamic graph."""

    def __init__(self, graph, cores, cnt):
        """Wrap ``graph`` with existing ``core``/``cnt`` arrays.

        Most callers should use :meth:`from_storage` or :meth:`from_graph`
        which compute the arrays with SemiCore*.
        """
        if len(cores) != graph.num_nodes or len(cnt) != graph.num_nodes:
            raise GraphError(
                "core/cnt arrays (%d/%d entries) do not match n=%d"
                % (len(cores), len(cnt), graph.num_nodes)
            )
        self.graph = graph
        self._core = array("i", cores)
        self._cnt = array("i", cnt)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_storage(cls, storage, *, buffer_capacity=65536,
                     path_factory=None, engine=None):
        """Wrap on-disk storage: runs SemiCore* once to seed the state."""
        graph = DynamicGraph(storage, buffer_capacity=buffer_capacity,
                             path_factory=path_factory)
        return cls.from_graph(graph, engine=engine)

    @classmethod
    def from_graph(cls, graph, *, engine=None):
        """Seed the maintainer from any graph with the read protocol.

        ``engine`` runs the seeding SemiCore* (bit-identical arrays under
        every engine); updates always run the maintenance algorithms of
        :mod:`repro.core.maintenance`.
        """
        result = semi_core_star(graph, engine=engine)
        return cls(graph, result.cores, result.cnt)

    # -- queries --------------------------------------------------------------
    @property
    def cores(self):
        """The maintained core numbers (live view, do not mutate)."""
        return self._core

    @property
    def cnt(self):
        """The maintained Eq. 2 counters (live view, do not mutate)."""
        return self._cnt

    def core(self, v):
        """Core number of node ``v``."""
        return self._core[v]

    @property
    def kmax(self):
        """Current degeneracy (largest core number)."""
        return degeneracy(self._core)

    def k_core(self, k):
        """Node ids of the current k-core."""
        return k_core_nodes(self._core, k)

    def histogram(self):
        """Current ``k -> node count`` histogram."""
        return core_histogram(self._core)

    # -- updates --------------------------------------------------------------
    def insert_edge(self, u, v, *, algorithm="star", validate=True):
        """Insert an edge and repair the decomposition incrementally.

        ``algorithm`` selects ``"star"`` (SemiInsert*, Algorithm 8) or
        ``"two-phase"`` (SemiInsert, Algorithm 7).
        """
        if algorithm == "star":
            return semi_insert_star(self.graph, self._core, self._cnt,
                                    u, v, validate=validate)
        if algorithm == "two-phase":
            return semi_insert(self.graph, self._core, self._cnt,
                               u, v, validate=validate)
        raise ValueError(
            "unknown insert algorithm %r (choose from %r)"
            % (algorithm, INSERT_ALGORITHMS)
        )

    def delete_edge(self, u, v, *, validate=True):
        """Delete an edge and repair the decomposition incrementally."""
        return semi_delete_star(self.graph, self._core, self._cnt,
                                u, v, validate=validate)

    def apply_batch(self, operations, *, algorithm="star", validate=True):
        """Apply a sequence of ``("+"|"-", u, v)`` operations.

        Returns a summary dict with per-kind counts, the total changed
        nodes and the aggregate I/O.  Operations are applied in order --
        core maintenance is not commutative -- but the shared edge
        buffer batches the physical writes, so a long batch costs one
        compaction instead of one rewrite per update.
        """
        from repro.core.result import io_delta, io_snapshot

        snapshot = io_snapshot(self.graph)
        inserts = deletes = 0
        changed = set()
        computations = 0
        for kind, u, v in operations:
            if kind == "+":
                result = self.insert_edge(u, v, algorithm=algorithm,
                                          validate=validate)
                inserts += 1
            elif kind == "-":
                result = self.delete_edge(u, v, validate=validate)
                deletes += 1
            else:
                raise ValueError(
                    "operation kind must be '+' or '-', got %r" % (kind,))
            changed.update(result.changed_nodes)
            computations += result.node_computations
        return {
            "inserts": inserts,
            "deletes": deletes,
            "changed_nodes": sorted(changed),
            "node_computations": computations,
            "io": io_delta(self.graph, snapshot),
        }

    # -- persistence --------------------------------------------------------
    def save_state(self, path):
        """Checkpoint the maintained core/cnt arrays to ``path``.

        Restarting a maintenance service then costs a file read instead
        of a full SemiCore* seeding run; see :meth:`resume`.
        """
        from repro.storage.state import save_checkpoint

        save_checkpoint(path, self.graph, self._core, self._cnt)

    @classmethod
    def resume(cls, graph, path):
        """Rebuild a maintainer from a checkpoint taken on ``graph``.

        The checkpoint's graph fingerprint (node and arc counts) must
        match; otherwise :class:`~repro.errors.CorruptStorageError` is
        raised and the caller should reseed with :meth:`from_graph`.
        """
        from repro.storage.state import load_checkpoint

        cores, cnt = load_checkpoint(path, graph)
        return cls(graph, cores, cnt)

    # -- diagnostics --------------------------------------------------------
    def verify(self):
        """Recompute from scratch and compare (returns True when exact).

        Debug helper: runs SemiCore* on the current graph and checks both
        the cores and the Eq. 2 counters.
        """
        fresh = semi_core_star(self.graph)
        return (list(fresh.cores) == list(self._core)
                and list(fresh.cnt) == list(self._cnt))

    def __repr__(self):
        return "CoreMaintainer(n=%d, kmax=%d)" % (
            self.graph.num_nodes, self.kmax)
