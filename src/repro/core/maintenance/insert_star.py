"""SemiInsert*: one-phase edge insertion with optimistic counting.

Algorithm 8 of the paper.  Instead of promoting the whole reachable
candidate set, the expansion is pruned with the in-memory ``cnt`` values
(Lemma 5.3: a node can only be promoted if ``cnt >= cold + 1``), and each
expanded node computes the optimistic count of Eq. 4::

    cnt*(w) = |{x in nbr(w) : core(x) > cold
                or (core(x) = cold and cnt(x) >= cold + 1
                    and x not refuted)}|

A node whose ``cnt*`` reaches ``cold + 1`` is tentatively promoted
(status OK); otherwise it is refuted (status NO) and the refutation
cascades: every tentatively promoted neighbour that counted it loses one
unit of ``cnt*`` and may be refuted in turn.  Survivors are committed at
the end: their core becomes ``cold + 1``, their ``cnt`` is exactly the
converged ``cnt*``, and pre-existing ``cold + 1`` neighbours gain one
``cnt`` unit per surviving neighbour.

Bookkeeping deviation from the arXiv pseudocode (see DESIGN.md): the
published listing adjusts ``cnt`` eagerly while cores are already bumped,
which double-counts promoted neighbours.  Keeping candidate cores at
``cold`` until commit makes the Eq. 2 ``cnt`` values stable during the
whole operation, so the optimistic counts live in a sparse side table and
no recount pass is needed.  The paper's Example 5.3 trace (2 iterations,
5 node computations) is reproduced exactly.
"""

from __future__ import annotations

import heapq
import time

from repro.core.result import MaintenanceResult, io_delta, io_snapshot

_EXPANDED = 0  # "?"  : scheduled, cnt* not yet computed
_OK = 1        # "ok" : cnt* computed and >= cold + 1
_NO = 2        # "no" : refuted


class _InsertState:
    """Sparse per-operation state: statuses, cnt* and an adjacency cache."""

    def __init__(self, graph, cache_limit):
        self.graph = graph
        self.status = {}
        self.cstar = {}
        self.cache = {}
        self.cache_limit = cache_limit
        self.loads = 0

    def neighbors(self, w):
        cached = self.cache.get(w)
        if cached is not None:
            return cached
        nbrs = self.graph.neighbors(w)
        self.loads += 1
        if len(self.cache) < self.cache_limit:
            self.cache[w] = nbrs
        return nbrs


def semi_insert_star(graph, core, cnt, u, v, *, validate=True,
                     cache_limit=65536):
    """Insert edge (u, v) and incrementally repair ``core``/``cnt``.

    ``cache_limit`` bounds how many candidate adjacency lists are kept in
    memory during the operation; beyond it lists are re-read from disk
    (Algorithm 8 line 19: "load nbr(v') from disk if not loaded").
    """
    started = time.perf_counter()
    snapshot = io_snapshot(graph)
    try:
        graph.insert_edge(u, v, validate=validate)
    except TypeError:
        graph.insert_edge(u, v)

    if core[u] > core[v]:
        u, v = v, u
    root = u
    cold = core[root]
    threshold = cold + 1
    cnt[root] += 1
    if core[v] == cold:
        cnt[v] += 1

    state = _InsertState(graph, cache_limit)
    state.status[root] = _EXPANDED
    current = [root]
    iterations = 0
    computations = 0

    def refute(w):
        """Mark ``w`` refuted and cascade cnt* decrements (lines 18-27).

        A tentatively promoted neighbour counted ``x`` iff ``x`` was
        countable when it computed its cnt*: ``cnt(x) >= threshold`` and
        ``x`` not yet refuted.  Refutations are processed synchronously,
        so every currently OK neighbour computed while ``x`` was still
        countable -- decrementing exactly those is exact bookkeeping.
        """
        stack = [w]
        state.status[w] = _NO
        while stack:
            x = stack.pop()
            if cnt[x] < threshold:
                continue  # x was never countable, so nobody counted it
            for y in state.neighbors(x):
                if state.status.get(y) == _OK:
                    state.cstar[y] -= 1
                    if state.cstar[y] < threshold:
                        state.status[y] = _NO
                        stack.append(y)

    while current:
        heapq.heapify(current)
        upcoming = []
        iterations += 1
        while current:
            w = heapq.heappop(current)
            if state.status.get(w) != _EXPANDED:
                continue
            nbrs = state.neighbors(w)
            computations += 1
            cstar = 0
            for x in nbrs:
                cx = core[x]
                if cx > cold:
                    cstar += 1
                elif (cx == cold and cnt[x] >= threshold
                        and state.status.get(x) != _NO):
                    cstar += 1
            state.cstar[w] = cstar
            if cstar >= threshold:
                state.status[w] = _OK
                for x in nbrs:
                    if (core[x] == cold and cnt[x] >= threshold
                            and x not in state.status):
                        state.status[x] = _EXPANDED
                        if x > w:
                            heapq.heappush(current, x)
                        else:
                            upcoming.append(x)
            else:
                refute(w)
        current = upcoming

    # ------------------------------------------------------------------
    # Commit survivors: bump cores, install converged cnt* values, and
    # credit pre-existing (cold + 1)-core neighbours (Eq. 2 maintenance).
    # ------------------------------------------------------------------
    survivors = sorted(
        w for w, s in state.status.items() if s == _OK
    )
    for w in survivors:
        core[w] = threshold
    for w in survivors:
        cnt[w] = state.cstar[w]
    for w in survivors:
        for x in state.neighbors(w):
            if core[x] == threshold and state.status.get(x) != _OK:
                cnt[x] += 1

    return MaintenanceResult(
        algorithm="SemiInsert*",
        operation="insert",
        edge=(u, v),
        changed_nodes=survivors,
        candidate_nodes=len(state.status),
        iterations=max(iterations, 1),
        node_computations=computations,
        io=io_delta(graph, snapshot),
        elapsed_seconds=time.perf_counter() - started,
    )
