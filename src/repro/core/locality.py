"""The locality property of core numbers (Theorem 4.1 / Eq. 1).

Core numbers are the unique fixpoint of the local recurrence

    core(v) = max k  s.t.  |{u in nbr(v) : core(u) >= k}| >= k        (Eq. 1)

starting from any pointwise upper bound.  :func:`local_core` is the
``LocalCore`` procedure of Algorithm 3: one O(deg(v)) evaluation of the
right-hand side, clamped by the current value ``cold`` (values never
increase during the fixpoint iteration).
"""

from __future__ import annotations

from array import array

from repro.errors import GraphError


def initial_bounds(graph, initial_cores):
    """The pass-0 upper bound on every core number, as ``array('i')``.

    The degrees when ``initial_cores`` is ``None``; otherwise a copy of
    ``initial_cores``, which must hold one non-negative entry per node
    (Section IV-A: any pointwise upper bound converges).  Every engine
    takes its bound from here, so all of them reject the same inputs
    with :class:`~repro.errors.GraphError`.
    """
    if initial_cores is None:
        return graph.read_degrees()
    n = graph.num_nodes
    if len(initial_cores) != n:
        raise GraphError(
            "initial_cores has %d entries, expected %d"
            % (len(initial_cores), n)
        )
    core = array("i", initial_cores)
    low = min(core, default=0)
    if low < 0:
        raise GraphError(
            "initial_cores[%d] is %d; core bounds must be non-negative"
            % (core.index(low), low)
        )
    return core


def local_core(core, neighbors, cold):
    """One application of Eq. 1 for a node with current value ``cold``.

    Parameters
    ----------
    core:
        Indexable of current core values for every node.
    neighbors:
        Iterable of neighbour ids of the node being recomputed.
    cold:
        The node's current (upper-bound) core value; the result is the
        largest ``k <= cold`` with at least ``k`` neighbours of value
        ``>= k``.
    """
    if cold <= 0:
        return 0
    num = [0] * (cold + 1)
    for u in neighbors:
        c = core[u]
        num[c if c < cold else cold] += 1
    s = 0
    for k in range(cold, 0, -1):
        s += num[k]
        if s >= k:
            return k
    return 0


def compute_cnt(core, neighbors, k):
    """``|{u in neighbors : core(u) >= k}|`` -- Eq. 2 for threshold ``k``."""
    s = 0
    for u in neighbors:
        if core[u] >= k:
            s += 1
    return s


def satisfies_locality(cores, neighbors_of, num_nodes):
    """Check both conditions of Theorem 4.1 for every node.

    Every node ``v`` must have at least ``core(v)`` neighbours with value
    ``>= core(v)`` and fewer than ``core(v) + 1`` neighbours with value
    ``>= core(v) + 1``.  The true core numbers always satisfy both
    conditions, and any pointwise *over*-estimate violates them; certain
    consistent under-estimates (e.g. a clique uniformly undervalued) also
    satisfy them, which is why Theorem 4.1 is applied as a fixpoint
    iterated downward from an upper bound rather than as a standalone
    certificate.
    """
    for v in range(num_nodes):
        k = cores[v]
        at_level = 0
        above_level = 0
        for u in neighbors_of(v):
            c = cores[u]
            if c >= k:
                at_level += 1
            if c >= k + 1:
                above_level += 1
        if at_level < k:
            return False
        if above_level >= k + 1:
            return False
    return True
