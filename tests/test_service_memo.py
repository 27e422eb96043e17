"""The ``subgraph`` memo carried across epochs by ``EpochSnapshot.advance``.

Every memo entry a batch hands on -- shared unchanged or spliced by the
batch's edge delta -- must equal, in exact order, what a cold build on a
fresh snapshot of the same rows and cores returns, and the k-core of an
independent IMCore run.  The isolation tests pin down what the carry
may share and what it must never touch.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.imcore import im_core
from repro.core.kcore import k_core_subgraph
from repro.datasets.generators import social_graph
from repro.service import CoreService
from repro.service.snapshot import EpochSnapshot
from repro.service.workload import generate_updates, in_batches
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import graph_edges
from tests.test_service_concurrent import _stress_seed

#: Two 5-cliques joined by one edge, plus the path 10-11-12-13.
TWO_CLIQUES = ([(u, v) for u in range(5) for v in range(u + 1, 5)]
               + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
               + [(4, 5), (10, 11), (11, 12), (12, 13)], 14)


def _star(n):
    return [(0, v) for v in range(1, n)], n


def _clique(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)], n


def _hubs(n):
    """Two stars, hubs 0 and 1, leaves dealt alternately, 2 isolated."""
    return [(v % 2, v) for v in range(2, n - 2)], n


GRAPHS = st.one_of(
    st.just(([], 0)), st.just(([], 1)),
    st.integers(2, 8).map(lambda n: ([], n)),
    st.integers(2, 9).map(_star), st.integers(2, 7).map(_clique),
    st.integers(6, 11).map(_hubs), graph_edges(max_nodes=11))


def _service(edges, n):
    return CoreService.from_storage(GraphStorage.from_edges(edges, n))


def _prime(service):
    for k in range(service.degeneracy() + 2):
        service.kcore_subgraph(k)


def _key(u, v):
    return (u, v) if u < v else (v, u)


@st.composite
def _batch(draw, present, n):
    """A valid batch against edge set ``present`` (updated in place).

    ``random`` toggles a few pairs and may undo one inside the batch
    (``+e``/``-e`` of one edge); ``clique`` completes a node subset
    into a clique (raises kmax); ``strip`` deletes every edge of the
    top core's nodes (lowers kmax).
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["random", "clique", "strip"]))
    events = []
    if kind == "random":
        for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1,
                                  max_size=4, unique=True)):
            op = "-" if (u, v) in present else "+"
            events.append((op, u, v))
            if draw(st.booleans()):
                events.append(("+" if op == "-" else "-", v, u))
    elif kind == "clique":
        nodes = draw(st.lists(st.integers(0, n - 1), min_size=2,
                              max_size=min(n, 6), unique=True))
        events = [("+", u, v) for u in nodes for v in nodes
                  if u < v and (u, v) not in present]
    else:
        cores = im_core(MemoryGraph.from_edges(sorted(present), n)).cores
        top = {v for v in range(n) if cores[v] == max(cores)}
        events = [("-", u, v) for u, v in sorted(present)
                  if u in top or v in top]
    for op, u, v in events:
        (present.add if op == "+" else present.discard)(_key(u, v))
    return events


def assert_memo_exact(service, present):
    """Every memo entry of the published snapshot against two oracles."""
    snap = service._snapshot
    n = snap.num_nodes
    graph = MemoryGraph.from_edges(sorted(present), n)
    cores = im_core(graph).cores
    assert snap.cores.tolist() == list(cores)
    rows = [service.graph.neighbors(v) for v in range(n)]
    keys = set()
    for k in range(snap.kmax + 2):
        size = snap.kcore_size(k)
        keys.add(size)
        entry = snap._subgraphs.get(size)
        if entry is None:
            continue
        cold, hit = EpochSnapshot(snap.epoch, cores, rows, {}).subgraph(k)
        assert not hit
        assert entry == cold
        assert entry == tuple(sorted(k_core_subgraph(graph, cores, k)
                                     .edges()))
        assert all(type(u) is int and type(v) is int for u, v in entry)
    assert set(snap._subgraphs) <= keys


@settings(max_examples=150, deadline=None)
@given(graph=GRAPHS, data=st.data())
def test_carried_memo_equals_cold_builds(graph, data):
    edges, n = graph
    service = _service(edges, n)
    present = {_key(u, v) for u, v in edges}
    steps = data.draw(st.integers(1, 4)) if n >= 2 else 0
    for _ in range(steps):
        _prime(service)
        entries = dict(service._snapshot._subgraphs)
        if data.draw(st.booleans(), label="quarantine advance"):
            # The no-op epoch of a quarantined batch: rows and cores
            # stay, so every entry is handed on as the same object.
            service._skip_quarantined(service.epoch + 1, [])
            new = service._snapshot
            assert new.patched == 0
            assert new._subgraphs.keys() == entries.keys()
            assert all(new._subgraphs[size] is entry
                       for size, entry in entries.items())
        else:
            batch = data.draw(_batch(present, n), label="batch")
            if not batch:
                continue
            service.apply(batch)
            new = service._snapshot
        assert new.carried + new.patched == new.memo_entries
        assert_memo_exact(service, present)
    _prime(service)
    assert_memo_exact(service, present)


def test_counters_add_up_across_batches():
    edges, n = social_graph(120, attach=3, clique=7, seed=2)
    service = _service(edges, n)
    _prime(service)
    carried = patched = 0
    for batch in in_batches(generate_updates(edges, n, 24, seed=4), 3):
        service.apply(batch)
        carried += service._snapshot.carried
        patched += service._snapshot.patched
        _prime(service)
    stats = service.cache_stats
    assert (stats.carried, stats.patched) == (carried, patched)
    assert patched > 0 and carried > 0
    assert service.stats()["cache"]["patched"] == patched
    assert "carried=%d" % carried in repr(stats)


class TestIsolation:
    def test_pinned_view_answers_its_own_epoch(self):
        edges, n = TWO_CLIQUES
        service = _service(edges, n)
        _prime(service)
        kmax = service.degeneracy()
        before = {k: service.kcore_subgraph(k) for k in range(kmax + 2)}
        with service.read_view() as view:
            service.apply([("+", 3, 6), ("-", 0, 1), ("+", 11, 13)])
            assert service.epoch == view.epoch + 1
            for k in range(kmax + 2):
                assert view.kcore_subgraph(k) == before[k]
            assert any(service.kcore_subgraph(k) != before[k]
                       for k in range(kmax + 2))

    def test_predecessor_tuples_are_never_mutated(self):
        edges, n = TWO_CLIQUES
        service = _service(edges, n)
        _prime(service)
        with service.read_view() as view:
            old = view.snapshot
            entries = dict(old._subgraphs)
            contents = {size: list(entry) for size, entry in entries.items()}
            service.apply([("+", 0, 9), ("-", 5, 6)])
            assert service._snapshot.patched > 0
            assert old._subgraphs.keys() == entries.keys()
            for size, entry in entries.items():
                assert old._subgraphs[size] is entry
                assert list(entry) == contents[size]

    def test_unchanged_entry_is_carried_by_identity(self):
        edges, n = TWO_CLIQUES
        service = _service(edges, n)
        _prime(service)
        old = dict(service._snapshot._subgraphs)
        # An edge on the path moves no node into or out of the 4-core
        # (the two cliques, 10 nodes) but adds an edge to the 1-core.
        service.apply([("+", 10, 12)])
        new = service._snapshot
        assert new._subgraphs[new.kcore_size(4)] is old[10]
        assert new._subgraphs[new.kcore_size(1)] is not old[14]
        assert new.carried > 0 and new.patched > 0

    @pytest.mark.concurrent
    def test_readers_filling_the_predecessor_memo_race_the_carry(self):
        """Reader threads fill the current snapshot's memo at random
        thresholds while the writer carries it forward: the copy is
        taken under the memo lock, so no advance fails and every
        published memo stays exact."""
        seed = _stress_seed()
        edges, n = social_graph(150, attach=3, clique=8, seed=6)
        service = _service(edges, n)
        present = {_key(u, v) for u, v in edges}
        batches = in_batches(
            generate_updates(edges, n, 40, seed=seed + 8), 2)
        kmax = service.degeneracy()
        stop = threading.Event()
        failures = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    with service.read_view() as view:
                        view.kcore_subgraph(rng.randrange(kmax + 3))
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reader, args=(seed + index,))
                   for index in range(6)]
        try:
            for thread in threads:
                thread.start()
            for batch in batches:
                service.apply(batch)
                for op, u, v in batch:
                    (present.add if op == "+" else present.discard)(
                        _key(u, v))
        finally:
            stop.set()
            for thread in threads:
                thread.join(60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert service.epoch == len(batches)
        assert_memo_exact(service, present)
