"""Reads as functions of the pinned snapshot: layout, memo and epochs."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kcore import core_histogram, k_core_nodes
from repro.datasets.generators import paper_example_graph
from repro.service import CacheStats, CoreService
from repro.storage.graphstore import GraphStorage

from tests.conftest import graph_edges, nx_core_numbers

#: Two edges into the deepest core of the Fig. 1 graph.
DEEP_BATCH = [("+", 0, 4), ("+", 1, 4)]


def paper_service():
    edges, n = paper_example_graph()
    return CoreService.from_storage(GraphStorage.from_edges(edges, n))


def seeded_after(batch):
    """A service seeded from scratch on the Fig. 1 graph plus ``batch``."""
    edges, n = paper_example_graph()
    edges = list(edges) + [(u, v) for _, u, v in batch]
    return CoreService.from_storage(GraphStorage.from_edges(edges, n))


def assert_reads_match_oracle(service, present, n):
    """Every read kind against answers computed from the edge set."""
    cores = nx_core_numbers(sorted(present), n)
    adjacency = {v: [] for v in range(n)}
    for u, v in present:
        adjacency[u].append(v)
        adjacency[v].append(u)
    kmax = max(cores, default=0)
    assert [service.coreness(v) for v in range(n)] == cores
    assert service.coreness_many(range(n)) == cores
    assert service.core_histogram() == core_histogram(cores)
    assert service.degeneracy() == kmax
    for k in range(kmax + 3):
        assert service.kcore_members(k) == k_core_nodes(cores, k)
        want = [(v, u) for v in k_core_nodes(cores, k)
                for u in sorted(adjacency[v]) if u > v and cores[u] >= k]
        assert service.kcore_subgraph(k) == want
        hits = service.cache_stats.hits
        assert service.kcore_subgraph(k) == want
        assert service.cache_stats.hits == hits + 1
    for k in range(n + 3):
        top = heapq.nsmallest(k, range(n), key=lambda v: (-cores[v], v))
        assert service.top_k(k) == [(v, cores[v]) for v in top]


@settings(max_examples=60, deadline=None)
@given(graph=st.one_of(st.just(([], 0)), st.just(([], 1)), graph_edges()),
       data=st.data())
def test_every_read_kind_matches_the_oracle(graph, data):
    edges, n = graph
    service = CoreService.from_storage(GraphStorage.from_edges(edges, n))
    present = {(min(u, v), max(u, v)) for u, v in edges}
    assert_reads_match_oracle(service, present, n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    toggled = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                 max_size=8) if pairs else st.just([]))
    service.apply([("-" if pair in present else "+",) + pair
                   for pair in toggled])
    present.symmetric_difference_update(toggled)
    assert_reads_match_oracle(service, present, n)


class TestEpochs:
    def test_batch_inside_the_deepest_core_changes_the_next_answers(self):
        """A batch inside the deepest core changes the next ``subgraph``
        and ``top`` answers to those of a service seeded on the new
        graph from scratch."""
        service = paper_service()
        kmax = service.degeneracy()
        before_sub = service.kcore_subgraph(kmax)
        service.top_k(3)
        service.apply(DEEP_BATCH)
        after_sub = service.kcore_subgraph(kmax)
        assert after_sub != before_sub
        fresh = seeded_after(DEEP_BATCH)
        assert after_sub == fresh.kcore_subgraph(kmax)
        assert service.top_k(3) == fresh.top_k(3)

    def test_view_pinned_at_epoch_zero_never_leaks_into_later_reads(self):
        """Reads through a view pinned at epoch 0 answer epoch 0, and
        they never change what readers of the current epoch get."""
        service = paper_service()
        kmax = service.degeneracy()
        view = service.read_view()
        old_top, old_sub = view.top_k(3), view.kcore_subgraph(kmax)
        service.apply(DEEP_BATCH)
        fresh_top = service.top_k(3)
        fresh_sub = service.kcore_subgraph(kmax)
        assert (view.top_k(3), view.kcore_subgraph(kmax)) == \
            (old_top, old_sub)
        assert service.top_k(3) == fresh_top
        assert service.kcore_subgraph(kmax) == fresh_sub
        new = seeded_after(DEEP_BATCH)
        assert (fresh_top, fresh_sub) == (new.top_k(3),
                                          new.kcore_subgraph(kmax))
        view.close()

    def test_subgraph_memo_is_keyed_by_kcore_size(self):
        """Thresholds with the same member set share one memo entry,
        and the memo is dropped with its snapshot."""
        service = paper_service()
        view = service.read_view()
        for k in range(6):
            service.kcore_subgraph(k)
        sizes = {len(service.kcore_members(k)) for k in range(6)}
        assert view.snapshot.memo_entries == len(sizes)
        assert service.cache_stats.misses == len(sizes)
        assert service.cache_stats.hits == 6 - len(sizes)
        service.apply(DEEP_BATCH)
        view.close()
        assert view.snapshot.dropped
        assert view.snapshot.memo_entries == 0


class TestStats:
    def test_as_dict(self):
        stats = CacheStats()
        stats.hits = 3
        stats.misses = 1
        payload = stats.as_dict()
        assert payload["hits"] == 3
        assert payload["hit_rate"] == 0.75

    def test_empty_hit_rate(self):
        assert CacheStats().hit_rate == 0.0

    def test_repr(self):
        assert "hits=0" in repr(CacheStats())
