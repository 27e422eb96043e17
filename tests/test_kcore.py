"""Tests for k-core queries (Lemma 2.1 helpers)."""

import pytest

from repro.core.imcore import im_core
from repro.datasets import generators
from repro.core.kcore import (
    core_distribution,
    core_histogram,
    degeneracy,
    k_core_nodes,
    k_core_subgraph,
)
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import make_random_edges

CORES = [3, 3, 3, 3, 2, 2, 2, 2, 1]


class TestKCoreNodes:
    def test_levels(self):
        assert k_core_nodes(CORES, 3) == [0, 1, 2, 3]
        assert k_core_nodes(CORES, 2) == [0, 1, 2, 3, 4, 5, 6, 7]
        assert k_core_nodes(CORES, 1) == list(range(9))
        assert k_core_nodes(CORES, 4) == []

    def test_zero_returns_all(self):
        assert k_core_nodes(CORES, 0) == list(range(9))

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            k_core_nodes(CORES, -1)


class TestKCoreSubgraph:
    def test_lemma21_min_degree(self, paper_graph, rng):
        """Every node of the k-core subgraph has degree >= k in it."""
        edges, n = paper_graph
        graph = MemoryGraph.from_edges(edges, n)
        cores = im_core(graph).cores
        for k in range(1, max(cores) + 1):
            sub = k_core_subgraph(graph, cores, k)
            members = set(k_core_nodes(cores, k))
            for v in members:
                assert sub.degree(v) >= k
            # Non-members stay isolated in the returned graph.
            for v in range(n):
                if v not in members:
                    assert sub.degree(v) == 0

    def test_works_on_storage(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        cores = im_core(storage).cores
        sub = k_core_subgraph(storage, cores, 3)
        assert sorted(sub.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2),
                                       (1, 3), (2, 3)]

    def test_random_graph_maximality(self, rng):
        """Nodes outside the k-core cannot have k neighbours inside."""
        n = 60
        edges = make_random_edges(rng, n, 0.12)
        graph = MemoryGraph.from_edges(edges, n)
        cores = im_core(graph).cores
        k = max(cores)
        members = set(k_core_nodes(cores, k))
        for v in range(n):
            if v not in members:
                inside = sum(1 for u in graph.neighbors(v) if u in members)
                assert inside < k or cores[v] >= k


class TestStatistics:
    def test_degeneracy(self):
        assert degeneracy(CORES) == 3
        assert degeneracy([]) == 0

    def test_histogram(self):
        assert core_histogram(CORES) == {3: 4, 2: 4, 1: 1}

    def test_distribution_is_cumulative(self):
        dist = core_distribution(CORES)
        assert dist[3] == 4
        assert dist[2] == 8
        assert dist[1] == 9
        assert dist[0] == 9

    def test_distribution_empty(self):
        assert core_distribution([]) == {0: 0}


class TestDenseCores:
    def test_kmax_core_isolates_a_planted_clique(self):
        """On a sparse background the innermost core is the planted
        clique: density ``(14 - 1) / 2`` against about 1.3 overall."""
        edges, n = generators.erdos_renyi(300, 400, seed=6)
        edges, n = generators.plant_clique(edges, n, 14, seed=6)
        graph = MemoryGraph.from_edges(edges, n)
        cores = im_core(graph).cores
        kmax = degeneracy(cores)
        inner = k_core_subgraph(graph, cores, kmax)
        members = k_core_nodes(cores, kmax)
        assert kmax == 13
        assert len(members) == 14
        assert inner.num_edges / len(members) == 6.5
