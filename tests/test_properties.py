"""Cross-cutting property-based tests.

These exercise whole-system invariants that tie the modules together:
all five decomposition algorithms agree on arbitrary graphs, core numbers
behave monotonically under subgraphs, do not depend on the id order,
and the semi-external state stays exact under arbitrary update
interleavings.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    degeneracy,
    em_core,
    im_core,
    k_core_subgraph,
    satisfies_locality,
    semi_core,
    semi_core_plus,
    semi_core_star,
)
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.storage.dynamic import DynamicGraph
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import graph_edges, nx_core_numbers, scramble_ids

ALGORITHMS = {
    "imcore": lambda edges, n, engine: im_core(
        MemoryGraph.from_edges(edges, n), engine=engine),
    "semicore": lambda edges, n, engine: semi_core(
        GraphStorage.from_edges(edges, n), engine=engine),
    "semicore+": lambda edges, n, engine: semi_core_plus(
        GraphStorage.from_edges(edges, n), engine=engine),
    "semicore*": lambda edges, n, engine: semi_core_star(
        GraphStorage.from_edges(edges, n), engine=engine),
    "emcore": lambda edges, n, engine: em_core(
        GraphStorage.from_edges(edges, n), partition_arcs=16,
        memory_budget_bytes=512, engine=engine),
}


class TestAlgorithmsAgree:
    @given(graph_edges(max_nodes=24))
    @settings(max_examples=40, deadline=None)
    def test_all_five_algorithms_identical(self, graph):
        edges, n = graph
        reference = nx_core_numbers(edges, n)
        assert list(im_core(MemoryGraph.from_edges(edges, n)).cores) \
            == reference
        for runner in (semi_core, semi_core_plus, semi_core_star):
            storage = GraphStorage.from_edges(edges, n)
            assert list(runner(storage).cores) == reference
        storage = GraphStorage.from_edges(edges, n)
        assert list(em_core(storage, partition_arcs=16,
                            memory_budget_bytes=512).cores) == reference

    @given(graph_edges(max_nodes=24))
    @settings(max_examples=30, deadline=None)
    def test_output_satisfies_locality_theorem(self, graph):
        edges, n = graph
        storage = GraphStorage.from_edges(edges, n)
        result = semi_core_star(storage)
        mem = MemoryGraph.from_edges(edges, n)
        assert satisfies_locality(result.cores, mem.neighbors, n)


class TestStructuralProperties:
    @given(graph_edges(max_nodes=20), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_cores_monotone_under_edge_removal(self, graph, rnd):
        """Removing edges never increases any core number."""
        edges, n = graph
        if not edges:
            return
        before = nx_core_numbers(edges, n)
        kept = [e for e in edges if rnd.random() < 0.5]
        after = nx_core_numbers(kept, n)
        assert all(a <= b for a, b in zip(after, before))

    @given(graph_edges(max_nodes=20))
    @settings(max_examples=30, deadline=None)
    def test_core_bounded_by_degree(self, graph):
        edges, n = graph
        cores = nx_core_numbers(edges, n)
        degrees = MemoryGraph.from_edges(edges, n).degrees()
        assert all(c <= d for c, d in zip(cores, degrees))

    @given(graph_edges(max_nodes=20))
    @settings(max_examples=30, deadline=None)
    def test_kmax_bounded_by_sqrt_edges(self, graph):
        """A k-core needs at least k(k+1)/2 edges."""
        edges, n = graph
        cores = nx_core_numbers(edges, n)
        kmax = max(cores) if cores else 0
        assert kmax * (kmax + 1) <= 2 * len(edges) or kmax == 0


    @given(graph_edges(max_nodes=20))
    @settings(max_examples=30, deadline=None)
    def test_edges_bounded_by_degeneracy(self, graph):
        """Peeling in degeneracy order gives each node at most ``kmax``
        later neighbours, so ``|E| <= kmax * n``."""
        edges, n = graph
        assert len(edges) <= degeneracy(nx_core_numbers(edges, n)) * n

    @given(graph_edges(max_nodes=20))
    @settings(max_examples=30, deadline=None)
    def test_every_k_core_is_at_least_half_k_dense(self, graph):
        """Every node of the k-core keeps ``k`` neighbours inside it, so
        the k-core has at least ``k * size / 2`` edges."""
        edges, n = graph
        mem = MemoryGraph.from_edges(edges, n)
        cores = nx_core_numbers(edges, n)
        for k in range(degeneracy(cores) + 1):
            core = k_core_subgraph(mem, cores, k)
            size = sum(1 for c in cores if c >= k)
            assert 2 * core.num_edges >= k * size, k


class TestIdOrderInvariance:
    """Core numbers belong to the graph, not to its id order."""

    @pytest.mark.parametrize("engine", ("python", "numpy"))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    @given(graph_edges(max_nodes=20), st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_cores_follow_a_shuffle_of_the_ids(self, algorithm, engine,
                                               graph, seed):
        edges, n = graph
        expected = nx_core_numbers(edges, n)
        scrambled, rank = scramble_ids(edges, n, seed)
        cores = ALGORITHMS[algorithm](scrambled, n, engine).cores
        assert [cores[rank[v]] for v in range(n)] == expected


class TestMaintainerFuzz:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_random_update_streams_stay_exact(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 22)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.2]
        storage = GraphStorage.from_edges(edges, n)
        graph = DynamicGraph(storage, buffer_capacity=6)
        maintainer = CoreMaintainer.from_graph(graph)
        present = set(edges)
        for _ in range(25):
            if present and rng.random() < 0.5:
                edge = rng.choice(sorted(present))
                present.discard(edge)
                maintainer.delete_edge(*edge)
            else:
                free = [(u, v) for u in range(n) for v in range(u + 1, n)
                        if (u, v) not in present]
                if not free:
                    continue
                edge = rng.choice(free)
                present.add(edge)
                algorithm = rng.choice(["star", "two-phase"])
                maintainer.insert_edge(*edge, algorithm=algorithm)
        assert list(maintainer.cores) == nx_core_numbers(sorted(present), n)
        assert maintainer.verify()
