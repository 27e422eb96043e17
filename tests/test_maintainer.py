"""Integration tests for CoreMaintainer, the high-level dynamic API."""

import inspect

import pytest

from repro.bench.harness import maintenance_trial
from repro.core.maintenance import (
    semi_delete_star,
    semi_insert,
    semi_insert_star,
)
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.errors import GraphError
from repro.storage.dynamic import DynamicGraph
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import make_random_edges, nx_core_numbers

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


class TestConstruction:
    def test_from_storage_seeds_state(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        assert list(maintainer.cores) == [2, 2, 2, 1, 1]
        assert maintainer.kmax == 2
        assert maintainer.core(3) == 1

    def test_from_memory_graph(self):
        maintainer = CoreMaintainer.from_graph(
            MemoryGraph.from_edges(EDGES, 5))
        assert maintainer.kmax == 2

    def test_mismatched_arrays_rejected(self):
        graph = DynamicGraph(GraphStorage.from_edges(EDGES, 5))
        with pytest.raises(GraphError):
            CoreMaintainer(graph, [0, 0], [0, 0])

    def test_engine_picks_only_the_seeding_run(self, rng):
        n = 40
        edges = make_random_edges(rng, n, 0.2)
        reference, vectorized = (
            CoreMaintainer.from_graph(
                DynamicGraph(GraphStorage.from_edges(edges, n)),
                engine=engine)
            for engine in ("python", "numpy"))
        assert list(vectorized.cores) == list(reference.cores) == \
            nx_core_numbers(edges, n)
        assert list(vectorized.cnt) == list(reference.cnt)

    @pytest.mark.parametrize(
        "entry", [semi_insert, semi_insert_star, semi_delete_star,
                  CoreMaintainer, maintenance_trial],
        ids=lambda entry: entry.__name__)
    def test_maintenance_has_no_engine_option(self, entry):
        """Algorithms 6-8 have one implementation; only the seeding
        decomposition (``from_graph``/``from_storage``) takes engine=."""
        assert "engine" not in inspect.signature(entry).parameters


class TestQueries:
    def test_k_core_membership(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        assert maintainer.k_core(2) == [0, 1, 2]
        assert maintainer.k_core(1) == [0, 1, 2, 3, 4]

    def test_histogram(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        assert maintainer.histogram() == {2: 3, 1: 2}

    def test_repr_mentions_kmax(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        assert "kmax=2" in repr(maintainer)


class TestUpdates:
    def test_insert_default_algorithm(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        result = maintainer.insert_edge(2, 4)
        assert result.algorithm == "SemiInsert*"
        assert maintainer.core(3) == 2

    def test_insert_two_phase(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        result = maintainer.insert_edge(2, 4, algorithm="two-phase")
        assert result.algorithm == "SemiInsert"
        assert maintainer.core(4) == 2

    def test_unknown_algorithm_rejected(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        with pytest.raises(ValueError):
            maintainer.insert_edge(2, 4, algorithm="magic")

    def test_delete(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        result = maintainer.delete_edge(0, 1)
        assert result.algorithm == "SemiDelete*"
        assert maintainer.kmax == 1

    def test_verify_after_updates(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        maintainer.insert_edge(1, 3)
        maintainer.insert_edge(1, 4)
        maintainer.delete_edge(2, 3)
        assert maintainer.verify()


class TestLongStream:
    def test_mixed_stream_with_compaction(self, rng):
        n = 30
        edges = make_random_edges(rng, n, 0.15)
        storage = GraphStorage.from_edges(edges, n)
        graph = DynamicGraph(storage, buffer_capacity=8)
        maintainer = CoreMaintainer.from_graph(graph)
        present = set(edges)
        for step in range(60):
            if present and rng.random() < 0.5:
                u, v = rng.choice(sorted(present))
                present.discard((u, v))
                maintainer.delete_edge(u, v)
            else:
                free = [(u, v) for u in range(n) for v in range(u + 1, n)
                        if (u, v) not in present]
                if not free:
                    continue
                u, v = rng.choice(free)
                present.add((u, v))
                algorithm = "star" if step % 2 else "two-phase"
                maintainer.insert_edge(u, v, algorithm=algorithm)
        assert list(maintainer.cores) == nx_core_numbers(sorted(present), n)
        assert maintainer.verify()

    def test_updates_equal_paper_claims_on_sample(self, paper_graph):
        """Replay the paper's full Section V walk-through."""
        edges, n = paper_graph
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(edges, n))
        maintainer.delete_edge(0, 1)
        assert list(maintainer.cores) == [2, 2, 2, 2, 2, 2, 2, 2, 1]
        maintainer.insert_edge(4, 6)
        assert list(maintainer.cores) == [2, 2, 2, 3, 3, 3, 3, 2, 1]
        maintainer.delete_edge(4, 6)
        maintainer.insert_edge(0, 1)
        assert list(maintainer.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]
        assert maintainer.verify()
