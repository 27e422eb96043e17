"""Tests for the EMCore baseline (Algorithm 2)."""

import random

from hypothesis import given, settings

from repro.core.emcore import _peel_with_support, em_core
from repro.core.semicore_star import semi_core_star
from repro.datasets import generators
from repro.storage.graphstore import GraphStorage

from tests.conftest import graph_edges, make_random_edges, nx_core_numbers

EXECUTOR_NAMES = ("serial", "persistent")


class TestPeelWithSupport:
    def test_plain_peel_matches_core_numbers(self):
        # A triangle with a pendant: cores 2,2,2,1.
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [2]}
        support = {v: 0 for v in adj}
        values = _peel_with_support(adj, support)
        assert values == {0: 2, 1: 2, 2: 2, 3: 1}

    def test_immortal_support_dominates(self):
        # A lone node whose support never peels away keeps its level.
        values = _peel_with_support({0: []}, {0: 5})
        assert values == {0: 5}

    def test_support_bounded_by_local_peel(self):
        # Path of 3 with +2 immortal at the ends: the middle node peels
        # at level 2, after which each end holds exactly its support.
        adj = {0: [1], 1: [0, 2], 2: [1]}
        support = {0: 2, 1: 0, 2: 2}
        values = _peel_with_support(adj, support)
        assert values == {0: 2, 1: 2, 2: 2}

    def test_empty(self):
        assert _peel_with_support({}, {}) == {}


class TestCorrectness:
    def test_paper_example(self, paper_storage):
        result = em_core(paper_storage)
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_small_partitions(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = em_core(storage, partition_arcs=6,
                         memory_budget_bytes=256)
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_random_graphs_with_tight_budgets(self, rng):
        for trial in range(12):
            n = rng.randint(2, 70)
            edges = make_random_edges(rng, n, 0.15)
            storage = GraphStorage.from_edges(edges, n)
            result = em_core(storage, partition_arcs=rng.choice([8, 32, 128]),
                             memory_budget_bytes=rng.choice([128, 1024, 1 << 20]))
            assert list(result.cores) == nx_core_numbers(edges, n), trial

    @given(graph_edges())
    @settings(max_examples=35, deadline=None)
    def test_hypothesis_graphs(self, graph):
        edges, n = graph
        storage = GraphStorage.from_edges(edges, n)
        result = em_core(storage, partition_arcs=16,
                         memory_budget_bytes=512)
        assert list(result.cores) == nx_core_numbers(edges, n)

    def test_empty_graph(self):
        result = em_core(GraphStorage.from_edges([], 0))
        assert list(result.cores) == []

    def test_isolated_nodes(self):
        result = em_core(GraphStorage.from_edges([(0, 1)], 5))
        assert list(result.cores) == [1, 1, 0, 0, 0]

    def test_merge_disabled_still_correct(self, rng):
        n = 50
        edges = make_random_edges(rng, n, 0.2)
        storage = GraphStorage.from_edges(edges, n)
        result = em_core(storage, partition_arcs=16,
                         memory_budget_bytes=256, merge_partitions=False)
        assert list(result.cores) == nx_core_numbers(edges, n)


class TestPaperCriticisms:
    """The drawbacks Section IV-A attributes to EMCore."""

    def test_issues_write_ios(self, paper_storage):
        result = em_core(paper_storage, partition_arcs=8)
        assert result.io.write_ios > 0

    def test_memory_grows_past_budget_on_low_cores(self):
        """With a tiny budget, EMCore still loads most partitions."""
        edges, n = generators.social_graph(400, 3, 10, seed=4)
        storage = GraphStorage.from_edges(edges, n)
        budget = 512
        result = em_core(storage, partition_arcs=64,
                         memory_budget_bytes=budget)
        # Peak loaded bytes dominate the configured budget.
        assert result.model_memory_bytes - 12 * n > budget

    def test_semicore_star_uses_less_memory(self):
        edges, n = generators.social_graph(400, 3, 10, seed=4)
        em = em_core(GraphStorage.from_edges(edges, n), partition_arcs=64)
        star = semi_core_star(GraphStorage.from_edges(edges, n))
        assert star.model_memory_bytes < em.model_memory_bytes

    def test_semicore_star_needs_no_writes(self):
        edges, n = generators.social_graph(400, 3, 10, seed=4)
        em = em_core(GraphStorage.from_edges(edges, n), partition_arcs=64)
        star = semi_core_star(GraphStorage.from_edges(edges, n))
        assert em.io.write_ios > 0
        assert star.io.write_ios == 0

    def test_rounds_are_top_down(self, rng):
        """More rounds with tighter budgets (smaller [kl, ku] ranges)."""
        n = 120
        edges = make_random_edges(rng, n, 0.12)
        storage_a = GraphStorage.from_edges(edges, n)
        storage_b = GraphStorage.from_edges(edges, n)
        loose = em_core(storage_a, partition_arcs=32,
                        memory_budget_bytes=1 << 24)
        tight = em_core(storage_b, partition_arcs=32,
                        memory_budget_bytes=600)
        assert list(loose.cores) == list(tight.cores)
        assert tight.iterations >= loose.iterations


class TestPartitionExecutors:
    """The partition phase rides the shard-executor protocol: its
    pseudo-peel upper bounds are pure functions of the partition
    records, so every executor must produce bit-identical results."""

    def test_executor_parity(self, rng):
        n = 90
        edges = make_random_edges(rng, n, 0.12)
        expected = nx_core_numbers(edges, n)
        runs = {}
        for executor in EXECUTOR_NAMES:
            storage = GraphStorage.from_edges(edges, n)
            runs[executor] = em_core(storage, partition_arcs=32,
                                     memory_budget_bytes=1024,
                                     executor=executor)
            assert list(runs[executor].cores) == expected, executor
        serial = runs["serial"]
        for executor in EXECUTOR_NAMES[1:]:
            other = runs[executor]
            assert other.iterations == serial.iterations
            assert other.io == serial.io

    def test_executor_object_is_not_closed_by_emcore(self, paper_graph):
        from repro.core.sharded import PersistentShardExecutor

        edges, n = paper_graph
        executor = PersistentShardExecutor(processes=2)
        try:
            for _ in range(2):
                storage = GraphStorage.from_edges(edges, n)
                result = em_core(storage, partition_arcs=8,
                                 executor=executor)
                assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]
            # The pool outlived both runs: forked once, never closed.
            assert executor.pool_forks == 1
        finally:
            executor.close()


class TestPathologicalPartitioning:
    def test_one_node_per_partition(self, paper_graph):
        """partition_arcs=1 forces singleton partitions."""
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = em_core(storage, partition_arcs=1,
                         memory_budget_bytes=128)
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_single_partition(self, paper_graph):
        """A partition holding the whole graph degenerates to one round."""
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = em_core(storage, partition_arcs=10 ** 9,
                         memory_budget_bytes=1 << 30)
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]
        assert result.iterations == 1
