"""Tests for the Montresor et al. distributed baseline."""

import pytest
from hypothesis import given, settings

from repro.core.distributed import distributed_core
from repro.core.semicore import semi_core
from repro.datasets import generators
from repro.errors import ReproError
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import graph_edges, nx_core_numbers


class TestCorrectness:
    def test_paper_example(self, paper_storage):
        result = distributed_core(paper_storage)
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    @given(graph_edges(max_nodes=20))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_graphs(self, graph):
        edges, n = graph
        result = distributed_core(GraphStorage.from_edges(edges, n))
        assert list(result.cores) == nx_core_numbers(edges, n)

    def test_runs_on_memory_graph(self, paper_graph):
        edges, n = paper_graph
        result = distributed_core(MemoryGraph.from_edges(edges, n))
        assert result.kmax == 3

    def test_max_rounds_cap(self, paper_storage):
        result = distributed_core(paper_storage, max_rounds=1)
        assert result.iterations == 1


class TestJacobiVsGaussSeidel:
    def test_never_fewer_rounds_than_semicore(self):
        """Barrier updates cannot beat in-scan updates on rounds."""
        for seed in (1, 2, 3):
            edges, n = generators.social_graph(300, 3, 10, seed=seed)
            sync = distributed_core(GraphStorage.from_edges(edges, n))
            sweep = semi_core(GraphStorage.from_edges(edges, n))
            assert list(sync.cores) == list(sweep.cores)
            assert sync.iterations >= sweep.iterations

    def test_chain_needs_one_round_per_hop_both_directions(self):
        """Jacobi propagation is one hop per round regardless of ids."""
        edges, n = generators.path_graph(30)
        result = distributed_core(GraphStorage.from_edges(edges, n))
        # The path collapses from both endpoints inwards: ~n/2 rounds.
        assert result.iterations >= n // 2 - 2

    def test_message_count_is_arcs_per_round(self, paper_storage):
        result = distributed_core(paper_storage)
        assert result.messages == result.iterations * 30  # 2m per round

    def test_change_trace(self, paper_storage):
        result = distributed_core(paper_storage, trace_changes=True)
        assert result.per_iteration_changes[-1] == 0
        assert sum(result.per_iteration_changes) > 0


class TestEngineRouting:
    """`distributed_core` routes through the engine registry like every
    other decomposition entry point."""

    def test_unknown_engine_rejected(self, paper_storage):
        with pytest.raises(ReproError, match="unknown engine"):
            distributed_core(paper_storage, engine="fortran")

    def test_python_engine_is_the_default(self, paper_storage):
        result = distributed_core(paper_storage, engine="python")
        assert result.engine == "python"
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_numpy_engine_full_parity(self):
        """Rounds, traces, messages, cores and I/O all match exactly."""
        for seed in (1, 4, 8):
            edges, n = generators.social_graph(250, 2, 8, seed=seed)
            reference = distributed_core(
                GraphStorage.from_edges(edges, n), trace_changes=True)
            vectorized = distributed_core(
                GraphStorage.from_edges(edges, n), trace_changes=True,
                engine="numpy")
            assert vectorized.engine == "numpy"
            assert list(vectorized.cores) == list(reference.cores)
            assert vectorized.iterations == reference.iterations
            assert vectorized.node_computations == \
                reference.node_computations
            assert vectorized.messages == reference.messages
            assert vectorized.per_iteration_changes == \
                reference.per_iteration_changes
            assert vectorized.io == reference.io

    @given(graph_edges(max_nodes=16))
    @settings(max_examples=30, deadline=None)
    def test_numpy_engine_hypothesis_parity(self, graph):
        edges, n = graph
        reference = distributed_core(GraphStorage.from_edges(edges, n))
        vectorized = distributed_core(GraphStorage.from_edges(edges, n),
                                      engine="numpy")
        assert list(vectorized.cores) == list(reference.cores)
        assert vectorized.iterations == reference.iterations
        assert vectorized.io == reference.io

    def test_numpy_engine_max_rounds_and_memory_graph(self, paper_graph):
        edges, n = paper_graph
        capped = distributed_core(GraphStorage.from_edges(edges, n),
                                  max_rounds=1, engine="numpy")
        assert capped.iterations == 1
        memory = distributed_core(MemoryGraph.from_edges(edges, n),
                                  engine="numpy")
        assert memory.kmax == 3

    def test_registry_and_harness_route_distributed(self, paper_storage):
        from repro.bench.harness import run_decomposition
        from repro.core.engines import ENGINE_AWARE_ALGORITHMS

        assert "distributed" in ENGINE_AWARE_ALGORITHMS
        result = run_decomposition("distributed", paper_storage,
                                   engine="numpy")
        assert result.kmax == 3
        assert result.engine == "numpy"
