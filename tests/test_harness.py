"""Tests for the benchmark harness."""

import pytest

from repro.bench.harness import (
    decomposition_metrics,
    maintenance_trial,
    run_decomposition,
    sample_existing_edges,
    summarize_maintenance,
)
from repro.datasets.generators import social_graph
from repro.errors import ReproError
from repro.storage.graphstore import GraphStorage


@pytest.fixture(scope="module")
def small_storage():
    edges, n = social_graph(150, 2, 8, seed=3)
    return GraphStorage.from_edges(edges, n)


class TestRunDecomposition:
    def test_all_names_dispatch(self, paper_graph):
        edges, n = paper_graph
        expected = [3, 3, 3, 3, 2, 2, 2, 2, 1]
        for name in ("semicore", "semicore+", "semicore*", "emcore",
                     "imcore"):
            result = run_decomposition(name,
                                       GraphStorage.from_edges(edges, n))
            assert list(result.cores) == expected

    def test_names_case_insensitive(self, paper_graph):
        edges, n = paper_graph
        result = run_decomposition("SemiCore*",
                                   GraphStorage.from_edges(edges, n))
        assert result.algorithm == "SemiCore*"

    def test_unknown_name(self, paper_graph):
        edges, n = paper_graph
        with pytest.raises(ReproError, match="unknown algorithm"):
            run_decomposition("quantumcore",
                              GraphStorage.from_edges(edges, n))

    def test_metrics_flattening(self, paper_storage):
        result = run_decomposition("semicore*", paper_storage)
        row = decomposition_metrics(result)
        assert row["algorithm"] == "SemiCore*"
        assert row["kmax"] == 3
        assert row["read_ios"] == result.io.read_ios
        assert set(row) >= {"iterations", "memory_bytes", "seconds",
                            "total_ios", "write_ios", "node_computations"}


    @pytest.mark.parametrize("engine", [None, "numpy"])
    def test_run_is_one_decompose_span(self, paper_storage, engine):
        """Every engine's run is attributed by one root span carrying
        the algorithm, the engine and the run's I/O."""
        from repro.obs import disable_tracing, enable_tracing

        tracer = enable_tracing()
        try:
            result = run_decomposition("semicore", paper_storage,
                                       engine=engine)
        finally:
            disable_tracing()
        (root,) = [r for r in tracer.records if r["depth"] == 0]
        assert root["name"] == "decompose"
        assert root["attrs"] == {"algorithm": "semicore",
                                 "engine": engine or "python"}
        assert root["read_ios"] == result.io.read_ios


class TestEdgeSampling:
    def test_samples_existing_edges(self, small_storage):
        sampled = sample_existing_edges(small_storage, 20, seed=1)
        assert len(sampled) == 20
        all_edges = set(small_storage.edges())
        assert all(edge in all_edges for edge in sampled)
        assert len(set(sampled)) == 20

    def test_deterministic(self, small_storage):
        assert sample_existing_edges(small_storage, 10, seed=2) == \
               sample_existing_edges(small_storage, 10, seed=2)

    def test_too_many_rejected(self, paper_storage):
        with pytest.raises(ReproError):
            sample_existing_edges(paper_storage, 1000)


class TestSummaries:
    def test_empty_summary(self):
        summary = summarize_maintenance([])
        assert summary["operations"] == 0
        assert summary["avg_seconds"] == 0.0

    def test_averages(self, paper_graph):
        from repro.core.maintenance.maintainer import CoreMaintainer
        edges, n = paper_graph
        # A small block size keeps the graph larger than the one-block
        # cache, so maintenance I/Os are visible.
        storage = GraphStorage.from_edges(edges, n, block_size=64)
        maintainer = CoreMaintainer.from_storage(storage)
        results = [maintainer.delete_edge(0, 1),
                   maintainer.insert_edge(0, 1)]
        summary = summarize_maintenance(results)
        assert summary["operations"] == 2
        assert summary["avg_seconds"] > 0
        assert summary["avg_read_ios"] > 0


class TestMaintenanceTrial:
    def test_protocol_restores_graph_and_reports_all_algorithms(
            self, small_storage):
        summaries = maintenance_trial(small_storage, num_edges=15, seed=4)
        assert set(summaries) == {"SemiDelete*", "SemiInsert", "SemiInsert*",
                                  "IMDelete", "IMInsert"}
        for name, summary in summaries.items():
            assert summary["operations"] == 15, name

    def test_inmemory_optional(self, small_storage):
        summaries = maintenance_trial(small_storage, num_edges=5, seed=5,
                                      include_inmemory=False)
        assert "IMInsert" not in summaries
        assert "SemiInsert*" in summaries

    def test_star_prunes_candidates(self, small_storage):
        """Fig. 10's headline: SemiInsert* beats SemiInsert."""
        summaries = maintenance_trial(small_storage, num_edges=25, seed=6,
                                      include_inmemory=False)
        assert (summaries["SemiInsert*"]["avg_computations"]
                <= summaries["SemiInsert"]["avg_computations"])


class TestProtocolProperties:
    def test_trial_restores_graph_state(self, paper_graph):
        """Delete-then-reinsert must leave the graph exactly as found."""
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        before = {v: list(storage.neighbors(v)) for v in range(n)}
        maintenance_trial(storage, num_edges=10, seed=9,
                          include_inmemory=False)
        # The DynamicGraph buffered the updates; net effect is zero.
        from repro.storage.dynamic import DynamicGraph
        graph = DynamicGraph(storage)
        after = {v: list(graph.neighbors(v)) for v in range(n)}
        assert before == after

    def test_io_counts_are_deterministic(self, small_storage):
        """The I/O model has no noise: repeating a trial repeats it."""
        first = maintenance_trial(small_storage, num_edges=10, seed=3,
                                  include_inmemory=False)
        second = maintenance_trial(small_storage, num_edges=10, seed=3,
                                   include_inmemory=False)
        for algorithm in first:
            assert (first[algorithm]["avg_read_ios"]
                    == second[algorithm]["avg_read_ios"]), algorithm
            assert (first[algorithm]["avg_changed"]
                    == second[algorithm]["avg_changed"]), algorithm
