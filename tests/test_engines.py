"""Engine registry API tests and python/numpy engine parity properties.

The engine contract (docs/ARCHITECTURE.md) promises that every engine is
observationally identical to the reference implementation: same core
numbers, same iteration counts, same node-computation totals, same
per-iteration traces and same block-I/O figures.  These tests enforce
the contract property-style over the seed test graphs, the dataset
generators and hypothesis-drawn random graphs.
"""

import pytest
from hypothesis import given, settings

from repro.core.engines import (
    DEFAULT_ENGINE,
    ENGINE_AWARE_ALGORITHMS,
    ENGINE_AWARE_MAINTENANCE,
    engine_implementation,
    engine_names,
    get_engine,
    register_engine,
)
from repro.bench.harness import DECOMPOSITION_ALGORITHMS, compare_engines, \
    engine_speedups, run_decomposition
from repro.core.emcore import em_core
from repro.core.imcore import im_core
from repro.core.semicore import semi_core
from repro.core.semicore_plus import semi_core_plus
from repro.core.semicore_star import semi_core_star
from repro.datasets import generators
from repro.errors import ReproError
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import graph_edges, make_random_edges, nx_core_numbers

ALGORITHMS = [
    ("semicore", semi_core),
    ("semicore+", semi_core_plus),
    ("semicore*", semi_core_star),
    ("imcore", im_core),
]


class TestRegistry:
    def test_python_engine_always_available(self):
        assert DEFAULT_ENGINE == "python"
        assert "python" in engine_names()

    def test_numpy_engine_registered(self):
        assert "numpy" in engine_names()

    def test_engine_aware_algorithms(self):
        # The engine registry covers the full decomposition surface ...
        assert set(ENGINE_AWARE_ALGORITHMS) == \
            set(DECOMPOSITION_ALGORITHMS)
        # ... plus the semi-external maintenance operations.
        assert set(ENGINE_AWARE_MAINTENANCE) == \
            {"insert", "insert*", "delete*"}

    def test_both_engines_implement_the_full_surface(self):
        for engine in engine_names():
            impls = get_engine(engine).implementations()
            assert set(ENGINE_AWARE_ALGORITHMS) <= set(impls)
            assert set(ENGINE_AWARE_MAINTENANCE) <= set(impls)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError, match="unknown engine"):
            get_engine("fortran")

    def test_unknown_engine_rejected_at_algorithm_level(self,
                                                        paper_storage):
        with pytest.raises(ReproError, match="unknown engine"):
            semi_core(paper_storage, engine="fortran")

    def test_python_implementations_are_the_reference(self):
        assert engine_implementation("python", "semicore") is semi_core
        assert engine_implementation("python", "imcore") is im_core

    def test_unsupported_algorithm_rejected(self):
        with pytest.raises(ReproError, match="does not implement"):
            engine_implementation("python", "quantumcore")

    def test_register_custom_engine(self, paper_storage):
        marker = []

        def fake_semicore(graph, **kwargs):
            marker.append(graph.num_nodes)
            return semi_core(graph)

        register_engine("testengine", "registry test double",
                        lambda: {"semicore": fake_semicore})
        try:
            result = semi_core(paper_storage, engine="testengine")
            assert marker == [9]
            assert result.kmax == 3
        finally:
            # Registration replaces on re-register; drop the test double.
            from repro.core.engines import _REGISTRY
            _REGISTRY.pop("testengine", None)

    def test_harness_routes_engine_for_every_algorithm(self,
                                                       paper_storage):
        for algorithm in DECOMPOSITION_ALGORITHMS:
            for engine in engine_names():
                result = run_decomposition(algorithm, paper_storage,
                                           engine=engine)
                assert result.kmax == 3, (algorithm, engine)

    def test_harness_rejects_engine_for_unaware_algorithm(
            self, paper_storage, monkeypatch):
        # Every shipped algorithm is engine-aware now; shrink the aware
        # set to prove the harness guard still fires for future ones.
        import repro.bench.harness as harness
        monkeypatch.setattr(harness, "ENGINE_AWARE_ALGORITHMS",
                            ("semicore",))
        with pytest.raises(ReproError, match="no engine support"):
            run_decomposition("emcore", paper_storage, engine="numpy")
        result = run_decomposition("emcore", paper_storage,
                                   engine="python")
        assert result.kmax == 3


def assert_parity(reference, vectorized, check_io=True):
    """The observable-equality contract between two engine results."""
    assert list(vectorized.cores) == list(reference.cores)
    assert vectorized.iterations == reference.iterations
    assert vectorized.node_computations == reference.node_computations
    assert vectorized.per_iteration_changes == \
        reference.per_iteration_changes
    assert vectorized.computed_per_iteration == \
        reference.computed_per_iteration
    if reference.cnt is not None:
        assert list(vectorized.cnt) == list(reference.cnt)
    if check_io:
        assert vectorized.io.read_ios == reference.io.read_ios
        assert vectorized.io.write_ios == reference.io.write_ios


def run_both(function, edges, n, block_size=4096, **kwargs):
    reference = function(
        GraphStorage.from_edges(edges, n, block_size=block_size), **kwargs)
    vectorized = function(
        GraphStorage.from_edges(edges, n, block_size=block_size),
        engine="numpy", **kwargs)
    return reference, vectorized


class TestEngineParity:
    def test_paper_graph_all_algorithms(self, paper_graph):
        edges, n = paper_graph
        for name, function in ALGORITHMS:
            kwargs = {} if name == "imcore" else \
                dict(trace_changes=True, trace_computed=True)
            reference, vectorized = run_both(function, edges, n,
                                             block_size=64, **kwargs)
            assert_parity(reference, vectorized)
            assert vectorized.engine == "numpy"
            assert reference.engine == "python"
            assert list(vectorized.cores) == nx_core_numbers(edges, n)

    def test_seed_generator_graphs(self):
        cases = [
            generators.web_graph(500, 5, 20, 40, seed=5),
            generators.social_graph(400, 4, 14, seed=6),
            generators.collaboration_graph(250, 130, 2, 6, 10, seed=7),
            generators.citation_graph(250, 700, 9, seed=8),
            generators.append_tail_path(*generators.complete_graph(5),
                                        length=25, anchor=0),
            generators.path_graph(60),
            generators.cycle_graph(60),
            generators.star_graph(80),
            generators.complete_graph(12),
        ]
        for edges, n in cases:
            for name, function in ALGORITHMS:
                kwargs = {} if name == "imcore" else \
                    dict(trace_changes=True)
                reference, vectorized = run_both(function, edges, n,
                                                 **kwargs)
                assert_parity(reference, vectorized)

    def test_random_graphs(self, rng):
        for _ in range(12):
            n = rng.randint(2, 70)
            edges = make_random_edges(rng, n, 0.15)
            for name, function in ALGORITHMS:
                reference, vectorized = run_both(function, edges, n,
                                                 block_size=64)
                assert_parity(reference, vectorized)
                assert list(vectorized.cores) == nx_core_numbers(edges, n)

    @given(graph_edges())
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_graphs(self, graph):
        edges, n = graph
        for name, function in ALGORITHMS:
            kwargs = {} if name == "imcore" else \
                dict(trace_changes=True, trace_computed=True)
            reference, vectorized = run_both(function, edges, n,
                                             block_size=64, **kwargs)
            assert_parity(reference, vectorized)

    def test_degenerate_graphs(self):
        for edges, n in ([], 0), ([], 5), ([(0, 1)], 2):
            for name, function in ALGORITHMS:
                reference, vectorized = run_both(function, edges, n)
                assert_parity(reference, vectorized)

    def test_memory_graph_backend(self, paper_graph):
        edges, n = paper_graph
        graph = MemoryGraph.from_edges(edges, n)
        for name, function in ALGORITHMS:
            assert_parity(function(graph),
                          function(graph, engine="numpy"))

    def test_semicore_initial_bound_and_cap(self, paper_graph):
        edges, n = paper_graph
        reference, vectorized = run_both(semi_core, edges, n,
                                         initial_cores=[n] * n)
        assert_parity(reference, vectorized)
        for cap in (1, 2, 3):
            reference, vectorized = run_both(semi_core, edges, n,
                                             max_iterations=cap)
            assert_parity(reference, vectorized)

    def test_semicore_star_initial_bound(self, paper_graph):
        edges, n = paper_graph
        reference, vectorized = run_both(semi_core_star, edges, n,
                                         initial_cores=[n] * n)
        assert_parity(reference, vectorized)

    def test_wrong_initial_length_rejected(self, paper_storage):
        from repro.errors import GraphError
        with pytest.raises(GraphError):
            semi_core(paper_storage, engine="numpy",
                      initial_cores=[1, 2, 3])


class TestEMCoreParity:
    """EMCore parity across budgets and partition sizes.

    EMCore's observables include *write* I/Os (the partition store), so
    parity here also proves the numpy engine serializes byte-identical
    partitions through the shared codec.
    """

    def run_both(self, edges, n, **kwargs):
        reference = em_core(
            GraphStorage.from_edges(edges, n, block_size=64), **kwargs)
        vectorized = em_core(
            GraphStorage.from_edges(edges, n, block_size=64),
            engine="numpy", **kwargs)
        assert_parity(reference, vectorized)
        assert vectorized.engine == "numpy"
        return reference, vectorized

    def test_paper_graph(self, paper_graph):
        edges, n = paper_graph
        _, vectorized = self.run_both(edges, n, partition_arcs=6,
                                      memory_budget_bytes=256)
        assert list(vectorized.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    @pytest.mark.parametrize("partition_arcs,budget", [
        (1, 128),            # singleton partitions, many rounds
        (8, 128),            # tiny budget: tight [kl, ku] ranges
        (8, 1024),           # small partitions, merge path exercised
        (32, 512),
        (128, 1 << 20),      # everything fits: single round
        (10 ** 9, 1 << 30),  # one partition holding the whole graph
    ])
    def test_budget_grid(self, rng, partition_arcs, budget):
        for trial in range(4):
            n = rng.randint(10, 80)
            edges = make_random_edges(rng, n, 0.12)
            reference, vectorized = self.run_both(
                edges, n, partition_arcs=partition_arcs,
                memory_budget_bytes=budget)
            assert list(vectorized.cores) == nx_core_numbers(edges, n), \
                (trial, partition_arcs, budget)

    def test_merge_path_produces_identical_writes(self, rng):
        """Small partitions + write-backs drive _merge_small_partitions."""
        n = 90
        edges = make_random_edges(rng, n, 0.10)
        reference, vectorized = self.run_both(
            edges, n, partition_arcs=16, memory_budget_bytes=400)
        # Several rounds with merges happened, and both engines agree on
        # every read and write block.
        assert reference.iterations > 1
        assert reference.io.write_ios > 0

    def test_merge_disabled(self, rng):
        n = 60
        edges = make_random_edges(rng, n, 0.15)
        self.run_both(edges, n, partition_arcs=16,
                      memory_budget_bytes=256, merge_partitions=False)

    def test_generator_graphs(self):
        cases = [
            generators.social_graph(300, 3, 12, seed=11),
            generators.web_graph(300, 4, 12, 30, seed=12),
            generators.star_graph(70),
            generators.complete_graph(12),
        ]
        for edges, n in cases:
            self.run_both(edges, n, partition_arcs=64,
                          memory_budget_bytes=1024)

    @given(graph_edges())
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_graphs(self, graph):
        edges, n = graph
        self.run_both(edges, n, partition_arcs=16,
                      memory_budget_bytes=512)

    def test_degenerate_graphs(self):
        for edges, n in ([], 0), ([], 5), ([(0, 1)], 2):
            self.run_both(edges, n)

    def test_default_parameters(self, rng):
        n = 50
        edges = make_random_edges(rng, n, 0.2)
        self.run_both(edges, n)


class TestCompareEngines:
    def test_compare_reports_both_engines(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n, block_size=64)
        results = compare_engines("semicore", storage)
        assert set(results) == {"python", "numpy"}
        assert_parity(results["python"], results["numpy"])
        speedups = engine_speedups(results)
        assert speedups["python"] == pytest.approx(1.0)
        assert speedups["numpy"] > 0

    def test_compare_drops_caches_between_runs(self, paper_graph):
        """Each engine starts cold, so the I/O figures are comparable."""
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n, block_size=64)
        first = compare_engines("semicore", storage)
        second = compare_engines("semicore", storage)
        for engine in ("python", "numpy"):
            assert first[engine].io.read_ios == \
                second[engine].io.read_ios
