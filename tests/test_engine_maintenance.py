"""Maintenance engine parity: python vs numpy kernels.

The maintenance kernels keep the reference control flow and vectorize
the per-edge work, so parity is asserted at every observable level:
each operation's MaintenanceResult (changed nodes, candidate counts,
iterations, node computations, read/write I/O) plus the maintained
``core``/``cnt`` arrays after every single update of a randomized
insert/delete stream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance.delete_star import semi_delete_star
from repro.core.maintenance.insert import semi_insert
from repro.core.maintenance.insert_star import semi_insert_star
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.core.semicore_star import semi_core_star
from repro.storage.dynamic import DynamicGraph
from repro.storage.graphstore import GraphStorage

from tests.conftest import make_random_edges, nx_core_numbers


def result_fingerprint(result):
    """Every observable of one maintenance operation."""
    return (
        result.algorithm,
        result.operation,
        tuple(result.edge),
        tuple(result.changed_nodes),
        result.candidate_nodes,
        result.iterations,
        result.node_computations,
        result.io.read_ios,
        result.io.write_ios,
    )


def build_maintainer(edges, n, engine):
    storage = GraphStorage.from_edges(edges, n, block_size=64)
    graph = DynamicGraph(storage, buffer_capacity=None)
    return CoreMaintainer.from_graph(graph, engine=engine)


def random_stream(rng, edges, n, length):
    """A feasible mixed insert/delete stream over the edge set."""
    state = set(edges)
    ops = []
    while len(ops) < length:
        if state and rng.random() < 0.5:
            edge = rng.choice(sorted(state))
            state.discard(edge)
            ops.append(("-",) + edge)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in state:
                continue
            state.add(edge)
            ops.append(("+",) + edge)
    return ops


class TestStreamParity:
    def run_stream(self, edges, n, ops, insert_algorithms):
        """Apply the stream under both engines, comparing at every step."""
        reference = build_maintainer(edges, n, None)
        vectorized = build_maintainer(edges, n, "numpy")
        assert vectorized.engine == "numpy"
        for step, ((kind, u, v), algorithm) in enumerate(
                zip(ops, insert_algorithms)):
            if kind == "+":
                res_ref = reference.insert_edge(u, v, algorithm=algorithm)
                res_vec = vectorized.insert_edge(u, v, algorithm=algorithm)
            else:
                res_ref = reference.delete_edge(u, v)
                res_vec = vectorized.delete_edge(u, v)
            assert result_fingerprint(res_vec) == \
                result_fingerprint(res_ref), (step, kind, u, v)
            assert list(vectorized.cores) == list(reference.cores), step
            assert list(vectorized.cnt) == list(reference.cnt), step
        return reference, vectorized

    def test_randomized_streams(self):
        rng = random.Random(0xBEEF)
        for trial in range(6):
            n = rng.randint(8, 60)
            edges = make_random_edges(rng, n, 0.15)
            ops = random_stream(rng, edges, n, 25)
            algorithms = [rng.choice(["star", "two-phase"]) for _ in ops]
            reference, vectorized = self.run_stream(edges, n, ops,
                                                    algorithms)
            # Both end states are the true decomposition of the final
            # graph.
            assert vectorized.verify()

    def test_dense_small_graph_stream(self):
        rng = random.Random(3)
        n = 14
        edges = make_random_edges(rng, n, 0.5)
        ops = random_stream(rng, edges, n, 40)
        algorithms = ["star" if i % 2 else "two-phase"
                      for i in range(len(ops))]
        self.run_stream(edges, n, ops, algorithms)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=10, deadline=None)
    def test_hypothesis_streams(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        edges = make_random_edges(rng, n, 0.2)
        ops = random_stream(rng, edges, n, 12)
        algorithms = [rng.choice(["star", "two-phase"]) for _ in ops]
        self.run_stream(edges, n, ops, algorithms)


class TestDirectKernels:
    """Engine routing through the standalone maintenance functions."""

    def seeded(self, paper_graph, engine=None):
        edges, n = paper_graph
        graph = DynamicGraph(GraphStorage.from_edges(edges, n))
        seed = semi_core_star(graph, engine=engine)
        return graph, seed.cores, seed.cnt

    def test_paper_delete_trace(self, paper_graph):
        graph, core, cnt = self.seeded(paper_graph, engine="numpy")
        result = semi_delete_star(graph, core, cnt, 0, 1, engine="numpy")
        assert list(core) == [2, 2, 2, 2, 2, 2, 2, 2, 1]
        assert result.iterations == 1
        assert result.node_computations == 4
        assert result.changed_nodes == [0, 1, 2, 3]

    def test_paper_insert_trace(self, paper_graph):
        graph, core, cnt = self.seeded(paper_graph)
        semi_delete_star(graph, core, cnt, 0, 1, engine="numpy")
        result = semi_insert(graph, core, cnt, 4, 6, engine="numpy")
        assert list(core) == [2, 2, 2, 3, 3, 3, 3, 2, 1]
        assert result.node_computations == 12
        assert result.iterations == 4
        assert result.changed_nodes == [3, 4, 5, 6]
        assert result.candidate_nodes == 8

    def test_paper_insert_star_trace(self, paper_graph):
        graph, core, cnt = self.seeded(paper_graph)
        semi_delete_star(graph, core, cnt, 0, 1, engine="numpy")
        result = semi_insert_star(graph, core, cnt, 4, 6, engine="numpy")
        assert list(core) == [2, 2, 2, 3, 3, 3, 3, 2, 1]
        assert result.iterations == 2
        assert result.node_computations == 5
        assert result.changed_nodes == [3, 4, 5, 6]
        assert result.candidate_nodes == 5

    def test_insert_star_cache_limit_io_parity(self, paper_graph):
        """A tiny adjacency cache forces re-reads under both engines."""
        for engine in (None, "numpy"):
            graph, core, cnt = self.seeded(paper_graph)
            semi_delete_star(graph, core, cnt, 0, 1, engine=engine)
            graph.storage.drop_caches()
            result = semi_insert_star(graph, core, cnt, 4, 6,
                                      cache_limit=1, engine=engine)
            if engine is None:
                reference_reads = result.io.read_ios
            else:
                assert result.io.read_ios == reference_reads

    def test_unknown_engine_rejected(self, paper_graph):
        from repro.errors import ReproError

        graph, core, cnt = self.seeded(paper_graph)
        with pytest.raises(ReproError, match="unknown engine"):
            semi_delete_star(graph, core, cnt, 0, 1, engine="fortran")


class TestMaintainerEngine:
    def test_seeding_matches_reference(self, rng):
        n = 40
        edges = make_random_edges(rng, n, 0.2)
        reference = build_maintainer(edges, n, None)
        vectorized = build_maintainer(edges, n, "numpy")
        assert list(vectorized.cores) == list(reference.cores)
        assert list(vectorized.cnt) == list(reference.cnt)
        assert list(vectorized.cores) == nx_core_numbers(edges, n)

    def test_apply_batch_routes_engine(self, rng):
        n = 30
        edges = make_random_edges(rng, n, 0.2)
        ops = random_stream(random.Random(5), edges, n, 10)
        reference = build_maintainer(edges, n, None)
        vectorized = build_maintainer(edges, n, "numpy")
        summary_ref = reference.apply_batch(ops)
        summary_vec = vectorized.apply_batch(ops)
        assert summary_vec["changed_nodes"] == summary_ref["changed_nodes"]
        assert summary_vec["node_computations"] == \
            summary_ref["node_computations"]
        assert summary_vec["io"].read_ios == summary_ref["io"].read_ios
        assert vectorized.verify()

    def test_repeated_insert_star_reuses_clean_scratch(self, rng):
        """Back-to-back operations must not leak status state."""
        n = 25
        edges = make_random_edges(rng, n, 0.25)
        vectorized = build_maintainer(edges, n, "numpy")
        reference = build_maintainer(edges, n, None)
        stream = random_stream(random.Random(11), edges, n, 20)
        for kind, u, v in stream:
            if kind == "+":
                a = reference.insert_edge(u, v, algorithm="star")
                b = vectorized.insert_edge(u, v, algorithm="star")
            else:
                a = reference.delete_edge(u, v)
                b = vectorized.delete_edge(u, v)
            assert result_fingerprint(a) == result_fingerprint(b)
