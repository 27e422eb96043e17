"""Tests for the CoreService serving subsystem (read/write API)."""

import numpy as np
import pytest

from repro.core.kcore import (
    core_histogram,
    degeneracy,
    k_core_nodes,
    k_core_subgraph,
)
from repro.core.semicore_star import semi_core_star
from repro.datasets.generators import paper_example_graph, social_graph
from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    ReproError,
)
from repro.service import CoreService, generate_queries, run_queries
from repro.service.workload import generate_updates, in_batches
from repro.storage.graphstore import GraphStorage

SEED_ALGORITHMS = ["semicore*", "semicore", "emcore", "imcore"]


def oracle_answer(graph, cores, query):
    """One workload query answered straight from ``core[]`` and the graph."""
    kind = query[0]
    if kind == "coreness":
        return cores[query[1]]
    if kind == "coreness_many":
        return [cores[v] for v in query[1]]
    if kind == "members":
        return k_core_nodes(cores, query[1])
    if kind == "subgraph":
        return sorted(k_core_subgraph(graph, cores, query[1]).edges())
    if kind == "top":
        ranked = sorted(range(len(cores)), key=lambda v: (-cores[v], v))
        return [(v, cores[v]) for v in ranked[:query[1]]]
    if kind == "histogram":
        return core_histogram(cores)
    assert kind == "degeneracy"
    return degeneracy(cores)


def paper_service(**kwargs):
    edges, n = paper_example_graph()
    return CoreService.from_storage(GraphStorage.from_edges(edges, n),
                                    **kwargs)


def social_service(**kwargs):
    edges, n = social_graph(300, attach=3, clique=9, seed=5)
    storage = GraphStorage.from_edges(edges, n)
    return CoreService.from_storage(storage, **kwargs), edges, n


class TestQueries:
    def test_coreness_matches_decomposition(self):
        service = paper_service()
        expected = semi_core_star(
            GraphStorage.from_edges(*paper_example_graph())).cores
        assert [service.coreness(v) for v in range(9)] == list(expected)

    def test_coreness_many(self):
        service = paper_service()
        assert service.coreness_many([0, 4, 8]) == [3, 2, 1]

    def test_kcore_members(self):
        service = paper_service()
        cores = service.maintainer.cores
        for k in range(4):
            assert service.kcore_members(k) == k_core_nodes(cores, k)

    def test_kcore_subgraph_matches_kcore_module(self):
        service = paper_service()
        cores = service.maintainer.cores
        for k in range(1, 4):
            expected = sorted(k_core_subgraph(service.graph, cores,
                                              k).edges())
            assert sorted(service.kcore_subgraph(k)) == expected

    def test_histogram_and_degeneracy(self):
        service = paper_service()
        cores = service.maintainer.cores
        assert service.core_histogram() == core_histogram(cores)
        assert service.degeneracy() == degeneracy(cores)

    def test_top_k_is_deterministic(self):
        service = paper_service()
        top = service.top_k(5)
        assert top == [(0, 3), (1, 3), (2, 3), (3, 3), (4, 2)]
        assert service.top_k(0) == []

    def test_query_validation(self):
        service = paper_service()
        with pytest.raises(GraphError):
            service.coreness(99)
        with pytest.raises(ValueError):
            service.kcore_members(-1)
        with pytest.raises(ValueError):
            service.top_k(-1)

    def test_top_k_validates_like_check_k(self):
        """top_k must raise the same error shape as the shared helper
        and must not count a rejected query as served."""
        service = paper_service()
        with pytest.raises(ValueError, match="non-negative") as top_exc:
            service.top_k(-1)
        with pytest.raises(ValueError, match="non-negative") as k_exc:
            service.kcore_members(-1)
        assert str(top_exc.value) == str(k_exc.value)
        assert service.queries_served == 0

    def test_queries_served_counter(self):
        service = paper_service()
        service.coreness(0)
        service.kcore_members(2)
        service.core_histogram()
        assert service.queries_served == 3

    def test_coreness_many_counts_per_node(self):
        """Batch lookups account one served query per node."""
        service = paper_service()
        service.coreness_many([0, 4, 8])
        assert service.queries_served == 3
        service.coreness_many([])
        assert service.queries_served == 3
        service.coreness(1)
        assert service.queries_served == 4

    def test_rejected_queries_not_counted(self):
        service = paper_service()
        with pytest.raises(GraphError):
            service.coreness(99)
        with pytest.raises(GraphError):
            service.coreness_many([0, 99])
        with pytest.raises(ValueError):
            service.kcore_members(-1)
        assert service.queries_served == 0

    def test_coreness_many_accounting_matches_coreness(self):
        """Regression: the batch path validates up front, then moves
        the served counter exactly as the equivalent sequence of
        per-node :meth:`coreness` calls would.  Point reads are array
        lookups: neither path probes the subgraph memo."""
        nodes = [0, 4, 8, 4, 0]
        batched = paper_service()
        single = paper_service()
        values = batched.coreness_many(nodes)
        assert values == [single.coreness(v) for v in nodes]
        assert all(type(value) is int for value in values)
        assert batched.queries_served == single.queries_served == 5
        assert batched.cache_stats.lookups == 0
        assert single.cache_stats.lookups == 0

    def test_coreness_many_rejected_batch_probes_nothing(self):
        """Validation is hoisted ahead of the lookup: a batch with any
        out-of-range node moves no counter, even when valid nodes
        precede the bad one."""
        service = paper_service()
        with pytest.raises(GraphError):
            service.coreness_many([0, 4, 99])
        assert service.queries_served == 0
        assert service.cache_stats.lookups == 0

    @pytest.mark.parametrize("bad", [2.5, "3", True])
    @pytest.mark.parametrize("kind", ["coreness", "coreness_many",
                                      "members", "subgraph", "top"])
    @pytest.mark.parametrize("through_view", [False, True])
    def test_non_integer_arguments_rejected_before_counting(
            self, kind, bad, through_view):
        """Floats, strings and bools are not node ids or thresholds:
        every read kind rejects them before any counter moves, whether
        called on the service or on a pinned view.  Numpy integers are
        integers and stay accepted."""
        service = paper_service()
        reader = service.read_view() if through_view else service
        call = {
            "coreness": lambda x: reader.coreness(x),
            "coreness_many": lambda x: reader.coreness_many([0, x]),
            "members": lambda x: reader.kcore_members(x),
            "subgraph": lambda x: reader.kcore_subgraph(x),
            "top": lambda x: reader.top_k(x),
        }[kind]
        with pytest.raises(TypeError):
            call(bad)
        assert service.queries_served == 0
        assert service.cache_stats.lookups == 0
        assert call(np.int64(2)) == call(2)
        if through_view:
            reader.close()


class TestSeeding:
    @pytest.mark.parametrize("algorithm", SEED_ALGORITHMS)
    def test_any_seed_algorithm_gives_identical_state(self, algorithm):
        reference = paper_service()
        service = paper_service(algorithm=algorithm)
        assert list(service.maintainer.cores) == \
            list(reference.maintainer.cores)
        assert list(service.maintainer.cnt) == \
            list(reference.maintainer.cnt)

    @pytest.mark.parametrize("algorithm", SEED_ALGORITHMS)
    def test_updates_after_any_seed(self, algorithm):
        service = paper_service(algorithm=algorithm)
        service.apply([("+", 4, 6), ("-", 0, 1)])
        assert service.verify()


class TestApply:
    def test_epoch_bumps_per_batch(self):
        service = paper_service()
        assert service.epoch == 0
        service.apply([("+", 4, 6)])
        assert service.epoch == 1
        service.apply([("-", 4, 6), ("+", 2, 8)])
        assert service.epoch == 2
        assert service.events_applied == 3

    def test_empty_batch_is_noop(self):
        service = paper_service()
        summary = service.apply([])
        assert summary["epoch"] == 0
        assert service.epoch == 0

    def test_empty_batch_summary_keys_match_real_batch(self):
        """The no-op summary is built by the same helper as a real
        one: its keys (and value shapes) cannot drift."""
        service = paper_service()
        empty = service.apply([])
        real = service.apply([("+", 4, 6)])
        assert set(empty) == set(real)
        assert empty["inserts"] == 0 and empty["deletes"] == 0
        assert empty["changed_nodes"] == []
        assert empty["io"].read_ios == 0 and empty["io"].write_ios == 0

    def test_updates_keep_index_exact(self):
        service, edges, n = social_service()
        updates = generate_updates(edges, n, 30, seed=2)
        for batch in in_batches(updates, 10):
            service.apply(batch)
        assert service.verify()

    def test_rejects_bad_batches_wholesale(self):
        service = paper_service()
        with pytest.raises(EdgeExistsError):
            service.apply([("+", 0, 1)])
        with pytest.raises(EdgeNotFoundError):
            service.apply([("-", 4, 6)])
        with pytest.raises(GraphError):
            service.apply([("+", 0, 99)])
        with pytest.raises(ReproError):
            service.apply([("*", 0, 1)])
        # Nothing was applied by the rejected batches.
        assert service.epoch == 0
        assert service.verify()

    def test_insert_algorithm_is_not_an_option(self, tmp_path):
        """The service always inserts with SemiInsert* (core and cnt are
        functions of the final graph either way): an algorithm argument
        is a TypeError, raised before the batch is journaled."""
        edges, n = paper_example_graph()
        service = CoreService.from_storage(
            GraphStorage.from_edges(edges, n), data_dir=tmp_path / "svc")
        with pytest.raises(TypeError):
            service.apply([("-", 0, 1), ("+", 4, 6)], algorithm="star")
        assert service.epoch == 0
        assert service._journal.num_events == 0
        assert service.verify()
        with pytest.raises(TypeError):
            CoreService.from_storage(GraphStorage.from_edges(edges, n),
                                     insert_algorithm="star")

    def test_non_integer_endpoints_rejected_before_journal(self,
                                                           tmp_path):
        """Event endpoints pass the integer check the reads use: a
        float, bool or string endpoint is a TypeError raised before the
        batch is journaled, not an edge between truncated ids."""
        service = CoreService.from_storage(
            GraphStorage.from_edges([(0, 1), (1, 2)], 5),
            data_dir=tmp_path / "svc")
        for event in [("+", 2.7, "3"), ("+", True, 3), ("+", 4, 3.0),
                      ("-", "0", 1)]:
            with pytest.raises(TypeError, match="endpoint"):
                service.apply([("+", 0, 4), event])
        assert service.epoch == 0
        assert service._journal.num_events == 0
        assert sorted(service.graph.edges()) == [(0, 1), (1, 2)]
        # numpy integers are integers.
        service.apply([("+", np.int64(2), np.int32(3))])
        assert service.epoch == 1
        assert service.graph.has_edge(2, 3)
        assert service.verify()

    def test_batch_internal_overlay(self):
        # An insert followed by its own deletion is a valid batch.
        service = paper_service()
        summary = service.apply([("+", 4, 6), ("-", 4, 6)])
        assert summary["inserts"] == 1
        assert summary["deletes"] == 1
        assert service.verify()

    def test_summary_reports_epoch_and_io(self):
        service = paper_service()
        summary = service.apply([("+", 4, 6)])
        assert summary["epoch"] == 1
        assert "io" in summary


class TestOracleAgreement:
    """The acceptance bar: every answer equals a from-scratch oracle."""

    def test_results_equal_from_scratch_oracle(self):
        service, edges, n = social_service()
        present = {tuple(sorted(edge)) for edge in edges}
        kmax = service.degeneracy()
        queries = generate_queries(n, kmax, 400, seed=7)
        updates = in_batches(generate_updates(edges, n, 24, seed=8), 8)
        for step, batch in enumerate(updates + [None]):
            block = queries[100 * step:100 * (step + 1)]
            results, _ = run_queries(service, block)
            storage = GraphStorage.from_edges(sorted(present), n)
            cores = semi_core_star(storage).cores
            assert results == [oracle_answer(storage, cores, query)
                               for query in block]
            if batch is not None:
                service.apply(batch)
                for op, u, v in batch:
                    key = (min(u, v), max(u, v))
                    if op == "+":
                        present.add(key)
                    else:
                        present.remove(key)
        assert service.epoch == len(updates)
        assert list(service.maintainer.cores) == list(cores)

    def test_deep_batch_serves_fresh_values(self):
        service = paper_service()
        k = service.degeneracy()
        before_members = service.kcore_members(k)
        before_sub = service.kcore_subgraph(k)
        # Insert an edge inside the deepest core: its subgraph changes
        # even though no core number does.
        summary = service.apply([("+", 0, 4), ("+", 1, 4)])
        after_sub = service.kcore_subgraph(k)
        after_members = service.kcore_members(k)
        fresh = semi_core_star(service.graph)
        assert after_members == k_core_nodes(fresh.cores, k)
        assert sorted(after_sub) == sorted(
            k_core_subgraph(service.graph, fresh.cores, k).edges())
        if summary["changed_nodes"]:
            assert after_members != before_members or \
                after_sub != before_sub


class TestEngineTransparency:
    def test_results_identical_across_engines(self):
        streams = []
        for engine in ("python", "numpy"):
            service, edges, n = social_service(engine=engine)
            kmax = service.degeneracy()
            queries = generate_queries(n, kmax, 300, seed=3)
            results, _ = run_queries(service, queries)
            for batch in in_batches(generate_updates(edges, n, 20,
                                                     seed=4), 5):
                service.apply(batch)
            tail, _ = run_queries(service, queries)
            streams.append((results, tail, service.epoch,
                            list(service.maintainer.cores),
                            list(service.maintainer.cnt)))
        assert streams[0] == streams[1]


class TestRepr:
    def test_repr_mentions_epoch(self):
        service = paper_service()
        service.apply([("+", 4, 6)])
        assert "epoch=1" in repr(service)
