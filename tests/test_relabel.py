"""Tests for locality relabeling (:mod:`repro.core.relabel`).

The contract: the permutation is a bijection, the permuted view is the
same graph up to isomorphism, cores inverse-map out bit-identically,
and on hub-heavy graphs relabeling measurably shrinks the boundary
tables of node-balanced shards.
"""

import random
from array import array

import pytest
from hypothesis import given, settings

from repro.core.relabel import (
    RELABEL_METHODS,
    PermutedGraphView,
    inverse_map_cores,
    locality_permutation,
)
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import sharded_semi_core_star
from repro.datasets.generators import paper_example_graph, social_graph
from repro.datasets.registry import load_dataset
from repro.errors import GraphError
from repro.storage.graphstore import GraphStorage
from repro.storage.shards import ShardedGraphStorage

from tests.conftest import graph_edges


def permuted(edges, n, method="bfs"):
    storage = GraphStorage.from_edges(edges, n)
    order, rank = locality_permutation(storage, method)
    return storage, order, rank, PermutedGraphView(storage, order, rank)


class TestLocalityPermutation:
    @pytest.mark.parametrize("method", RELABEL_METHODS)
    def test_permutation_is_a_bijection(self, method):
        edges, n = social_graph(80, 2, 5, seed=3)
        _, order, rank, _ = permuted(edges, n, method)
        assert sorted(order) == list(range(n))
        assert sorted(rank) == list(range(n))
        for v in range(n):
            assert order[rank[v]] == v
            assert rank[order[v]] == v

    def test_unknown_method_rejected(self, paper_storage):
        with pytest.raises(GraphError, match="relabel method"):
            locality_permutation(paper_storage, "alphabetical")

    def test_bfs_order_clusters_neighbourhoods(self):
        # On a path graph BFS is the identity walk: perfectly local.
        n = 50
        edges = [(v, v + 1) for v in range(n - 1)]
        _, order, rank, view = permuted(edges, n)
        spans = [abs(rank[u] - rank[v]) for u, v in edges]
        assert max(spans) == 1


class TestPermutedGraphView:
    @pytest.mark.parametrize("method", RELABEL_METHODS)
    def test_view_is_the_same_graph_relabeled(self, method):
        edges, n = social_graph(60, 2, 5, seed=7)
        storage, order, rank, view = permuted(edges, n, method)
        assert view.num_nodes == n
        assert view.num_arcs == storage.num_arcs
        for i in range(n):
            expected = sorted(rank[u] for u in storage.neighbors(order[i]))
            assert list(view.neighbors(i)) == expected
        rows = dict(view.iter_adjacency())
        assert sorted(rows) == list(range(n))
        for i, nbrs in rows.items():
            assert list(nbrs) == list(view.neighbors(i))

    def test_degrees_are_permuted(self):
        edges, n = paper_example_graph()
        storage, order, _, view = permuted(edges, n)
        base = storage.read_degrees()
        assert list(view.read_degrees()) == [base[v] for v in order]

    def test_view_charges_the_source_iostats(self):
        edges, n = social_graph(60, 2, 5, seed=2)
        storage, _, _, view = permuted(edges, n)
        storage.drop_caches()
        before = storage.io_stats.read_ios
        for _ in view.iter_adjacency():
            pass
        assert storage.io_stats.read_ios > before
        assert view.io_stats is storage.io_stats

    @pytest.mark.parametrize("method", RELABEL_METHODS)
    def test_ranged_read_equals_the_row_scan(self, method):
        """``read_range`` returns the rows ``iter_adjacency`` yields,
        with the source reads of one ``neighbors()`` per row, in
        relabeled order."""
        edges, n = social_graph(200, 3, 6, seed=11)
        storage, order, rank, view = permuted(edges, n, method)
        calls = []
        for device in (storage.node_device, storage.edge_device):
            def record(offset, size, read=device.read_at, device=device):
                calls.append((device, offset, size))
                return read(offset, size)
            device.read_at = record
        for start, stop in ((0, n), (0, 0), (37, 151), (n - 1, n)):
            storage.drop_caches()
            before = storage.io_stats.snapshot()
            del calls[:]
            degrees, indices = view.read_range(start, stop)
            ranged = (storage.io_stats.delta_since(before), calls[:])
            storage.drop_caches()
            before = storage.io_stats.snapshot()
            del calls[:]
            rows = [list(nbrs) for _, nbrs in view.iter_adjacency(start,
                                                                 stop)]
            assert ranged == (storage.io_stats.delta_since(before), calls)
            assert list(degrees) == [len(row) for row in rows]
            assert list(indices) == [u for row in rows for u in row]

    def test_bad_range_and_length_mismatch_rejected(self):
        edges, n = paper_example_graph()
        storage, order, rank, view = permuted(edges, n)
        with pytest.raises(GraphError, match="range"):
            list(view.iter_adjacency(5, 2))
        with pytest.raises(GraphError, match="range"):
            view.read_range(5, 2)
        with pytest.raises(GraphError, match="permutation length"):
            PermutedGraphView(storage, order[:-1], rank)


class TestInverseMapCores:
    def test_roundtrip(self):
        rng = random.Random(4)
        n = 40
        order = list(range(n))
        rng.shuffle(order)
        rank = array("i", bytes(4 * n))
        for i, v in enumerate(order):
            rank[v] = i
        relabeled = array("i", [rng.randint(0, 9) for _ in range(n)])
        out = inverse_map_cores(relabeled, rank)
        for v in range(n):
            assert out[v] == relabeled[rank[v]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphError, match="length"):
            inverse_map_cores(array("i", [1, 2]), array("i", [0]))


class TestRelabeledDecomposition:
    @pytest.mark.parametrize("method", RELABEL_METHODS)
    @given(graph_edges(max_nodes=18))
    @settings(max_examples=20, deadline=None)
    def test_cores_bit_identical_under_relabel(self, method, graph):
        edges, n = graph
        expected = list(semi_core_star(
            GraphStorage.from_edges(edges, n)).cores)
        result = sharded_semi_core_star(
            GraphStorage.from_edges(edges, n), 3, relabel=method)
        assert list(result.cores) == expected
        assert result.relabel == method

    def test_relabel_true_means_bfs(self, paper_graph):
        edges, n = paper_graph
        result = sharded_semi_core_star(
            GraphStorage.from_edges(edges, n), 2, relabel=True)
        assert result.relabel == "bfs"
        assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_relabel_shrinks_halo_on_hub_heavy_proxy(self):
        """Acceptance: smaller boundary tables on node-balanced shards."""
        storage = load_dataset("webbase", scale=0.05)
        plain = ShardedGraphStorage.from_storage(storage, 6)
        order, rank = locality_permutation(
            load_dataset("webbase", scale=0.05), "bfs")
        view = PermutedGraphView(load_dataset("webbase", scale=0.05),
                                 order, rank)
        relabeled = ShardedGraphStorage.from_storage(view, 6)
        assert relabeled.halo_bytes < plain.halo_bytes
        assert relabeled.num_boundary < plain.num_boundary

    def test_relabel_cost_shows_up_in_model_memory(self):
        # On a path graph BFS is the identity permutation: the shards
        # are bit-identical, so the only memory delta is the O(n)
        # permutation bookkeeping itself (8 bytes per node).
        n = 200
        edges = [(v, v + 1) for v in range(n - 1)]
        plain = sharded_semi_core_star(
            GraphStorage.from_edges(edges, n), 4)
        relabeled = sharded_semi_core_star(
            GraphStorage.from_edges(edges, n), 4, relabel="bfs")
        assert list(relabeled.cores) == list(plain.cores)
        assert relabeled.model_memory_bytes == \
            plain.model_memory_bytes + 8 * n

    def test_unknown_relabel_method_rejected(self, paper_storage):
        with pytest.raises(GraphError, match="relabel method"):
            sharded_semi_core_star(paper_storage, 2, relabel="random")
