"""Tests for the CSR adjacency snapshot (:mod:`repro.storage.csr`)."""

import pytest

np = pytest.importorskip("numpy")

from repro.datasets import generators
from repro.errors import ReproError
from repro.storage.blockio import IOStats
from repro.storage.csr import CSRGraph, read_sorted_rows
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph

from tests.conftest import make_random_edges


class RowsOnly:
    """A stored graph seen through ``neighbors()`` alone: no block
    devices in view, so row reads take the per-row fallback."""

    def __init__(self, graph):
        self.num_nodes = graph.num_nodes
        self.neighbors = graph.neighbors


def storage_and_memory(edges, n, block_size=4096):
    return (GraphStorage.from_edges(edges, n, block_size=block_size),
            MemoryGraph.from_edges(edges, n))


class TestStructure:
    def test_paper_graph_rows_match_neighbors(self, paper_storage):
        csr = CSRGraph.from_graph(paper_storage)
        assert csr.num_nodes == 9
        assert csr.num_edges == paper_storage.num_edges
        for v in range(9):
            assert list(csr.neighbors(v)) == \
                list(paper_storage.neighbors(v))

    def test_degrees(self, paper_storage):
        csr = CSRGraph.from_graph(paper_storage)
        assert list(csr.degrees()) == list(paper_storage.read_degrees())

    def test_memory_graph_source(self, paper_graph):
        edges, n = paper_graph
        graph = MemoryGraph.from_edges(edges, n)
        csr = CSRGraph.from_graph(graph)
        for v in range(n):
            assert list(csr.neighbors(v)) == graph.neighbors(v)

    def test_storage_and_memory_agree(self, rng):
        for _ in range(10):
            n = rng.randint(1, 60)
            edges = make_random_edges(rng, n, 0.2)
            storage, memory = storage_and_memory(edges, n)
            a = CSRGraph.from_graph(storage)
            b = CSRGraph.from_graph(memory)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(GraphStorage.from_edges([], 0))
        assert csr.num_nodes == 0
        assert csr.num_arcs == 0

    def test_isolated_nodes(self):
        csr = CSRGraph.from_graph(GraphStorage.from_edges([(0, 4)], 6))
        assert list(csr.degrees()) == [1, 0, 0, 0, 1, 0]
        assert list(csr.neighbors(2)) == []

    def test_out_of_range_row_rejected(self, paper_storage):
        csr = CSRGraph.from_graph(paper_storage)
        with pytest.raises(ReproError):
            csr.neighbors(9)

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ReproError):
            CSRGraph(np.array([0, 3]), np.array([1], dtype=np.uint32))

    def test_from_rows_partial_snapshot(self, paper_storage):
        csr = CSRGraph.from_rows(paper_storage, [8, 0, 3])
        assert list(csr.neighbors(3)) == list(paper_storage.neighbors(3))
        assert list(csr.neighbors(1)) == []  # row not snapshotted

    def test_model_memory_counts_arrays(self, paper_storage):
        csr = CSRGraph.from_graph(paper_storage)
        assert csr.model_memory_bytes() == \
            8 * (csr.num_nodes + 1) + 4 * csr.num_arcs


class TestIOAccounting:
    """The snapshot must charge exactly one sequential scan."""

    @pytest.mark.parametrize("block_size", [64, 512, 4096])
    @pytest.mark.parametrize("chunk_bytes", [32, 128, 1 << 18])
    def test_build_costs_exactly_one_scan(self, rng, block_size,
                                          chunk_bytes):
        """Also for an owned prefix: ``stop`` scans like
        ``iter_adjacency(0, stop)`` and leaves later rows empty."""
        for _ in range(3):
            n = rng.randint(1, 60)
            edges = make_random_edges(rng, n, 0.15)
            for stop in (None, rng.randint(0, n)):
                reference = GraphStorage.from_edges(edges, n,
                                                    block_size=block_size)
                reference.io_stats.reset()
                rows = list(reference.iter_adjacency(
                    0, stop, chunk_bytes=chunk_bytes))
                build = GraphStorage.from_edges(edges, n,
                                                block_size=block_size)
                build.io_stats.reset()
                csr = CSRGraph.from_storage(build, chunk_bytes=chunk_bytes,
                                            stop=stop)
                assert build.io_stats == reference.io_stats
                assert csr.num_nodes == n
                assert [list(csr.neighbors(v)) for v in range(n)] == \
                    [list(nbrs) for _, nbrs in rows] + \
                    [[]] * (n - len(rows))

    def test_oversized_adjacency_grouping(self):
        """A star hub larger than the chunk must group like the scan."""
        edges, n = generators.star_graph(400)
        reference = GraphStorage.from_edges(edges, n, block_size=64)
        reference.io_stats.reset()
        rows = list(reference.iter_adjacency(chunk_bytes=64))
        build = GraphStorage.from_edges(edges, n, block_size=64)
        build.io_stats.reset()
        csr = CSRGraph.from_storage(build, chunk_bytes=64)
        assert build.io_stats == reference.io_stats
        assert [list(csr.neighbors(v)) for v in range(n)] == \
            [list(nbrs) for _, nbrs in rows]

    def test_default_chunk_matches_scan_default(self, paper_graph):
        edges, n = paper_graph
        reference = GraphStorage.from_edges(edges, n, block_size=64)
        reference.io_stats.reset()
        list(reference.iter_adjacency())
        build = GraphStorage.from_edges(edges, n, block_size=64)
        build.io_stats.reset()
        CSRGraph.from_storage(build)
        assert build.io_stats == reference.io_stats

    @pytest.mark.parametrize("block_size", [64, 512, 4096])
    def test_row_reads_match_neighbors(self, rng, block_size):
        """``from_rows`` replays ``neighbors()`` read for read, with and
        without block devices in view: same I/O figures, same one-block
        cache state after."""
        for _ in range(3):
            n = rng.randint(1, 60)
            edges = make_random_edges(rng, n, 0.2)
            rows = sorted(rng.sample(range(n), rng.randint(0, n)))
            for wrap in (lambda g: g, RowsOnly):
                reference, graph = (
                    GraphStorage.from_edges(edges, n, block_size=block_size)
                    for _ in range(2))
                reference.io_stats.reset()
                expected = [list(reference.neighbors(v)) for v in rows]
                graph.io_stats.reset()
                csr = CSRGraph.from_rows(wrap(graph), rows)
                assert graph.io_stats == reference.io_stats
                for v in rows:  # the cached block is the same one too
                    graph.neighbors(v)
                    reference.neighbors(v)
                    assert graph.io_stats == reference.io_stats
                assert [list(csr.neighbors(v)) for v in rows] == expected

    @pytest.mark.parametrize("block_size", [64, 4096])
    def test_sorted_rows_match_neighbors(self, rng, block_size):
        """Long ascending runs (one ``read_spans`` per table) charge what
        the per-row ``neighbors()`` reads charge, leave the same block
        cached, and read nothing when uncharged."""
        n = 400
        edges = make_random_edges(rng, n, 0.03)
        for count in (0, 5, 31, 32, 150, n):
            rows = sorted(rng.sample(range(n), count))
            reference, graph = (
                GraphStorage.from_edges(edges, n, block_size=block_size)
                for _ in range(2))
            reference.io_stats.reset()
            expected = [list(reference.neighbors(v)) for v in rows]
            graph.io_stats.reset()
            _, peeked, ahead = read_sorted_rows(graph, rows, charge=False)
            assert graph.io_stats == IOStats()
            offsets, degrees, indices = read_sorted_rows(graph, rows)
            assert graph.io_stats == reference.io_stats
            assert list(degrees) == list(peeked) == [len(e) for e in expected]
            assert list(indices) == list(ahead) == \
                [u for nbrs in expected for u in nbrs]
            for v in rows:  # the cached blocks are the same ones too
                graph.neighbors(v)
                reference.neighbors(v)
                assert graph.io_stats == reference.io_stats
            assert list(offsets) == [graph.node_entry(v)[0] for v in rows]

    def test_sorted_rows_of_empty_rows_only(self):
        """More rows than the span-loop cutoff, every one empty: no
        edge entry is read, and the node entries charge what per-row
        ``neighbors()`` reads charge."""
        rows = np.arange(2, 60)
        reference, graph = (GraphStorage.from_edges([(0, 1)], 100)
                            for _ in range(2))
        reference.io_stats.reset()
        for v in rows:
            reference.neighbors(int(v))
        graph.io_stats.reset()
        offsets, degrees, indices = read_sorted_rows(graph, rows)
        assert graph.io_stats == reference.io_stats
        assert degrees.tolist() == [0] * rows.size
        assert indices.dtype == np.uint32 and indices.size == 0

    def test_sorted_rows_without_devices(self, paper_graph):
        """A graph with no block devices is asked for ``neighbors()``
        row by row; there are no edge-table offsets to hand back."""
        edges, n = paper_graph
        graph = MemoryGraph.from_edges(edges, n)
        rows = [0, 1, 4, 8]
        offsets, degrees, indices = read_sorted_rows(graph, rows)
        assert offsets is None
        assert list(degrees) == [len(graph.neighbors(v)) for v in rows]
        assert list(indices) == [u for v in rows for u in graph.neighbors(v)]
        assert degrees.dtype == np.int64 and indices.dtype == np.uint32
        _, degrees, indices = read_sorted_rows(graph, [])
        assert degrees.size == indices.size == 0
        csr = CSRGraph.from_rows(graph, [4, 1])
        assert list(csr.neighbors(4)) == list(graph.neighbors(4))
        assert list(csr.neighbors(0)) == []

    def test_memory_graph_charges_nothing(self, paper_graph):
        edges, n = paper_graph
        graph = MemoryGraph.from_edges(edges, n)
        CSRGraph.from_graph(graph)  # no io_stats to charge; must not fail


class TestChunkScanRefactor:
    """iter_adjacency_chunks is the substrate iter_adjacency rides on."""

    def test_chunks_cover_every_node_in_order(self, paper_storage):
        seen = []
        for first, degrees, edge_data in \
                paper_storage.iter_adjacency_chunks():
            assert len(edge_data) == 4 * sum(degrees)
            seen.extend(range(first, first + len(degrees)))
        assert seen == list(range(paper_storage.num_nodes))

    def test_degrees_match_node_table(self, rng):
        n = 40
        edges = make_random_edges(rng, n, 0.2)
        storage = GraphStorage.from_edges(edges, n)
        degrees = []
        for _, group_degrees, _ in storage.iter_adjacency_chunks():
            degrees.extend(group_degrees)
        assert degrees == list(storage.read_degrees())
