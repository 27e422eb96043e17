"""Unit tests for on-disk graph storage (both backends)."""

import pytest

from repro.errors import GraphError, StorageError
from repro.storage import layout
from repro.storage.blockio import IOStats
from repro.storage.graphstore import GraphStorage
from repro.storage.memgraph import MemoryGraph, normalize_edges

EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4),
         (3, 4), (3, 5), (3, 6), (4, 5), (5, 6), (5, 7), (5, 8), (6, 7)]


class TestConstruction:
    def test_counts(self, storage_factory):
        s = storage_factory(EDGES, 9)
        assert s.num_nodes == 9
        assert s.num_edges == 15
        assert s.num_arcs == 30

    def test_neighbors_sorted(self, storage_factory):
        s = storage_factory(EDGES, 9)
        assert list(s.neighbors(3)) == [0, 1, 2, 4, 5, 6]
        assert list(s.neighbors(8)) == [5]

    def test_degrees_match(self, storage_factory):
        s = storage_factory(EDGES, 9)
        assert list(s.read_degrees()) == [3, 3, 4, 6, 3, 5, 3, 2, 1]
        assert s.degree(3) == 6

    def test_node_entry_offsets_are_prefix_sums(self, storage_factory):
        s = storage_factory(EDGES, 9)
        offset = 0
        for v in range(9):
            entry_offset, degree = s.node_entry(v)
            assert entry_offset == offset
            offset += degree

    def test_isolated_nodes(self, storage_factory):
        s = storage_factory([(0, 1)], 4)
        assert s.num_nodes == 4
        assert list(s.neighbors(2)) == []
        assert s.degree(3) == 0

    def test_empty_graph(self, storage_factory):
        s = storage_factory([], 0)
        assert s.num_nodes == 0
        assert s.num_edges == 0
        assert list(s.iter_adjacency()) == []

    def test_edges_normalized(self, storage_factory):
        s = storage_factory([(1, 0), (0, 1), (2, 2), (0, 2)])
        assert s.num_edges == 2
        assert list(s.neighbors(0)) == [1, 2]

    def test_from_memgraph(self, storage_factory):
        mem = MemoryGraph.from_edges(EDGES, 9)
        s = GraphStorage.from_memgraph(mem)
        assert sorted(s.edges()) == sorted(mem.edges())

    def test_from_adjacency_count_mismatch(self):
        with pytest.raises(GraphError):
            GraphStorage.from_adjacency([[1], [0]], 3)

    def test_node_out_of_range(self, storage_factory):
        s = storage_factory(EDGES, 9)
        with pytest.raises(GraphError):
            s.neighbors(9)
        with pytest.raises(GraphError):
            s.neighbors(-1)


def per_row_tables(edges, num_nodes=None):
    """Oracle: the tables of the per-row build ``from_edges`` replaced
    (``normalize_edges``, sorted adjacency lists, ``from_adjacency``)."""
    edge_list, n = normalize_edges(edges, num_nodes)
    adjacency = [[] for _ in range(n)]
    for u, v in edge_list:
        adjacency[u].append(v)
        adjacency[v].append(u)
    storage = GraphStorage.from_adjacency(
        [sorted(nbrs) for nbrs in adjacency], n)
    return storage.node_device.getvalue(), storage.edge_device.getvalue()


class TestFromEdgesParity:
    """The numpy ``from_edges`` writes the per-row build's bytes."""

    CASES = {
        "empty": ([], None),
        "empty-with-nodes": ([], 5),
        "self-loops-only": ([(3, 3), (0, 0)], None),
        "both-orientations": ([(1, 0), (0, 1), (2, 2), (0, 2), (2, 0)],
                              None),
        "isolated-tail": ([(0, 4), (4, 2)], 9),
        "paper": (EDGES, 9),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tables_byte_identical(self, case):
        edges, n = self.CASES[case]
        storage = GraphStorage.from_edges(edges, n)
        assert (storage.node_device.getvalue(),
                storage.edge_device.getvalue()) == per_row_tables(edges, n)

    def test_random_multigraphs_byte_identical(self, rng):
        for _ in range(25):
            n = rng.randint(1, 70)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, 4 * n))]
            num_nodes = rng.choice([None, n, n + rng.randint(1, 5)])
            storage = GraphStorage.from_edges(iter(edges), num_nodes)
            assert (storage.node_device.getvalue(),
                    storage.edge_device.getvalue()) == \
                per_row_tables(edges, num_nodes)

    def test_file_tables_match(self, tmp_path):
        prefix = str(tmp_path / "g")
        GraphStorage.from_edges(EDGES, 9, path=prefix).close()
        tables = []
        for suffix in (".nodes", ".edges"):
            with open(prefix + suffix, "rb") as handle:
                tables.append(handle.read())
        assert tuple(tables) == per_row_tables(EDGES, 9)

    @pytest.mark.parametrize("edges, num_nodes", [
        ([(0, 1), (3, -1), (-2, 0)], None),   # negative id
        ([(0, 1), (2, 5), (4, 4)], 3),        # num_nodes below an id
        ([(0, 1), (7, 7)], -1),               # below even a loop-free id
    ])
    def test_errors_match_the_per_row_build(self, edges, num_nodes):
        with pytest.raises(GraphError) as expected:
            normalize_edges(edges, num_nodes)
        with pytest.raises(GraphError) as raised:
            GraphStorage.from_edges(edges, num_nodes)
        assert str(raised.value) == str(expected.value)

    def test_id_above_the_storable_range_raises(self):
        with pytest.raises(GraphError, match="largest storable id"):
            GraphStorage.from_edges([(0, layout.MAX_NODE_ID + 1)])

    def test_malformed_pair_raises(self):
        with pytest.raises(GraphError, match="pair"):
            GraphStorage.from_edges([(0, 1, 2), (3, 4, 5)])
        with pytest.raises(TypeError):
            GraphStorage.from_edges([(0, 1.5)])


class TestIterAdjacency:
    def test_matches_per_node_reads(self, storage_factory):
        s = storage_factory(EDGES, 9)
        for v, nbrs in s.iter_adjacency():
            assert list(nbrs) == list(s.neighbors(v))

    def test_range(self, storage_factory):
        s = storage_factory(EDGES, 9)
        rows = dict(s.iter_adjacency(2, 5))
        assert set(rows) == {2, 3, 4}
        assert list(rows[4]) == [2, 3, 5]

    def test_tiny_chunks_still_correct(self, storage_factory):
        s = storage_factory(EDGES, 9)
        rows = {v: list(nbrs)
                for v, nbrs in s.iter_adjacency(chunk_bytes=8)}
        assert rows[3] == [0, 1, 2, 4, 5, 6]
        assert len(rows) == 9

    def test_bad_range_rejected(self, storage_factory):
        s = storage_factory(EDGES, 9)
        with pytest.raises(GraphError):
            list(s.iter_adjacency(5, 2))
        with pytest.raises(GraphError):
            list(s.iter_adjacency(0, 100))

    def test_edges_iterator(self, storage_factory):
        s = storage_factory(EDGES, 9)
        assert sorted(s.edges()) == sorted(EDGES)


class TestIOAccounting:
    def test_full_scan_costs_table_blocks(self):
        block = 64

        def data_blocks(table_bytes):
            # The scan reads [HEADER_SIZE, table_bytes); headers untouched.
            first = layout.HEADER_SIZE // block
            last = (table_bytes - 1) // block
            return last - first + 1

        s = GraphStorage.from_edges(EDGES, 9, block_size=block)
        s.io_stats.reset()
        list(s.iter_adjacency())
        expected = (data_blocks(layout.node_table_size(9))
                    + data_blocks(layout.edge_table_size(30)))
        # Sequential scan: every data block of both tables exactly once.
        assert s.io_stats.read_ios == expected

    def test_rescanning_costs_the_same(self):
        s = GraphStorage.from_edges(EDGES, 9, block_size=64)
        s.io_stats.reset()
        list(s.iter_adjacency())
        first = s.io_stats.read_ios
        list(s.iter_adjacency())
        assert s.io_stats.read_ios <= 2 * first

    def test_single_neighbor_read_is_cheap(self):
        s = GraphStorage.from_edges(EDGES, 9, block_size=4096)
        s.io_stats.reset()
        s.neighbors(3)
        # Tiny graph: one node-table block + one edge-table block.
        assert s.io_stats.read_ios == 2

    def test_shared_stats_object(self):
        stats = IOStats()
        s = GraphStorage.from_edges(EDGES, 9, stats=stats)
        assert s.io_stats is stats
        assert stats.write_ios > 0  # construction wrote both tables


class TestFileRoundtrip:
    def test_open_rereads_everything(self, tmp_path):
        prefix = str(tmp_path / "g")
        built = GraphStorage.from_edges(EDGES, 9, path=prefix)
        built.close()
        opened = GraphStorage.open(prefix)
        assert opened.num_nodes == 9
        assert opened.num_edges == 15
        assert list(opened.neighbors(5)) == [3, 4, 6, 7, 8]
        opened.close()

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(OSError):
            GraphStorage.open(str(tmp_path / "absent"))

    def test_truncated_edge_table_detected(self, tmp_path):
        prefix = str(tmp_path / "g")
        GraphStorage.from_edges(EDGES, 9, path=prefix).close()
        with open(prefix + ".edges", "r+b") as handle:
            handle.truncate(layout.HEADER_SIZE + 4)
        with pytest.raises(StorageError, match="truncated"):
            GraphStorage.open(prefix)

    def test_mismatched_tables_detected(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        GraphStorage.from_edges(EDGES, 9, path=a).close()
        GraphStorage.from_edges([(0, 1)], 2, path=b).close()
        import shutil
        shutil.copy(b + ".edges", a + ".edges")
        with pytest.raises(StorageError):
            GraphStorage.open(a)

    def test_context_manager(self, tmp_path):
        prefix = str(tmp_path / "g")
        GraphStorage.from_edges(EDGES, 9, path=prefix).close()
        with GraphStorage.open(prefix) as s:
            assert s.num_nodes == 9


class TestLargerGraph:
    def test_thousand_node_roundtrip(self, rng):
        n = 1000
        edges = [(u, v) for u in range(n) for v in (u + 1, u + 7)
                 if v < n]
        s = GraphStorage.from_edges(edges, n, block_size=512)
        mem = MemoryGraph.from_edges(edges, n)
        for v in (0, 1, 499, 998, 999):
            assert list(s.neighbors(v)) == mem.neighbors(v)
        assert s.num_edges == mem.num_edges
