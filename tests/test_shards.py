"""Tests for node-range sharding (:mod:`repro.storage.shards`)."""

import os
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import paper_example_graph, social_graph
from repro.datasets.registry import load_dataset
from repro.errors import GraphError
from repro.storage import layout
from repro.storage.blockio import IOStats
from repro.storage.graphstore import GraphStorage
from repro.storage.shards import (
    ShardedGraphStorage,
    arc_balanced_bounds,
    shard_bounds,
)

from tests.conftest import scramble_ids


def build(edges, n, num_shards, **kwargs):
    storage = GraphStorage.from_edges(edges, n)
    return storage, ShardedGraphStorage.from_storage(storage, num_shards,
                                                     **kwargs)


def arc_bounds_loop(degrees, num_shards):
    """Oracle: the running-total walk the vectorized bounds replace."""
    n = len(degrees)
    total = sum(int(d) for d in degrees)
    if total == 0:
        return shard_bounds(n, num_shards)
    bounds = [0] * (num_shards + 1)
    bounds[num_shards] = n
    cum = 0
    cut = 0
    for i in range(1, num_shards):
        target = i * total
        while cut < n and cum * num_shards < target:
            cum += int(degrees[cut])
            cut += 1
        if cut > bounds[i - 1]:
            prev_cum = cum - int(degrees[cut - 1])
            overshoot = cum * num_shards - target
            undershoot = target - prev_cum * num_shards
            if undershoot <= overshoot and cut - 1 >= bounds[i - 1]:
                cut -= 1
                cum = prev_cum
        bounds[i] = cut
    return bounds


def reference_shard_tables(source, start, stop):
    """Oracle: one shard's table bytes from the per-row remap and
    ``from_adjacency``, the build the vectorized one replaces."""
    rows = [list(map(int, nbrs))
            for _, nbrs in source.iter_adjacency(start, stop)]
    boundary = sorted({g for row in rows for g in row
                       if not start <= g < stop})
    halo_of = {g: stop - start + k for k, g in enumerate(boundary)}
    local = [[g - start if start <= g < stop else halo_of[g] for g in row]
             for row in rows] + [[] for _ in boundary]
    graph = GraphStorage.from_adjacency(local, len(local))
    boundary_table = layout.pack_header(
        layout.TABLE_BOUNDARY, len(boundary), stop - start) + \
        array(layout.EDGE_TYPECODE, boundary).tobytes()
    return (graph.node_device.getvalue(), graph.edge_device.getvalue(),
            boundary_table)


PARITY_GRAPHS = {
    "empty": ([], 0),
    "single-node": ([], 1),
    "isolated-nodes": ([(0, 5), (5, 9), (2, 9)], 14),
    "paper": paper_example_graph(),
    "social": social_graph(80, 2, 5, seed=3),
}


def parity_storage(graph, ids):
    """A ``PARITY_GRAPHS`` entry as stored, or with its node ids shuffled
    so that most rows refer across shard ranges."""
    edges, n = PARITY_GRAPHS[graph]
    if ids == "scrambled":
        edges, _ = scramble_ids(edges, n, seed=n)
    return GraphStorage.from_edges(edges, n), n


class TestShardBounds:
    def test_partitions_the_range(self):
        for n in (0, 1, 5, 9, 100):
            for s in (1, 2, 3, 7, max(1, n)):
                bounds = shard_bounds(n, s)
                assert bounds[0] == 0 and bounds[-1] == n
                assert len(bounds) == s + 1
                assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_non_positive_counts(self):
        with pytest.raises(GraphError, match="num_shards"):
            shard_bounds(10, 0)


class TestArcBalancedBounds:
    def test_partitions_the_range(self):
        rng = random.Random(5)
        for n in (0, 1, 5, 9, 100):
            degrees = [rng.randint(0, 12) for _ in range(n)]
            for s in (1, 2, 3, 7, max(1, n)):
                bounds = arc_balanced_bounds(degrees, s)
                assert bounds[0] == 0 and bounds[-1] == n
                assert len(bounds) == s + 1
                assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_zero_degrees_fall_back_to_node_bounds(self):
        assert arc_balanced_bounds([0] * 10, 3) == shard_bounds(10, 3)
        assert arc_balanced_bounds([], 4) == shard_bounds(0, 4)

    def test_rejects_non_positive_counts(self):
        with pytest.raises(GraphError, match="num_shards"):
            arc_balanced_bounds([1, 2, 3], 0)

    def test_uniform_degrees_match_node_bounds(self):
        # Constant degree: arcs are proportional to nodes, so the
        # arc-balanced cuts land on the equal node-range fenceposts.
        assert arc_balanced_bounds([4] * 12, 4) == shard_bounds(12, 4)

    def test_hub_front_loads_small_first_shard(self):
        # One hub of degree 90 plus 10 pendant rows: the arc rule cuts
        # right after the hub while the node rule keeps half the rows
        # (and nearly all arcs) in shard 0.
        degrees = [90] + [1] * 10
        bounds = arc_balanced_bounds(degrees, 2)
        assert bounds[1] == 1
        owned = [sum(degrees[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert max(owned) == 90

    def test_nearest_fencepost_prefers_the_smaller_error(self):
        # Cumulative arcs 2,4,6,8: the midpoint 4 sits exactly on the
        # second row's boundary; undershoot ties overshoot and the
        # earlier cut wins.
        assert arc_balanced_bounds([2, 2, 2, 2], 2) == [0, 2, 4]

    def test_skew_beats_node_balance_on_hub_heavy_proxy(self):
        """Acceptance: arc skew <= 1.15 where node balance blows up."""
        storage = load_dataset("webbase", scale=0.05)
        node = ShardedGraphStorage.from_storage(
            load_dataset("webbase", scale=0.05), 8, balance="node")
        arc = ShardedGraphStorage.from_storage(storage, 8, balance="arc")
        assert arc.arc_skew <= 1.15
        assert arc.arc_skew < node.arc_skew

    def test_arc_balanced_build_preserves_adjacency(self):
        edges, n = social_graph(150, 2, 8, seed=12)
        storage = GraphStorage.from_edges(edges, n)
        sharded = ShardedGraphStorage.from_storage(storage, 5,
                                                   balance="arc")
        assert sharded.balance == "arc"
        assert sum(s.num_owned for s in sharded.shards) == n
        for v in range(n):
            assert list(sharded.neighbors(v)) == \
                list(storage.neighbors(v))

    def test_unknown_balance_rejected(self):
        edges, n = paper_example_graph()
        storage = GraphStorage.from_edges(edges, n)
        with pytest.raises(GraphError, match="balance"):
            ShardedGraphStorage.from_storage(storage, 2, balance="magic")

    def test_balance_statistics_properties(self):
        edges, n = social_graph(120, 2, 6, seed=8)
        _, sharded = build(edges, n, 4)
        assert sharded.balance == "node"
        assert sharded.max_owned_arcs == \
            max(s.num_arcs for s in sharded.shards)
        assert sharded.mean_owned_arcs == pytest.approx(
            sharded.num_arcs / 4)
        assert sharded.arc_skew == pytest.approx(
            sharded.max_owned_arcs / sharded.mean_owned_arcs)
        assert sharded.arc_skew >= 1.0
        assert sharded.halo_bytes > 0
        assert 0.0 < sharded.boundary_fraction
        # Degenerate: no arcs at all.
        _, empty = build([], 0, 3)
        assert empty.arc_skew == 1.0
        assert empty.boundary_fraction == 0.0


class TestVectorizedArcBounds:
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=60),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_running_total_walk(self, degrees, num_shards):
        assert arc_balanced_bounds(degrees, num_shards) == \
            arc_bounds_loop(degrees, num_shards)

    @given(st.lists(st.sampled_from([0, 1, 2, 500]), max_size=40),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_matches_on_hubs_and_zero_runs(self, degrees, num_shards):
        # Hubs make several targets share one cut; zero runs make the
        # running total flat.  Both stress the tie rule.
        assert arc_balanced_bounds(degrees, num_shards) == \
            arc_bounds_loop(degrees, num_shards)


class TestBuildParity:
    """The vectorized build writes the per-row build's exact bytes."""

    @pytest.mark.parametrize("ids", ["stored", "scrambled"])
    @pytest.mark.parametrize("balance", ["node", "arc"])
    @pytest.mark.parametrize("graph", sorted(PARITY_GRAPHS))
    def test_tables_byte_identical(self, graph, balance, ids):
        storage, n = parity_storage(graph, ids)
        for num_shards in (1, 3, 7, n + 3):
            sharded = ShardedGraphStorage.from_storage(
                storage, num_shards, balance=balance)
            assert sharded.num_shards == num_shards
            for shard in sharded.shards:
                tables = (shard.graph.node_device.getvalue(),
                          shard.graph.edge_device.getvalue(),
                          shard.boundary_device.getvalue())
                assert tables == reference_shard_tables(
                    storage, shard.start, shard.stop), \
                    (graph, balance, ids, num_shards, shard)

    @pytest.mark.parametrize("balance", ["node", "arc"])
    def test_source_reads_equal_a_ranged_scan(self, balance):
        # Shards span several 256 KB scan chunks, and the hub's row
        # alone outgrows one, so the grouped edge reads are exercised.
        n = 80000
        edges = [(0, v) for v in range(1, n)] + \
            [(v, (v * 7 + k) % n) for v in range(1, n, 3)
             for k in (1, 2)]
        storage = GraphStorage.from_edges(edges, n, block_size=256)
        stats = storage.io_stats
        calls = []
        for name, device in (("nodes", storage.node_device),
                             ("edges", storage.edge_device)):
            def record(offset, size, name=name, read=device.read_at):
                calls.append((name, offset, size))
                return read(offset, size)
            device.read_at = record
        storage.drop_caches()
        before = stats.snapshot()
        sharded = ShardedGraphStorage.from_storage(storage, 5,
                                                   balance=balance)
        build, build_calls = stats.delta_since(before), calls[:]
        storage.drop_caches()
        del calls[:]
        before = stats.snapshot()
        if balance == "arc":
            storage.read_degrees()
        for start, stop in zip(sharded.bounds, sharded.bounds[1:]):
            for _ in storage.iter_adjacency(start, stop):
                pass
        assert build == stats.delta_since(before)
        assert build_calls == calls
        assert build.read_ios > 0 and build.write_ios == 0

    def test_file_backed_tables_equal_memory_tables(self, tmp_path):
        edges, n = social_graph(120, 2, 6, seed=2)
        storage = GraphStorage.from_edges(edges, n)
        memory = ShardedGraphStorage.from_storage(storage, 4,
                                                  balance="arc")
        prefix = str(tmp_path / "g")
        files = ShardedGraphStorage.from_storage(storage, 4,
                                                 balance="arc", path=prefix)
        files.close()
        for shard in memory.shards:
            on_disk = []
            for suffix in (".nodes", ".edges", ".boundary"):
                with open("%s.shard%d%s" % (prefix, shard.index, suffix),
                          "rb") as handle:
                    on_disk.append(handle.read())
            assert on_disk == [shard.graph.node_device.getvalue(),
                               shard.graph.edge_device.getvalue(),
                               shard.boundary_device.getvalue()]


class TestBuildInvariants:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 9])
    def test_paper_graph_roundtrip(self, num_shards):
        edges, n = paper_example_graph()
        storage, sharded = build(edges, n, num_shards)
        assert sharded.num_nodes == n
        assert sharded.num_arcs == storage.num_arcs
        assert sum(s.num_owned for s in sharded.shards) == n
        for v in range(n):
            assert list(sharded.neighbors(v)) == \
                list(storage.neighbors(v))

    @pytest.mark.parametrize("ids", ["stored", "scrambled"])
    @pytest.mark.parametrize("balance", ["node", "arc"])
    def test_boundary_tables_sorted_and_disjoint(self, balance, ids):
        rng = random.Random(11)
        n = 60
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.08]
        if ids == "scrambled":
            edges, _ = scramble_ids(edges, n, seed=11)
        storage, sharded = build(edges, n, 5, balance=balance)
        for shard in sharded.shards:
            ids = list(shard.boundary_ids())
            assert ids == sorted(set(ids))
            assert all(not shard.start <= g < shard.stop for g in ids)
            assert len(ids) == shard.num_boundary
            # Every boundary id really is a cross-shard neighbour.
            seen = set()
            for v in range(shard.start, shard.stop):
                for g in storage.neighbors(v):
                    if not shard.start <= g < shard.stop:
                        seen.add(int(g))
            assert set(ids) == seen

    def test_local_adjacency_remaps_exactly(self):
        rng = random.Random(3)
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.15]
        storage, sharded = build(edges, n, 3)
        for shard in sharded.shards:
            boundary = shard.boundary_ids()
            for v in range(shard.start, shard.stop):
                local = shard.graph.neighbors(v - shard.start)
                back = shard.to_global(local, boundary)
                assert list(back) == list(storage.neighbors(v))
            # Halo rows store no adjacency of their own.
            for k in range(shard.num_boundary):
                assert len(shard.graph.neighbors(shard.num_owned + k)) \
                    == 0

    def test_owned_degrees_preserved(self):
        edges, n = social_graph(120, 2, 6, seed=4)
        storage, sharded = build(edges, n, 4)
        for shard in sharded.shards:
            for v in range(shard.start, shard.stop):
                assert shard.graph.degree(v - shard.start) == \
                    storage.degree(v)

    def test_empty_graph_and_more_shards_than_nodes(self):
        storage, sharded = build([], 0, 3)
        assert sharded.num_arcs == 0
        assert all(s.num_local == 0 for s in sharded.shards)
        edges, n = paper_example_graph()
        _, oversharded = build(edges, n, n)
        assert sum(s.num_owned for s in oversharded.shards) == n
        ref = GraphStorage.from_edges(edges, n)
        for v in range(n):
            assert list(oversharded.neighbors(v)) == \
                list(ref.neighbors(v))


class TestStatsAndDevices:
    def test_single_shared_iostats(self):
        edges, n = paper_example_graph()
        stats = IOStats()
        storage = GraphStorage.from_edges(edges, n)
        sharded = ShardedGraphStorage.from_storage(storage, 3,
                                                   stats=stats)
        assert sharded.io_stats is stats
        for shard in sharded.shards:
            assert shard.graph.node_device.stats is stats
            assert shard.graph.edge_device.stats is stats
            assert shard.boundary_device.stats is stats
            assert shard.reverse_device.stats is stats
        before = stats.read_ios
        sharded.neighbors(0)
        assert stats.read_ios > before

    def test_shard_reads_never_touch_other_shards(self):
        """A per-shard scan must not issue reads on other shards."""
        edges, n = social_graph(90, 2, 5, seed=1)
        storage, sharded = build(edges, n, 3)
        target = sharded.shards[1]

        def explode(*args, **kwargs):
            raise AssertionError("foreign shard device was read")

        for shard in sharded.shards:
            if shard is not target:
                shard.graph.node_device.read_at = explode
                shard.graph.edge_device.read_at = explode
                shard.boundary_device.read_at = explode
        # Full scan + per-node reads of the target shard only.
        for _ in target.graph.iter_adjacency():
            pass
        for v in range(target.num_local):
            target.graph.neighbors(v)

    def test_file_backed_shards(self, tmp_path):
        edges, n = paper_example_graph()
        storage = GraphStorage.from_edges(edges, n)
        prefix = str(tmp_path / "g")
        sharded = ShardedGraphStorage.from_storage(storage, 2,
                                                   path=prefix)
        for i, shard in enumerate(sharded.shards):
            assert shard.path == "%s.shard%d" % (prefix, i)
            for suffix in (".nodes", ".edges", ".boundary", ".reverse"):
                assert os.path.exists(shard.path + suffix)
        for v in range(n):
            assert list(sharded.neighbors(v)) == \
                list(storage.neighbors(v))
        sharded.close()
        # The shard tables are plain GraphStorage tables: reopenable.
        reopened = GraphStorage.open(sharded.shards[0].path)
        assert reopened.num_nodes == sharded.shards[0].num_local
        reopened.close()

    def test_max_shard_nodes_and_boundary_totals(self):
        edges, n = social_graph(100, 2, 6, seed=9)
        _, sharded = build(edges, n, 4)
        assert sharded.max_shard_nodes == \
            max(s.num_local for s in sharded.shards)
        assert sharded.num_boundary == \
            sum(s.num_boundary for s in sharded.shards)

    def test_shard_of_and_range_check(self):
        edges, n = paper_example_graph()
        _, sharded = build(edges, n, 3)
        for v in range(n):
            shard = sharded.shard_of(v)
            assert shard.start <= v < shard.stop
        with pytest.raises(GraphError):
            sharded.shard_of(n)
        with pytest.raises(GraphError):
            sharded.shard_of(-1)


class TestReverseTable:
    """The fourth per-shard table inverts the cross-shard entries."""

    @pytest.mark.parametrize("ids", ["stored", "scrambled"])
    @pytest.mark.parametrize("graph", sorted(PARITY_GRAPHS))
    def test_rows_list_their_referrers_ascending(self, graph, ids):
        storage, n = parity_storage(graph, ids)
        for num_shards in (1, 3, 7, n + 3):
            sharded = ShardedGraphStorage.from_storage(
                storage, num_shards, balance="arc")
            for shard in sharded.shards:
                owned = shard.num_owned
                expected = [[v for v in range(owned)
                             if owned + j in shard.graph.neighbors(v)]
                            for j in range(shard.num_boundary)]
                ids, lengths = shard.reverse_rows(
                    range(shard.num_boundary))
                assert list(lengths) == [len(row) for row in expected]
                assert list(ids) == [v for row in expected for v in row]
                header = shard.reverse_device.read_at(0, layout.HEADER_SIZE)
                assert layout.unpack_header(header, layout.TABLE_REVERSE) \
                    == (shard.num_boundary, len(ids))

    def test_reverse_rows_charge_point_reads(self):
        """Index entries, then id spans: each phase charged as one point
        read per row, in ascending order."""
        rng = random.Random(5)
        storage = load_dataset("webbase", scale=0.1)
        sharded = ShardedGraphStorage.from_storage(storage, 4,
                                                   balance="arc")
        for shard in sharded.shards:
            halo = shard.num_boundary
            for count in (0, 3, 40, halo // 2, halo):
                positions = sorted(rng.sample(range(halo), count))
                device = shard.reverse_device
                device.drop_cache()
                before = device.stats.snapshot()
                ids, lengths = shard.reverse_rows(positions)
                spans = device.stats.delta_since(before)
                device.drop_cache()
                before = device.stats.snapshot()
                entries = [layout.unpack_node_entry(device.read_at(
                    layout.HEADER_SIZE + j * layout.NODE_ENTRY_SIZE,
                    layout.NODE_ENTRY_SIZE)) for j in positions]
                base = layout.HEADER_SIZE + halo * layout.NODE_ENTRY_SIZE
                point = [array(layout.EDGE_TYPECODE, device.read_at(
                    base + offset * layout.EDGE_ENTRY_SIZE,
                    length * layout.EDGE_ENTRY_SIZE))
                    for offset, length in entries if length]
                assert spans == device.stats.delta_since(before)
                assert list(ids) == [v for row in point for v in row]
                assert list(lengths) == [length for _, length in entries]
