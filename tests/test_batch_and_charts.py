"""Tests for batch maintenance and the ASCII chart renderer."""

import pytest

from repro.bench.reporting import format_bar_chart, format_seconds
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.storage.graphstore import GraphStorage

from tests.conftest import make_random_edges, nx_core_numbers

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


class TestApplyBatch:
    def test_mixed_batch(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        summary = maintainer.apply_batch([
            ("+", 2, 4),
            ("-", 0, 1),
            ("+", 1, 4),
        ])
        assert summary["inserts"] == 2
        assert summary["deletes"] == 1
        assert maintainer.verify()

    def test_changed_nodes_aggregate(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        summary = maintainer.apply_batch([("+", 2, 4)])
        assert summary["changed_nodes"] == [3, 4]

    def test_bad_kind_rejected(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        with pytest.raises(ValueError, match="'\\+' or '-'"):
            maintainer.apply_batch([("*", 0, 1)])

    def test_order_matters_and_is_respected(self):
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(EDGES, 5))
        # Delete then re-insert the same edge: a no-op overall.
        before = list(maintainer.cores)
        maintainer.apply_batch([("-", 0, 1), ("+", 0, 1)])
        assert list(maintainer.cores) == before

    def test_long_random_batch_exact(self, rng):
        n = 25
        edges = make_random_edges(rng, n, 0.15)
        maintainer = CoreMaintainer.from_storage(
            GraphStorage.from_edges(edges, n))
        present = set(edges)
        operations = []
        for _ in range(40):
            if present and rng.random() < 0.5:
                edge = rng.choice(sorted(present))
                present.discard(edge)
                operations.append(("-", edge[0], edge[1]))
            else:
                free = [(u, v) for u in range(n) for v in range(u + 1, n)
                        if (u, v) not in present]
                if not free:
                    continue
                edge = rng.choice(free)
                present.add(edge)
                operations.append(("+", edge[0], edge[1]))
        summary = maintainer.apply_batch(operations)
        assert summary["inserts"] + summary["deletes"] == len(operations)
        assert list(maintainer.cores) == nx_core_numbers(sorted(present), n)

    def test_two_phase_algorithm_selectable(self, paper_graph):
        # Examples 5.2/5.3: after SemiDelete* of (0, 1) (4 node
        # computations), inserting (4, 6) costs SemiInsert 12 node
        # computations and SemiInsert* 5.
        edges, n = paper_graph
        computations = {}
        for algorithm in ("two-phase", "star"):
            maintainer = CoreMaintainer.from_storage(
                GraphStorage.from_edges(edges, n))
            summary = maintainer.apply_batch([("-", 0, 1), ("+", 4, 6)],
                                             algorithm=algorithm)
            computations[algorithm] = summary["node_computations"]
        assert computations == {"two-phase": 4 + 12, "star": 4 + 5}


class TestBarChart:
    def test_linear_proportions(self):
        chart = format_bar_chart("t", ["a", "b"], [10, 20], width=10)
        lines = chart.splitlines()
        assert lines[0] == "t"
        assert lines[1].count("#") * 2 == lines[2].count("#")

    def test_log_scale_compresses(self):
        chart = format_bar_chart(None, ["x", "y"], [10, 1000],
                                 width=30, log=True)
        bars = [line.count("#") for line in chart.splitlines()]
        # log10: 1 vs 3 -> one third, not one hundredth.
        assert bars[0] * 3 == bars[1]

    def test_zero_values_have_no_bar(self):
        chart = format_bar_chart(None, ["x", "y"], [0, 5])
        first = chart.splitlines()[0]
        assert "#" not in first

    def test_custom_formatter(self):
        chart = format_bar_chart(None, ["x"], [2.5],
                                 value_formatter=format_seconds)
        assert "2.50s" in chart

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            format_bar_chart(None, ["a"], [1, 2])

    def test_empty(self):
        assert "(no data)" in format_bar_chart("t", [], [])
