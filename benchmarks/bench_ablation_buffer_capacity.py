"""Ablation: the maintenance edge-buffer capacity (Section V).

The paper buffers inserted/deleted edges in memory and rewrites the
on-disk tables when the buffer fills.  The capacity is the knob trading
memory against write amplification: a tiny buffer compacts constantly
(every compaction rewrites both tables), a large one defers the cost.
This sweep replays the same update stream under different capacities
and reports total write I/Os and compaction counts.
"""

import random
import time

import pytest

from repro.bench.reporting import format_count, format_seconds
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.datasets.registry import generate_dataset
from repro.storage.dynamic import DynamicGraph
from repro.storage.graphstore import GraphStorage

from benchmarks.conftest import BENCH_SCALE, once

CAPACITIES = [8, 64, 512, None]  # None = never compact
OPERATIONS = 400
_WRITES = {}


def _update_stream(edges, n, count, seed=13):
    """A deterministic stream of delete/re-insert toggles."""
    rng = random.Random(seed)
    present = set(edges)
    stream = []
    for _ in range(count):
        if present and rng.random() < 0.5:
            edge = rng.choice(sorted(present))
            present.discard(edge)
            stream.append(("-",) + edge)
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in present:
                continue
            present.add(edge)
            stream.append(("+",) + edge)
    return stream


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_buffer_capacity(benchmark, results, capacity):
    edges, n = generate_dataset("youtube", scale=BENCH_SCALE)
    stream = _update_stream(edges, n, OPERATIONS)
    outcome = {}

    def run():
        storage = GraphStorage.from_edges(edges, n)
        graph = DynamicGraph(storage, buffer_capacity=capacity)
        maintainer = CoreMaintainer.from_graph(graph)
        graph.io_stats.reset()
        started = time.perf_counter()
        summary = maintainer.apply_batch(stream)
        outcome["elapsed"] = time.perf_counter() - started
        outcome["io"] = summary["io"]
        outcome["pending"] = graph.pending_operations

    once(benchmark, run)
    io = outcome["io"]
    key = capacity if capacity is not None else "unbounded"
    _WRITES[key] = io.write_ios
    results.add(
        "Ablation: maintenance buffer capacity (Youtube proxy)",
        capacity=key,
        operations=len(stream),
        write_ios=format_count(io.write_ios),
        read_ios=format_count(io.read_ios),
        pending_at_end=outcome["pending"],
        update_time=format_seconds(outcome["elapsed"]),
    )


def test_write_amplification_shrinks_with_capacity(benchmark, results):
    """Bigger buffers mean fewer table rewrites (write I/Os)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(_WRITES) < len(CAPACITIES):
        pytest.skip("sweep cells did not run")
    assert _WRITES["unbounded"] == 0
    assert _WRITES[512] <= _WRITES[64] <= _WRITES[8]
    assert _WRITES[8] > 0
