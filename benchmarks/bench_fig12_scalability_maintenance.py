"""Fig. 12: maintenance scalability, varying |V| and |E| (20%..100%).

Same samples as Fig. 11; per sample the Fig. 10 protocol runs with a
smaller edge batch.  The paper's observations: update time stays nearly flat as the
graph grows (high scalability of SemiInsert*/SemiDelete*), while
SemiInsert is the unstable worst case.
"""

import pytest

from repro.bench.harness import maintenance_trial
from repro.bench.reporting import format_count, format_seconds
from repro.datasets.registry import generate_dataset
from repro.datasets.sampling import sample_edges, sample_nodes
from repro.storage.graphstore import GraphStorage

from benchmarks.conftest import BENCH_SCALE, once

DATASETS = ["twitter", "uk"]
FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
NUM_EDGES = 50


def _sampled_storage(name, mode, fraction):
    edges, n = generate_dataset(name, scale=BENCH_SCALE)
    if mode == "nodes":
        sampled, sn = sample_nodes(edges, n, fraction, seed=23)
    else:
        sampled, sn = sample_edges(edges, fraction, seed=23)
    return GraphStorage.from_edges(sampled, sn)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", ["nodes", "edges"])
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_fig12_scalability(benchmark, results, dataset, mode, fraction):
    storage = _sampled_storage(dataset, mode, fraction)
    outcome = {}

    def run():
        outcome["summaries"] = maintenance_trial(
            storage, num_edges=NUM_EDGES, seed=31, include_inmemory=False)

    once(benchmark, run)
    summaries = outcome["summaries"]
    for algorithm in ("SemiInsert", "SemiInsert*", "SemiDelete*"):
        summary = summaries[algorithm]
        results.add(
            "Fig 12 (maintenance scalability, vary |%s|)"
            % ("V" if mode == "nodes" else "E"),
            dataset=dataset,
            fraction="%d%%" % int(fraction * 100),
            algorithm=algorithm,
            avg_time=format_seconds(summary["avg_seconds"]),
            avg_read_ios=format_count(summary["avg_read_ios"]),
            _seconds=summary["avg_seconds"],
            _read_ios=summary["avg_read_ios"],
            _write_ios=summary["avg_write_ios"],
            _node_computations=summary["avg_computations"],
        )
    # SemiInsert* touches no more nodes than the two-phase variant.
    assert (summaries["SemiInsert*"]["avg_computations"]
            <= summaries["SemiInsert"]["avg_computations"])
