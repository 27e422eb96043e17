"""Fig. 10: core maintenance, average over 100 random edges.

Protocol of Section VI-B: sample 100 distinct existing edges, delete them
one by one (average per deletion), then re-insert them one by one
(average per insertion).  Small graphs also run the in-memory baselines
IMInsert / IMDelete; big graphs compare the three semi-external
maintenance algorithms, exactly as the paper's four panels do:

* (a)/(b) -- average time on small / big graphs;
* (c)/(d) -- average I/Os.

On top of the paper's grid the whole protocol runs once per available
execution engine (the maintenance kernels are engine-aware since the
registry covers the full algorithm surface), so the tables carry an
engine column; the in-memory baselines are engine-independent and run
only in the reference cells.
"""

import pytest

from repro.bench.harness import maintenance_trial
from repro.bench.reporting import format_count, format_seconds
from repro.core.engines import engine_names
from repro.datasets.registry import BIG_DATASETS, SMALL_DATASETS

from benchmarks.conftest import load_bench_dataset, once

NUM_EDGES = 100
ENGINES = engine_names()

SEMI_ALGORITHMS = ("SemiDelete*", "SemiInsert", "SemiInsert*")


def _run_trial(benchmark, results, figure, dataset, engine,
               include_inmemory):
    storage = load_bench_dataset(dataset)
    outcome = {}

    def run():
        outcome["summaries"] = maintenance_trial(
            storage, num_edges=NUM_EDGES, seed=42,
            include_inmemory=include_inmemory, engine=engine,
        )

    once(benchmark, run)
    summaries = outcome["summaries"]
    for algorithm, summary in summaries.items():
        results.add(
            figure,
            dataset=dataset,
            algorithm=algorithm,
            engine=engine if algorithm in SEMI_ALGORITHMS else "-",
            avg_time=format_seconds(summary["avg_seconds"]),
            avg_read_ios=format_count(summary["avg_read_ios"]),
            avg_changed="%.2f" % summary["avg_changed"],
            avg_candidates="%.2f" % summary["avg_candidates"],
            _seconds=summary["avg_seconds"],
            _read_ios=summary["avg_read_ios"],
            _write_ios=summary["avg_write_ios"],
            _node_computations=summary["avg_computations"],
        )
    return summaries


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dataset", SMALL_DATASETS)
def test_fig10_small_graphs(benchmark, results, dataset, engine):
    # The in-memory baselines are engine-independent; run them once.
    summaries = _run_trial(benchmark, results,
                           "Fig 10 a/c (small graphs)", dataset, engine,
                           engine == "python")
    # The paper's headline comparisons.
    assert (summaries["SemiInsert*"]["avg_computations"]
            <= summaries["SemiInsert"]["avg_computations"])
    assert (summaries["SemiDelete*"]["avg_computations"]
            <= summaries["SemiInsert*"]["avg_computations"] + 1)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dataset", BIG_DATASETS)
def test_fig10_big_graphs(benchmark, results, dataset, engine):
    summaries = _run_trial(benchmark, results,
                           "Fig 10 b/d (big graphs)", dataset, engine,
                           False)
    assert (summaries["SemiInsert*"]["avg_read_ios"]
            <= summaries["SemiInsert"]["avg_read_ios"] + 1)
