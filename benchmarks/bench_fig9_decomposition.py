"""Fig. 9: core decomposition on all datasets.

Six panels in the paper:

* (a)/(b) -- wall-clock time on small / big graphs;
* (c)/(d) -- memory usage;
* (e)/(f) -- I/O counts.

Small graphs run all five algorithms (SemiCore, SemiCore+, SemiCore*,
EMCore, IMCore); big graphs run the three semi-external algorithms, as in
the paper.  On top of the paper's grid, every engine-aware algorithm runs
under each available execution engine (reference ``python`` plus the
vectorized ``numpy`` engine when installed), so the printed tables carry
an engine column and the two engines can be compared side by side.  Each
test records one (dataset, algorithm, engine) cell; the tables carry
time, model memory and read/write I/Os so all six panels come from one
pass.
"""

import pytest

from repro.bench.harness import run_decomposition
from repro.bench.reporting import format_bytes, format_count, format_seconds
from repro.core.engines import engine_names
from repro.datasets.registry import BIG_DATASETS, SMALL_DATASETS

from benchmarks.conftest import load_bench_dataset, once

SMALL_ALGORITHMS = ["semicore", "semicore+", "semicore*", "emcore", "imcore"]
BIG_ALGORITHMS = ["semicore", "semicore+", "semicore*"]

ENGINES = engine_names()

SMALL_CASES = [(d, a, e) for d in SMALL_DATASETS for a in SMALL_ALGORITHMS
               for e in ENGINES]
BIG_CASES = [(d, a, e) for d in BIG_DATASETS for a in BIG_ALGORITHMS
             for e in ENGINES]


def _run_cell(benchmark, results, figure, dataset, algorithm, engine):
    storage = load_bench_dataset(dataset)
    storage.drop_caches()
    outcome = {}

    def run():
        outcome["result"] = run_decomposition(algorithm, storage,
                                              engine=engine)

    once(benchmark, run)
    result = outcome["result"]
    results.add(
        figure,
        dataset=dataset,
        algorithm=result.algorithm,
        engine=result.engine,
        time=format_seconds(result.elapsed_seconds),
        memory=format_bytes(result.model_memory_bytes),
        read_ios=format_count(result.io.read_ios),
        write_ios=format_count(result.io.write_ios),
        iterations=result.iterations,
        kmax=result.kmax,
        _seconds=result.elapsed_seconds,
        _read_ios=result.io.read_ios,
        _write_ios=result.io.write_ios,
        _memory_bytes=result.model_memory_bytes,
        _node_computations=result.node_computations,
    )
    return result


@pytest.mark.parametrize("dataset,algorithm,engine", SMALL_CASES)
def test_fig9_small_graphs(benchmark, results, dataset, algorithm, engine):
    result = _run_cell(benchmark, results,
                       "Fig 9 a/c/e (small graphs)", dataset, algorithm,
                       engine)
    assert result.kmax > 0


@pytest.mark.parametrize("dataset,algorithm,engine", BIG_CASES)
def test_fig9_big_graphs(benchmark, results, dataset, algorithm, engine):
    result = _run_cell(benchmark, results,
                       "Fig 9 b/d/f (big graphs)", dataset, algorithm,
                       engine)
    assert result.kmax > 0
