"""Engine comparison: vectorized vs reference kernels at bench scale.

Runs every engine-aware decomposition algorithm -- and the Fig. 10
maintenance protocol -- under both engines on the *largest* generated
benchmark graph (the clueweb proxy, the biggest entry in the dataset
registry) and reports wall-clock speedups.  The engine contract is
asserted throughout:

* every algorithm returns bit-identical core numbers and identical
  read/write I/O counts under both engines (EMCore's figure includes
  the partition store's write I/Os);
* at full bench scale the vectorized hot paths beat the reference by a
  wide margin: SemiCore >= 5x (the interpreter scan loop) and EMCore
  >= 3x (the heap peels); the maintenance kernels must win on the
  insertion-heavy protocol.  SemiCore+ is reported without a floor --
  its passes are thin on the clueweb proxy's propagation tail and the
  engine contract obliges the vectorized run to replay the reference's
  per-node reads, which bounds the achievable gain.
"""

import pytest

from repro.bench.harness import compare_engines, engine_speedups, \
    maintenance_trial
from repro.bench.reporting import format_count, format_seconds
from repro.datasets.registry import BIG_DATASETS

from benchmarks.conftest import BENCH_SCALE, load_bench_dataset, once

#: The clueweb proxy is the largest generated benchmark graph.
LARGEST_DATASET = "clueweb"
ALGORITHMS = ["semicore", "semicore+", "semicore*", "imcore", "emcore"]

#: Wall-clock floors asserted at full bench scale (reduced scales only
#: need to not lose).
SPEEDUP_FLOORS = {"semicore": 5.0, "emcore": 3.0}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_engine_speedup_largest_graph(benchmark, results, algorithm):
    assert LARGEST_DATASET in BIG_DATASETS
    storage = load_bench_dataset(LARGEST_DATASET)
    outcome = {}

    def run():
        outcome.update(compare_engines(algorithm, storage,
                                       engines=("python", "numpy")))

    once(benchmark, run)
    python_result = outcome["python"]
    numpy_result = outcome["numpy"]
    speedup = engine_speedups(outcome)["numpy"]

    results.add(
        "Engine speedup (largest graph: %s)" % LARGEST_DATASET,
        algorithm=python_result.algorithm,
        python_time=format_seconds(python_result.elapsed_seconds),
        numpy_time=format_seconds(numpy_result.elapsed_seconds),
        speedup="%.1fx" % speedup,
        read_ios=format_count(numpy_result.io.read_ios),
        io_identical=(python_result.io.read_ios == numpy_result.io.read_ios
                      and python_result.io.write_ios
                      == numpy_result.io.write_ios),
        kmax=numpy_result.kmax,
        _python_seconds=python_result.elapsed_seconds,
        _seconds=numpy_result.elapsed_seconds,
        _speedup=speedup,
        _read_ios=numpy_result.io.read_ios,
        _write_ios=numpy_result.io.write_ios,
    )

    # Contract: bit-identical results ...
    assert list(numpy_result.cores) == list(python_result.cores)
    assert numpy_result.iterations == python_result.iterations
    assert numpy_result.node_computations == python_result.node_computations
    # ... and identical block I/O, including EMCore's partition writes.
    assert numpy_result.io.read_ios == python_result.io.read_ios
    assert numpy_result.io.write_ios == python_result.io.write_ios
    # The vectorized hot paths must beat the interpreter by a wide
    # margin at full bench scale; reduced scales only need to not lose.
    floor = SPEEDUP_FLOORS.get(algorithm)
    if floor is not None and BENCH_SCALE >= 1.0:
        assert speedup >= floor, \
            "%s speedup regressed: %.2fx < %.1fx" % (algorithm, speedup,
                                                     floor)


def test_maintenance_engine_speedup(benchmark, results):
    """Fig. 10 protocol under both engines: parity plus a wall-clock win.

    The numpy maintenance kernels pick per-node between a vectorized
    gather and the reference's per-edge loop (degree cutoff), so the
    insertion algorithms -- whose candidate sets hit the proxy's planted
    hubs -- must come out ahead; deletions are sub-millisecond noise and
    only need parity.
    """
    outcome = {}

    def run():
        outcome["python"] = maintenance_trial(
            load_bench_dataset(LARGEST_DATASET), num_edges=50, seed=42,
            include_inmemory=False, engine="python")
        outcome["numpy"] = maintenance_trial(
            load_bench_dataset(LARGEST_DATASET), num_edges=50, seed=42,
            include_inmemory=False, engine="numpy")

    once(benchmark, run)
    for algorithm, reference in outcome["python"].items():
        vectorized = outcome["numpy"][algorithm]
        speedup = (reference["avg_seconds"] / vectorized["avg_seconds"]
                   if vectorized["avg_seconds"] else float("inf"))
        results.add(
            "Engine speedup (maintenance: %s)" % LARGEST_DATASET,
            algorithm=algorithm,
            python_time=format_seconds(reference["avg_seconds"]),
            numpy_time=format_seconds(vectorized["avg_seconds"]),
            speedup="%.2fx" % speedup,
            _python_seconds=reference["avg_seconds"],
            _seconds=vectorized["avg_seconds"],
            _speedup=speedup,
            _read_ios=vectorized["avg_read_ios"],
        )
        # Parity: identical work and identical block I/O per operation.
        assert vectorized["avg_computations"] == \
            reference["avg_computations"], algorithm
        assert vectorized["avg_read_ios"] == \
            reference["avg_read_ios"], algorithm
        assert vectorized["avg_changed"] == \
            reference["avg_changed"], algorithm
        # Speedup: the insertion kernels must win at full bench scale.
        if BENCH_SCALE >= 1.0 and algorithm in ("SemiInsert",
                                                "SemiInsert*"):
            assert speedup >= 1.05, \
                "%s speedup regressed: %.2fx" % (algorithm, speedup)
