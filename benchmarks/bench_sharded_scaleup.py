"""Sharded decomposition scale-up: shard count vs I/O, rounds, memory.

Runs :func:`~repro.core.sharded.sharded_semi_core_star` over a growing
shard count on the webbase proxy (the big graph with the mildest degree
mixing, hence the most shard locality of the registry) and reports the
scale-up trade the shard refactor buys: the per-shard working set
(``model_memory_bytes`` / ``max_shard_rows``) shrinks with the shard
count while the exchange rounds and the boundary-table overhead grow.
The ``shards=1`` row doubles as the unsharded working-set baseline.
Every row is checked bit-identical against the unsharded SemiCore*
cores, and the executor rows assert the serial/persistent I/O-identity
contract.

Two further figures measure this PR's levers on the same proxy:

* the balance/relabel matrix -- node- vs arc-balanced shard bounds
  crossed with the locality relabeling pre-pass, reporting owned-arc
  skew, boundary rows and halo bytes per combination (arc balance must
  meet the ``skew <= 1.15`` acceptance bound; relabeling must shrink
  the node-balanced halo);
* the executor wall-clock comparison at the largest shard count:
  persistent against serial, where the persistent pool must fork
  exactly once per decomposition.

Raw metrics land in ``BENCH_RESULTS.json`` via the results sink, so the
perf trajectory tracks sharded scale-up across PRs.
"""

import time

import pytest

from repro.bench.reporting import format_bytes, format_count, \
    format_seconds
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import PersistentShardExecutor, \
    sharded_semi_core_star

from benchmarks.conftest import load_bench_dataset, once

DATASET = "webbase"
SHARD_COUNTS = [1, 2, 4, 8]
FIGURE = "Sharded scale-up (%s proxy)" % DATASET
BALANCE_FIGURE = "Shard balance and relabeling (%s proxy)" % DATASET
EXECUTOR_FIGURE = "Shard executors wall-clock (%s proxy)" % DATASET

#: Engine/executor matrix measured at the largest shard count.
VARIANTS = [("python", "persistent"), ("numpy", "serial")]

#: The acceptance bound on owned-arc skew under ``balance="arc"``.
SKEW_BOUND = 1.15


def _reference_cores():
    storage = load_bench_dataset(DATASET)
    try:
        return list(semi_core_star(storage).cores)
    finally:
        storage.close()


@pytest.fixture(scope="module")
def reference_cores():
    return _reference_cores()


def _add_row(results, result, executor, seconds):
    results.add(
        FIGURE,
        dataset=DATASET,
        engine=result.engine,
        executor=executor,
        shards=result.num_shards,
        rounds=result.iterations,
        read_ios=format_count(result.io.read_ios),
        write_ios=format_count(result.io.write_ios),
        shard_memory=format_bytes(result.model_memory_bytes),
        max_shard_rows=format_count(result.max_shard_nodes),
        boundary_rows=format_count(result.num_boundary),
        arc_skew="%.3f" % result.arc_skew,
        time=format_seconds(seconds),
        _shards=result.num_shards,
        _rounds=result.iterations,
        _read_ios=result.io.read_ios,
        _write_ios=result.io.write_ios,
        _memory_bytes=result.model_memory_bytes,
        _boundary_rows=result.num_boundary,
        _arc_skew=result.arc_skew,
        _halo_bytes=result.halo_bytes,
        _seconds=seconds,
    )


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sharded_scaleup(benchmark, results, reference_cores,
                         num_shards):
    storage = load_bench_dataset(DATASET)
    outcome = {}

    def run():
        outcome["result"] = sharded_semi_core_star(storage, num_shards)

    once(benchmark, run)
    result = outcome["result"]
    storage.close()
    assert list(result.cores) == reference_cores
    _add_row(results, result, result.executor, result.elapsed_seconds)


@pytest.mark.parametrize("engine,executor", VARIANTS)
def test_sharded_variants(benchmark, results, reference_cores, engine,
                          executor):
    num_shards = SHARD_COUNTS[-1]
    storage = load_bench_dataset(DATASET)
    outcome = {}

    def run():
        outcome["result"] = sharded_semi_core_star(
            storage, num_shards, engine=engine, executor=executor)

    once(benchmark, run)
    result = outcome["result"]
    storage.close()
    assert list(result.cores) == reference_cores
    if executor == "persistent":
        assert result.pool_forks == 1
    _add_row(results, result, executor, result.elapsed_seconds)


@pytest.mark.parametrize("balance,relabel", [
    ("node", False), ("node", "bfs"),
    ("arc", False), ("arc", "bfs"),
])
def test_balance_relabel_matrix(benchmark, results, reference_cores,
                                balance, relabel):
    """Node- vs arc-balanced bounds crossed with locality relabeling."""
    num_shards = SHARD_COUNTS[-1]
    storage = load_bench_dataset(DATASET)
    outcome = {}

    def run():
        outcome["result"] = sharded_semi_core_star(
            storage, num_shards, balance=balance, relabel=relabel)

    once(benchmark, run)
    result = outcome["result"]
    storage.close()
    assert list(result.cores) == reference_cores
    if balance == "arc":
        assert result.arc_skew <= SKEW_BOUND, result.arc_skew
    results.add(
        BALANCE_FIGURE,
        dataset=DATASET,
        shards=num_shards,
        balance=balance,
        relabel=relabel or "off",
        rounds=result.iterations,
        max_owned_arcs=format_count(result.max_owned_arcs),
        arc_skew="%.3f" % result.arc_skew,
        boundary_rows=format_count(result.num_boundary),
        boundary_fraction="%.1f%%" % (100.0 * result.boundary_fraction),
        halo_bytes=format_bytes(result.halo_bytes),
        read_ios=format_count(result.io.read_ios),
        time=format_seconds(result.elapsed_seconds),
        _balance=balance,
        _relabel=relabel or "off",
        _rounds=result.iterations,
        _max_owned_arcs=result.max_owned_arcs,
        _arc_skew=result.arc_skew,
        _boundary_rows=result.num_boundary,
        _halo_bytes=result.halo_bytes,
        _read_ios=result.io.read_ios,
        _seconds=result.elapsed_seconds,
    )


def test_relabel_shrinks_node_balanced_halo(reference_cores):
    """The locality pre-pass must shrink the boundary tables."""
    runs = {}
    for relabel in (False, "bfs"):
        storage = load_bench_dataset(DATASET)
        runs[relabel] = sharded_semi_core_star(storage, SHARD_COUNTS[-1],
                                               relabel=relabel)
        storage.close()
        assert list(runs[relabel].cores) == reference_cores
    assert runs["bfs"].halo_bytes < runs[False].halo_bytes


def test_executor_wallclock(results, reference_cores):
    """persistent vs serial at the largest shard count.

    Both executors exchange estimates through the same shared round
    plan; the persistent pool forks once per decomposition and runs the
    shard passes in parallel.  It must agree with serial on cores, I/O
    and rounds; the wall-clock ratio is recorded for the trajectory.
    """
    num_shards = SHARD_COUNTS[-1]
    timings = {}
    runs = {}
    for executor in ("serial", "persistent"):
        storage = load_bench_dataset(DATASET)
        exec_obj = (PersistentShardExecutor()
                    if executor == "persistent" else executor)
        start = time.perf_counter()
        runs[executor] = sharded_semi_core_star(storage, num_shards,
                                                executor=exec_obj)
        timings[executor] = time.perf_counter() - start
        storage.close()
        assert list(runs[executor].cores) == reference_cores
        if executor == "persistent":
            assert exec_obj.pool_forks == 1  # forked exactly once
        assert runs[executor].io == runs["serial"].io
        assert runs[executor].iterations == runs["serial"].iterations
    for executor, seconds in timings.items():
        results.add(
            EXECUTOR_FIGURE,
            dataset=DATASET,
            shards=num_shards,
            executor=executor,
            rounds=runs[executor].iterations,
            time=format_seconds(seconds),
            vs_serial="%.2fx" % (timings["serial"] / seconds),
            _executor=executor,
            _rounds=runs[executor].iterations,
            _seconds=seconds,
            _speedup_vs_serial=timings["serial"] / seconds,
        )
