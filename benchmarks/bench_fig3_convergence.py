"""Fig. 3: number of nodes whose core number changes per iteration.

The paper plots this for Twitter (62 iterations, steep decay) and UK
(2137 iterations, long tail under 100 changes).  The proxies reproduce
the *shape*: an early cliff followed by a long sparse tail on the web
graph, which is exactly what motivates SemiCore+ / SemiCore*.

The trace is produced under every available execution engine.  Engines
are contractually bit-identical, so beyond reporting both side by side
this benchmark asserts that the numpy engine reproduces the reference
convergence series and I/O figures exactly.
"""

import pytest

from repro.core.engines import engine_names
from repro.core.semicore import semi_core

from benchmarks.conftest import load_bench_dataset, once


@pytest.mark.parametrize("name", ["twitter", "uk"])
def test_fig3_changed_nodes_per_iteration(benchmark, results, name):
    storage = load_bench_dataset(name)
    outcome = {}

    def run():
        for engine in engine_names():
            storage.drop_caches()
            storage.io_stats.reset()
            outcome[engine] = semi_core(storage, trace_changes=True,
                                        engine=engine)

    once(benchmark, run)
    reference = outcome["python"]
    changes = reference.per_iteration_changes
    total = len(changes)
    # Paper-style checkpoints along the x axis, one row per engine.
    checkpoints = sorted({1, 2, 3, 5, 10, total // 4 or 1,
                          total // 2 or 1, (3 * total) // 4 or 1, total})
    for engine, result in outcome.items():
        for iteration in checkpoints:
            if iteration <= total:
                results.add(
                    "Fig 3 (changed nodes per iteration)",
                    dataset=name,
                    engine=engine,
                    iteration=iteration,
                    changed_nodes=result.per_iteration_changes[
                        iteration - 1],
                    total_iterations=result.iterations,
                    seconds="%.3f" % result.elapsed_seconds,
                    _seconds=result.elapsed_seconds,
                    _read_ios=result.io.read_ios,
                    _write_ios=result.io.write_ios,
                )

    # Engines must agree series-for-series and block-for-block.
    for engine, result in outcome.items():
        assert result.per_iteration_changes == changes, engine
        assert list(result.cores) == list(reference.cores), engine
        assert result.io.read_ios == reference.io.read_ios, engine
        assert result.io.write_ios == reference.io.write_ios, engine

    # Shape assertions: steep early decay, converged tail.
    assert changes[0] > 0
    assert changes[-1] == 0
    midpoint = changes[total // 2]
    assert midpoint <= changes[0]
    if name == "uk":
        # The UK proxy reproduces the long sparse tail of Fig. 3(b).
        assert total >= 50
        tail = changes[total // 2:]
        assert max(tail) <= max(1, changes[0] // 10)
