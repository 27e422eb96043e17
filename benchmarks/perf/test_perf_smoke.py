"""Smoke test of the performance benchmark at its ``--quick`` size.

Runs every workload through the same code the benchmark runs, with tiny
inputs and fixed operation counts, and checks the contract the full-size
runs rely on: metric names and units, zero errors, repeatable counters,
layer rows that add up, and an oracle that catches a wrong answer.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from . import run as perf_run
from . import workloads

SPEC = perf_run.load_spec()

#: Counters that a fixed operation budget makes exactly repeatable.
DETERMINISTIC = (
    "storage.read_ios", "storage.bytes_read", "storage.write_ios",
    "storage.bytes_written", "engines.passes", "engines.node_computations",
    "engines.model_memory_bytes", "sharded.rounds", "sharded.halo_bytes",
    "sharded.pool_forks", "maintenance.inserts", "maintenance.deletes",
    "maintenance.node_computations", "maintenance.changed_nodes",
    "journal.fsyncs", "apply.count", "cache.hits", "cache.misses",
    "cache.invalidations",
) + tuple("read.%s.count" % kind for kind in workloads.READ_KINDS)


def _quick(name, tmp_path, trace):
    return workloads.run_workload(name, 1, trace=trace, quick=True,
                                  workdir=str(tmp_path / name))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    directory = tmp_path_factory.mktemp("traced")
    return {name: _quick(name, directory, True)
            for name in workloads.WORKLOADS}


def test_every_workload_reports_every_metric_without_errors(traced):
    names = {e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(traced) == {w["name"] for w in SPEC["workloads"]}
    for name, result in traced.items():
        assert names <= set(result["metrics"]), name
        assert result["attempted"] > 0, name
        assert result["failed"] == 0, (name, result["failures"])


def test_traced_rows_add_up_to_the_traced_wall_time(traced):
    for name, result in traced.items():
        assert result["metrics"]["trace.wall_s"] > 0, name
        assert workloads.layer_sum_error(result["metrics"]) < 0.01, name


def test_counters_repeat_exactly_across_runs(traced, tmp_path):
    for name, first in traced.items():
        second = _quick(name, tmp_path, False)
        for counter in DETERMINISTIC:
            assert first["metrics"][counter] == \
                second["metrics"][counter], (name, counter)


def test_a_wrong_core_value_is_caught(tmp_path, monkeypatch):
    real = workloads.semi_core_star

    def planted(graph, **kwargs):
        result = real(graph, **kwargs)
        result.cores[0] += 1
        return result

    monkeypatch.setattr(workloads, "semi_core_star", planted)
    result = _quick("decompose-web", tmp_path, False)
    assert result["failed"] / result["attempted"] > 0  # the error rate


def test_verdicts_follow_direction_bound_and_spread():
    verdict = perf_run.verdict
    assert verdict([10.0], [10.5], "lower", 0.1) == "ok"
    assert verdict([10.0], [12.0], "lower", 0.1) == "worse"
    assert verdict([10.0], [12.0], "higher", 0.1) == "better"
    assert verdict([100.0, 100.0], [101.0], "lower", 0) == "worse"
    # Spread wider than the bound: unresolved unless B beats every A run.
    assert verdict([10.0, 14.0], [13.0], "lower", 0.1) == "unresolved"
    assert verdict([10.0, 14.0], [9.0], "lower", 0.1) == "better"


def test_compare_gates_end_to_end_metrics_and_errors(tmp_path, capsys):
    def write(name, p50, failed):
        record = {"figure": "perf.serve-read", "mode": "untraced",
                  "attempted": 100, "failed": failed,
                  "metrics": {"op_p50_ms": p50, "storage.read_ios": 5.0}}
        path = tmp_path / name
        path.write_text(json.dumps({"records": [record]}))
        return str(path)

    base = write("a.json", 1.0, 0)
    assert perf_run.compare(base, write("b.json", 1.1, 0), SPEC) == 0
    assert perf_run.compare(base, write("c.json", 2.0, 0), SPEC) == 1
    assert perf_run.compare(base, write("d.json", 1.0, 1), SPEC) == 1
    assert "worse" in capsys.readouterr().out


def test_command_prints_the_contract_line():
    completed = subprocess.run(
        [sys.executable, str(perf_run.HERE / "run.py"), "--workload",
         "decompose-web", "--quick", "--seed", "2", "--trace", "0"],
        cwd=str(perf_run.ROOT), capture_output=True, text=True, timeout=60,
        check=True)
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in line["metrics"].items()} == units
    printed = {fields[0]: fields[-1] for fields in
               (text.split() for text in completed.stdout.splitlines())
               if len(fields) == 3}
    assert printed == units
