"""Tests for the command line interface."""

import pytest

from repro.cli import main
from repro.datasets.io import write_edge_list
from repro.datasets.generators import paper_example_graph


@pytest.fixture
def converted_graph(tmp_path):
    """A stored copy of the Fig. 1 graph built through the CLI."""
    edges, _ = paper_example_graph()
    edge_file = tmp_path / "edges.txt"
    write_edge_list(edge_file, edges)
    prefix = str(tmp_path / "paper")
    assert main(["convert", "--edges", str(edge_file),
                 "--output", prefix]) == 0
    return prefix


class TestConvert:
    def test_creates_tables(self, converted_graph, capsys):
        import os
        assert os.path.exists(converted_graph + ".nodes")
        assert os.path.exists(converted_graph + ".edges")


class TestStats:
    def test_basic_stats(self, converted_graph, capsys):
        assert main(["stats", "--graph", converted_graph]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "15" in out  # edge count

    def test_with_cores(self, converted_graph, capsys):
        assert main(["stats", "--graph", converted_graph, "--cores"]) == 0
        out = capsys.readouterr().out
        assert "kmax" in out
        assert "3" in out


class TestDecompose:
    @pytest.mark.parametrize("algorithm", ["semicore", "semicore+",
                                           "semicore*", "emcore", "imcore"])
    def test_each_algorithm(self, converted_graph, capsys, algorithm):
        assert main(["decompose", "--graph", converted_graph,
                     "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert "kmax" in out

    def test_writes_core_file(self, converted_graph, tmp_path, capsys):
        out_file = tmp_path / "cores.txt"
        assert main(["decompose", "--graph", converted_graph,
                     "--output", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 9
        cores = [int(line.split("\t")[1]) for line in lines]
        assert cores == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    @pytest.mark.parametrize("algorithm", ["semicore", "semicore*",
                                           "imcore"])
    def test_numpy_engine(self, converted_graph, tmp_path, capsys,
                          algorithm):
        pytest.importorskip("numpy")
        out_file = tmp_path / "cores.txt"
        assert main(["decompose", "--graph", converted_graph,
                     "--algorithm", algorithm, "--engine", "numpy",
                     "--output", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        cores = [int(line.split("\t")[1])
                 for line in out_file.read_text().splitlines()]
        assert cores == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_engine_reported_for_reference_runs(self, converted_graph,
                                                capsys):
        assert main(["decompose", "--graph", converted_graph,
                     "--algorithm", "semicore"]) == 0
        assert "python" in capsys.readouterr().out


class TestMaintain:
    def test_update_stream(self, converted_graph, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("# paper walk-through\n- 0 1\n+ 4 6\n")
        assert main(["maintain", "--graph", converted_graph,
                     "--operations", str(ops), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "applied 2 operations" in out
        assert "kmax is now 3" in out

    def test_bad_operation_line(self, converted_graph, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("* 0 1\n")
        assert main(["maintain", "--graph", converted_graph,
                     "--operations", str(ops)]) == 1
        assert "error" in capsys.readouterr().err


class TestGenerate:
    def test_generate_dataset(self, tmp_path, capsys):
        prefix = str(tmp_path / "dblp")
        assert main(["generate", "--dataset", "dblp", "--scale", "0.05",
                     "--output", prefix]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "nope",
                  "--output", str(tmp_path / "x")])


class TestServe:
    def test_query_only_workload(self, converted_graph, capsys):
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "50"]) == 0
        out = capsys.readouterr().out
        assert "queries/sec" in out
        assert "cache hit rate" in out
        assert "read I/Os per 1k queries" in out

    def test_updates_bump_epoch(self, converted_graph, capsys):
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "40", "--updates", "6",
                     "--batch-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out
        assert "| 2" in out  # 6 events in batches of 3 -> epoch 2

    def test_data_dir_checkpoint_and_resume(self, converted_graph,
                                            tmp_path, capsys):
        data_dir = str(tmp_path / "svc")
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "30", "--updates", "4",
                     "--data-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "checkpointed" in out
        assert "journal segments" in out
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "10", "--data-dir", data_dir]) == 0
        assert "resumed service" in capsys.readouterr().out

    def test_segment_events_flag(self, converted_graph, tmp_path,
                                 capsys):
        data_dir = str(tmp_path / "svc")
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "10", "--updates", "6",
                     "--batch-size", "3", "--segment-events", "2",
                     "--data-dir", data_dir]) == 0
        assert "journal" in capsys.readouterr().out
        assert main(["serve", "--graph", converted_graph,
                     "--segment-events", "0"]) == 1
        assert "segment-events" in capsys.readouterr().err

    def test_numpy_engine(self, converted_graph, capsys):
        pytest.importorskip("numpy")
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "30", "--engine", "numpy"]) == 0
        assert "queries/sec" in capsys.readouterr().out

    def test_concurrent_readers(self, converted_graph, capsys):
        assert main(["serve", "--graph", converted_graph,
                     "--queries", "80", "--updates", "12",
                     "--batch-size", "4", "--threads", "3"]) == 0
        out = capsys.readouterr().out
        assert "reader threads" in out
        assert "epoch swaps" in out
        assert "torn reads   " in out
        assert "| 3" in out      # 3 reader threads
        assert "p99.9 latency" in out

    def test_bad_arguments_exit_cleanly(self, converted_graph, capsys):
        assert main(["serve", "--graph", converted_graph,
                     "--batch-size", "0"]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["serve", "--graph", converted_graph,
                     "--cache-capacity", "-1"]) == 1
        assert "error" in capsys.readouterr().err
        assert main(["serve", "--graph", converted_graph,
                     "--threads", "-2"]) == 1
        assert "threads" in capsys.readouterr().err


class TestVerify:
    def test_clean_graph(self, converted_graph, capsys):
        assert main(["verify", "--graph", converted_graph]) == 0
        assert "ok" in capsys.readouterr().out

    def test_with_core_file(self, converted_graph, tmp_path, capsys):
        cores = tmp_path / "cores.txt"
        assert main(["decompose", "--graph", converted_graph,
                     "--output", str(cores)]) == 0
        capsys.readouterr()
        assert main(["verify", "--graph", converted_graph,
                     "--cores", str(cores)]) == 0
        assert "exact" in capsys.readouterr().out

    def test_wrong_core_file_fails(self, converted_graph, tmp_path,
                                   capsys):
        cores = tmp_path / "cores.txt"
        cores.write_text("".join("%d\t9\n" % v for v in range(9)))
        assert main(["verify", "--graph", converted_graph,
                     "--cores", str(cores)]) == 1
        assert "issue" in capsys.readouterr().out


class TestReport:
    def test_renders_saved_results(self, tmp_path, capsys):
        from repro.bench.reporting import save_results
        save_results(tmp_path / "fig.json", {
            "figure": "Fig X (demo)", "scale": 1.0,
            "rows": [{"dataset": "dblp", "time": "1.00s"}],
        })
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig X (demo)" in out
        assert "dblp" in out

    def test_figure_filter(self, tmp_path, capsys):
        from repro.bench.reporting import save_results
        save_results(tmp_path / "a.json", {
            "figure": "Fig A", "scale": 1.0, "rows": [{"x": 1}]})
        save_results(tmp_path / "b.json", {
            "figure": "Fig B", "scale": 1.0, "rows": [{"x": 2}]})
        assert main(["report", "--results", str(tmp_path),
                     "--figure", "fig b"]) == 0
        out = capsys.readouterr().out
        assert "Fig B" in out
        assert "Fig A" not in out

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path)]) == 1

    def test_service_rows_get_a_summary_line(self, tmp_path, capsys):
        from repro.bench.reporting import save_results
        save_results(tmp_path / "svc.json", {
            "figure": "Service throughput (demo)", "scale": 1.0,
            "rows": [
                {"engine": "python", "mode": "cached", "qps": "9000",
                 "_qps": 9000.0, "_hit_rate": 0.85,
                 "_read_ios_per_1k_queries": 12.0},
                {"engine": "python", "mode": "uncached", "qps": "800",
                 "_qps": 800.0, "_hit_rate": 0.0,
                 "_read_ios_per_1k_queries": 900.0},
            ],
        })
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "service: peak" in out
        assert "85.0%" in out

    def test_non_service_rows_get_no_summary(self, tmp_path, capsys):
        from repro.bench.reporting import save_results
        save_results(tmp_path / "fig.json", {
            "figure": "Fig X", "scale": 1.0,
            "rows": [{"dataset": "dblp", "_seconds": 1.0}],
        })
        assert main(["report", "--results", str(tmp_path)]) == 0
        assert "service:" not in capsys.readouterr().out


class TestShardedDecompose:
    def test_sharded_run(self, converted_graph, capsys):
        assert main(["decompose", "--graph", converted_graph,
                     "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "ShardedSemiCore*" in out
        assert "shards" in out and "3" in out
        assert "serial" in out

    def test_sharded_persistent_with_output(self, converted_graph,
                                            tmp_path, capsys):
        out_file = tmp_path / "cores.tsv"
        assert main(["decompose", "--graph", converted_graph,
                     "--shards", "2", "--executor", "persistent",
                     "--output", str(out_file)]) == 0
        assert "persistent" in capsys.readouterr().out
        cores = [int(line.split("\t")[1])
                 for line in out_file.read_text().splitlines()]
        assert cores == [3, 3, 3, 3, 2, 2, 2, 2, 1]

    def test_removed_multiprocessing_executor_rejected(
            self, converted_graph, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--graph", converted_graph,
                  "--shards", "2", "--executor", "multiprocessing"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_executor_requires_shards(self, converted_graph, capsys):
        assert main(["decompose", "--graph", converted_graph,
                     "--executor", "serial"]) == 1
        assert "--shards" in capsys.readouterr().err

    def test_shards_require_semicore_star(self, converted_graph, capsys):
        assert main(["decompose", "--graph", converted_graph,
                     "--algorithm", "semicore", "--shards", "2"]) == 1
        assert "semicore*" in capsys.readouterr().err

    def test_invalid_shard_count(self, converted_graph, capsys):
        assert main(["decompose", "--graph", converted_graph,
                     "--shards", "0"]) == 1
        assert "error" in capsys.readouterr().err


class TestDistributedDecompose:
    def test_distributed_algorithm(self, converted_graph, capsys):
        assert main(["decompose", "--graph", converted_graph,
                     "--algorithm", "distributed"]) == 0
        out = capsys.readouterr().out
        assert "DistributedCore" in out
