"""Tests for the BENCH_RESULTS.json perf-trajectory exporter."""

import json
import os

from benchmarks.collect_results import (
    SCHEMA_VERSION,
    collect,
    main,
    write_trajectory,
)


def write_figure(directory, name, figure, scale, rows):
    payload = {"figure": figure, "scale": scale, "rows": rows}
    path = os.path.join(directory, name)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle)
    return path


def sample_results_dir(tmp_path):
    directory = str(tmp_path / "results")
    os.makedirs(directory)
    write_figure(directory, "fig9.json", "Fig 9", 1.0, [
        {"dataset": "dblp", "algorithm": "SemiCore", "engine": "python",
         "time": "1.00s", "_seconds": 1.0, "_read_ios": 100,
         "_write_ios": 0},
        {"dataset": "dblp", "algorithm": "SemiCore", "engine": "numpy",
         "time": "0.20s", "_seconds": 0.2, "_read_ios": 100,
         "_write_ios": 0},
    ])
    write_figure(directory, "fig10.json", "Fig 10", 1.0, [
        {"dataset": "uk", "algorithm": "SemiInsert*", "engine": "numpy",
         "_seconds": 0.001, "_read_ios": 3.5},
        # Row without raw metrics (older benchmark revision): skipped.
        {"dataset": "uk", "algorithm": "IMInsert", "avg_time": "1.00us"},
    ])
    return directory


class TestCollect:
    def test_collects_raw_metric_rows(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        records, skipped = collect(directory)
        assert len(records) == 3
        assert skipped == 1
        fig9 = [r for r in records if r["figure"] == "Fig 9"]
        assert [r["engine"] for r in fig9] == ["python", "numpy"]
        first = fig9[0]
        assert first["dataset"] == "dblp"
        assert first["scale"] == 1.0
        assert first["metrics"] == {"seconds": 1.0, "read_ios": 100,
                                    "write_ios": 0}

    def test_empty_directory(self, tmp_path):
        directory = str(tmp_path / "empty")
        os.makedirs(directory)
        assert collect(directory) == ([], 0)

    def test_corrupt_file_skipped(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        with open(os.path.join(directory, "broken.json"), "w",
                  encoding="ascii") as handle:
            handle.write('{"figure": "truncated", "rows": [{"_x":')
        records, skipped = collect(directory)
        assert len(records) == 3
        assert skipped == 2


class TestWriteTrajectory:
    def test_writes_schema_and_records(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        path = write_trajectory(directory)
        assert path == os.path.join(directory, "BENCH_RESULTS.json")
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["scale"] == 1.0
        assert payload["skipped_rows"] == 1
        engines = {(r["algorithm"], r.get("engine"))
                   for r in payload["records"]}
        assert ("SemiCore", "numpy") in engines
        assert ("SemiInsert*", "numpy") in engines

    def test_output_excluded_from_collection(self, tmp_path):
        """Re-running the exporter must not ingest its own output."""
        directory = sample_results_dir(tmp_path)
        write_trajectory(directory)
        records_before, _ = collect(directory)
        write_trajectory(directory)
        records_after, _ = collect(directory)
        assert records_after == records_before

    def test_missing_directory_returns_none(self, tmp_path):
        assert write_trajectory(str(tmp_path / "nope")) is None

    def test_custom_output_path(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        target = str(tmp_path / "out" / "BENCH_RESULTS.json")
        assert write_trajectory(directory, target) == target
        assert os.path.exists(target)

    def test_mixed_scales_reported_as_list(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        write_figure(directory, "other.json", "Fig X", 0.5, [
            {"dataset": "uk", "algorithm": "IMCore", "_seconds": 0.1},
        ])
        path = write_trajectory(directory)
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        assert payload["scale"] == [0.5, 1.0]


class TestCLI:
    def test_main_writes_and_reports(self, tmp_path, capsys):
        directory = sample_results_dir(tmp_path)
        assert main(["--results", directory]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out
        assert os.path.exists(os.path.join(directory,
                                           "BENCH_RESULTS.json"))

    def test_main_missing_directory(self, tmp_path, capsys):
        assert main(["--results", str(tmp_path / "nope")]) == 1
        assert "no results" in capsys.readouterr().err


class TestMergeInto:
    """Partial runs merge into the trajectory instead of emptying it."""

    def test_carries_records_for_figures_no_longer_on_disk(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        write_trajectory(directory)
        os.remove(os.path.join(directory, "fig10.json"))
        path = write_trajectory(directory)
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        figures = {r["figure"] for r in payload["records"]}
        assert figures == {"Fig 9", "Fig 10"}
        assert payload["carried_records"] == 1

    def test_fresh_figures_supersede_previous_rows_wholesale(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        write_trajectory(directory)
        write_figure(directory, "fig9.json", "Fig 9", 1.0, [
            {"dataset": "dblp", "algorithm": "SemiCore",
             "engine": "python", "_seconds": 0.9},
        ])
        path = write_trajectory(directory)
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        fig9 = [r for r in payload["records"] if r["figure"] == "Fig 9"]
        assert len(fig9) == 1  # both old Fig 9 rows replaced
        assert fig9[0]["metrics"] == {"seconds": 0.9}

    def test_no_merge_rebuilds_from_disk_only(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        write_trajectory(directory)
        os.remove(os.path.join(directory, "fig10.json"))
        path = write_trajectory(directory, merge=False)
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        assert {r["figure"] for r in payload["records"]} == {"Fig 9"}

    def test_count_new_records(self):
        from benchmarks.collect_results import count_new_records

        previous = [{"figure": "F", "metrics": {"seconds": 1.0}}]
        same = [{"figure": "F", "metrics": {"seconds": 1.0}}]
        fresh = [{"figure": "F", "metrics": {"seconds": 2.0}}]
        assert count_new_records(same, previous) == 0
        assert count_new_records(fresh, previous) == 1
        assert count_new_records(same + fresh, previous) == 1


class TestRequireNew:
    def test_fails_when_nothing_new(self, tmp_path, capsys):
        directory = sample_results_dir(tmp_path)
        assert main(["--results", directory]) == 0
        # Re-running against the just-written output gains nothing.
        assert main(["--results", directory, "--require-new"]) == 1
        assert "no new rows" in capsys.readouterr().err

    def test_passes_against_stale_baseline(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        assert main(["--results", directory]) == 0
        baseline = str(tmp_path / "baseline.json")
        import shutil
        shutil.copy(os.path.join(directory, "BENCH_RESULTS.json"),
                    baseline)
        write_figure(directory, "fig9.json", "Fig 9", 1.0, [
            {"dataset": "dblp", "algorithm": "SemiCore",
             "engine": "python", "_seconds": 0.5},
        ])
        assert main(["--results", directory, "--require-new",
                     "--previous", baseline]) == 0

    def test_reports_new_and_carried_counts(self, tmp_path, capsys):
        directory = sample_results_dir(tmp_path)
        assert main(["--results", directory]) == 0
        out = capsys.readouterr().out
        assert "3 collected" in out
        assert "3 new vs baseline" in out


class TestRevisionHistory:
    def test_records_are_rev_stamped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_REV", "9.9.9")
        directory = sample_results_dir(tmp_path)
        records, _ = collect(directory)
        assert records and all(r["rev"] == "9.9.9" for r in records)

    def test_default_rev_is_package_version(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_REV", raising=False)
        from repro._version import __version__
        directory = sample_results_dir(tmp_path)
        records, _ = collect(directory)
        assert records[0]["rev"] == __version__

    def test_other_revisions_survive_a_rerun(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        output = os.path.join(directory, "BENCH_RESULTS.json")
        assert write_trajectory(directory, rev="1.5.0") == output
        # A later PR re-runs the same figures under a new revision.
        assert write_trajectory(directory, rev="1.6.0") == output
        with open(output, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        revs = sorted({r["rev"] for r in payload["records"]})
        assert revs == ["1.5.0", "1.6.0"]
        per_rev = {rev: sum(1 for r in payload["records"]
                            if r["rev"] == rev) for rev in revs}
        assert per_rev["1.5.0"] == per_rev["1.6.0"] == 3

    def test_same_revision_rerun_replaces_not_duplicates(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        write_trajectory(directory, rev="1.6.0")
        write_trajectory(directory, rev="1.6.0")
        output = os.path.join(directory, "BENCH_RESULTS.json")
        with open(output, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        assert len(payload["records"]) == 3

    def test_legacy_unstamped_records_superseded_wholesale(self, tmp_path):
        directory = sample_results_dir(tmp_path)
        output = os.path.join(directory, "BENCH_RESULTS.json")
        # Simulate a pre-history trajectory: strip the rev stamps.
        write_trajectory(directory, rev="1.5.0")
        with open(output, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        for record in payload["records"]:
            del record["rev"]
        with open(output, "w", encoding="ascii") as handle:
            json.dump(payload, handle)
        write_trajectory(directory, rev="1.6.0")
        with open(output, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        assert all(r["rev"] == "1.6.0" for r in payload["records"])
        assert len(payload["records"]) == 3

    def test_history_capped_per_figure(self, tmp_path):
        from benchmarks.collect_results import MAX_REVS_PER_FIGURE
        directory = sample_results_dir(tmp_path)
        output = os.path.join(directory, "BENCH_RESULTS.json")
        for minor in range(MAX_REVS_PER_FIGURE + 4):
            write_trajectory(directory, rev="1.%d.0" % minor)
        with open(output, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        revs = sorted({r["rev"] for r in payload["records"]},
                      key=lambda r: tuple(int(p) for p in r.split(".")))
        assert len(revs) == MAX_REVS_PER_FIGURE
        # The oldest revisions were dropped, the newest kept.
        assert revs[-1] == "1.%d.0" % (MAX_REVS_PER_FIGURE + 3)

    def test_require_new_names_stale_figures(self, tmp_path, capsys):
        directory = sample_results_dir(tmp_path)
        assert main(["--results", directory, "--rev", "1.6.0"]) == 0
        capsys.readouterr()
        # Refresh only Fig 9 under a new revision: Fig 10 contributes
        # zero new rows and is named on stderr, but the run passes.
        write_figure(directory, "fig9.json", "Fig 9", 1.0, [
            {"dataset": "dblp", "algorithm": "SemiCore",
             "engine": "python", "_seconds": 0.9},
        ])
        os.remove(os.path.join(directory, "fig10.json"))
        assert main(["--results", directory, "--rev", "1.7.0",
                     "--require-new"]) == 0
        err = capsys.readouterr().err
        assert "zero new rows" in err
        assert "Fig 10" in err and "Fig 9" not in err


class TestPerfWorkloadRecords:
    """The perf workloads merge into the exported trajectory.

    CI exports the figure rows, then ``benchmarks/perf/run.py --out``
    appends its ``perf.*`` records to the same file, and the trend
    report renders both.  No workload runs here: the records come from
    synthetic results.
    """

    @staticmethod
    def perf_result(workload, trace, ops_per_s):
        return {"workload": workload, "scale": 0.02, "dataset": "lj",
                "trace": trace, "seed": 1, "quick": True,
                "attempted": 40, "failed": 0,
                "metrics": {"ops_per_s": ops_per_s, "op_p50_ms": 2.5}}

    def merge_perf(self, path, monkeypatch, rev, results):
        from benchmarks.perf import run as perf_run
        monkeypatch.setattr(perf_run, "machine", lambda: {"git_rev": None})
        monkeypatch.setenv("REPRO_BENCH_REV", rev)
        perf_run.write_results(path, results)

    def test_perf_records_land_beside_figure_records(self, tmp_path,
                                                     monkeypatch):
        directory = sample_results_dir(tmp_path)
        path = write_trajectory(directory, rev="1.6.0")
        self.merge_perf(path, monkeypatch, "1.6.0", [
            self.perf_result("serve-read", False, 400.0),
            self.perf_result("serve-read", True, 380.0),
        ])
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        figures = sorted({r["figure"] for r in payload["records"]})
        assert figures == ["Fig 10", "Fig 9", "perf.serve-read"]
        assert {"perf.serve-read/traced",
                "perf.serve-read/untraced"} <= set(payload["spread"])

    def test_next_export_carries_perf_records(self, tmp_path, monkeypatch):
        directory = sample_results_dir(tmp_path)
        path = write_trajectory(directory, rev="1.6.0")
        self.merge_perf(path, monkeypatch, "1.6.0",
                        [self.perf_result("decompose-web", False, 3.0)])
        write_trajectory(directory, rev="1.7.0")
        with open(path, "r", encoding="ascii") as handle:
            payload = json.load(handle)
        perf = [r for r in payload["records"]
                if r["figure"] == "perf.decompose-web"]
        assert len(perf) == 1 and perf[0]["rev"] == "1.6.0"

    def test_trend_renders_one_perf_series_per_mode(self, tmp_path,
                                                    monkeypatch):
        from repro.bench.trend import load_trajectory, render_trend

        directory = sample_results_dir(tmp_path)
        path = write_trajectory(directory, rev="1.6.0")
        for rev, qps in (("1.6.0", 400.0), ("1.7.0", 500.0)):
            self.merge_perf(path, monkeypatch, rev, [
                self.perf_result("serve-read", False, qps),
                self.perf_result("serve-read", True, qps * 0.9),
            ])
        text = render_trend(load_trajectory(path))
        assert "== perf.serve-read ==" in text and "== Fig 9 ==" in text
        assert "revisions: 1.6.0 1.7.0" in text
        untraced = [line for line in text.splitlines()
                    if "mode=untraced" in line and "ops_per_s" in line]
        assert len(untraced) == 1
        assert "400 -> 500 (+25.0% vs 1.6.0)" in untraced[0]
        assert sum("mode=traced" in line and "ops_per_s" in line
                   for line in text.splitlines()) == 1
