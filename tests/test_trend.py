"""Perf-trend reporting over a multi-PR BENCH_RESULTS.json trajectory."""

from __future__ import annotations

import json

import pytest

from repro.bench.trend import (
    build_series,
    load_trajectory,
    render_trend,
    rev_sort_key,
    series_label,
    sparkline,
)
from repro.cli import main as cli_main


def _record(figure, rev, **metrics):
    return {"figure": figure, "rev": rev, "scale": 1.0,
            "dataset": "twitter", "algorithm": "SemiCore*",
            "metrics": metrics}


@pytest.fixture
def trajectory():
    """Three revisions of history for two figures."""
    return [
        _record("fig3_convergence", "1.4.0", seconds=2.0, qps=100.0),
        _record("fig3_convergence", "1.5.0", seconds=1.5, qps=130.0),
        _record("fig3_convergence", "1.6.0", seconds=1.6, qps=90.0),
        _record("fig7_maintenance", "1.5.0", seconds=0.8),
        _record("fig7_maintenance", "1.6.0", seconds=0.7),
    ]


def _write(tmp_path, records):
    path = tmp_path / "BENCH_RESULTS.json"
    path.write_text(json.dumps({"schema": 1, "records": records}))
    return str(path)


def test_rev_ordering_numeric_not_lexicographic():
    revs = ["1.10.0", "1.2.0", "1.9.0", None, "abc"]
    ordered = sorted(revs, key=rev_sort_key)
    assert ordered == [None, "abc", "1.2.0", "1.9.0", "1.10.0"]


def test_build_series_groups_and_orders(trajectory):
    series = build_series(trajectory)
    assert len(series) == 2
    (fig3_key,) = [k for k in series if k[0] == "fig3_convergence"]
    revs = [rev for rev, _ in series[fig3_key]]
    assert revs == ["1.4.0", "1.5.0", "1.6.0"]


def test_sparkline_shape():
    assert sparkline([1, 1, 1]) == "▁▁▁"
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline([]) == ""


def test_render_trend_mentions_every_series(trajectory):
    text = render_trend(trajectory)
    assert "fig3_convergence" in text
    assert "fig7_maintenance" in text
    assert "seconds" in text and "qps" in text
    assert "1.4.0 1.5.0 1.6.0" in text
    assert "-30.8%" in text  # qps 130 -> 90 on the last step


def test_render_trend_empty():
    assert "no benchmark trajectory" in render_trend([])


def test_same_revision_rerun_last_record_wins(trajectory):
    rerun = _record("fig7_maintenance", "1.6.0", seconds=0.9)
    series = build_series(trajectory + [rerun])
    (fig7_key,) = [k for k in series if k[0] == "fig7_maintenance"]
    assert series[fig7_key] == [("1.5.0", {"seconds": 0.8}),
                                ("1.6.0", {"seconds": 0.9})]


def test_label_keys_split_series():
    records = [
        dict(_record("fig9", "1.6.0", seconds=1.0), engine="python"),
        dict(_record("fig9", "1.6.0", seconds=0.2), engine="numpy"),
    ]
    series = build_series(records)
    assert len(series) == 2
    labels = sorted(series_label(key) for key in series)
    assert labels == [
        "fig9 [dataset=twitter, algorithm=SemiCore*, engine=numpy]",
        "fig9 [dataset=twitter, algorithm=SemiCore*, engine=python]",
    ]
    assert series_label(("fig9",)) == "fig9"


def test_render_trend_metric_filter_and_min_points(trajectory):
    text = render_trend(trajectory, metrics=["qps"])
    assert "qps" in text and "seconds" not in text
    # fig7 has no qps samples: its block is dropped, not left empty.
    assert "fig7_maintenance" not in text
    # Two revisions of fig7 pass min_points=3; three of fig3 do.
    text = render_trend(trajectory, min_points=3)
    assert "fig3_convergence" in text
    assert "fig7_maintenance" not in text
    assert "no benchmark trajectory" in render_trend(trajectory,
                                                     min_points=4)


def test_load_trajectory_tolerates_garbage(tmp_path):
    assert load_trajectory(str(tmp_path / "missing.json")) == []
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_trajectory(str(bad)) == []
    bad.write_text('["a list, not a payload"]')
    assert load_trajectory(str(bad)) == []
    bad.write_text('{"records": [{"figure": "x"}, "junk"]}')
    assert load_trajectory(str(bad)) == []  # no usable metrics


def test_cli_trend_renders(tmp_path, capsys, trajectory):
    path = _write(tmp_path, trajectory)
    rc = cli_main(["report", "--trend", "--trajectory", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fig3_convergence" in out and "fig7_maintenance" in out


def test_cli_trend_missing_trajectory_is_graceful(tmp_path, capsys):
    rc = cli_main(["report", "--trend", "--results", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "no benchmark trajectory" in captured.out
