"""The analysis framework itself: findings, suppressions, output.

Checker-specific behaviour lives in ``test_analysis_checkers.py``;
here we exercise the chassis -- the Finding model, the noqa life cycle
(parse, cover, round-trip, stale detection, malformed markers), the
renderers against golden files, and the run-level stats/exit-code
plumbing.
"""

import json
import os

import pytest

from repro.analysis import (
    ERROR,
    Finding,
    LintConfig,
    LintResult,
    RuleConfig,
    Suppression,
    WARNING,
    all_rules,
    apply_suppressions,
    collect_suppressions,
    render_github,
    render_json,
    render_stats,
    render_text,
    run_lint,
    stats_figure,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def make_pkg(tmp_path, files):
    """Write a throwaway package tree; returns the lint root."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


class FakeSource:
    def __init__(self, text, relpath="pkg/mod.py"):
        self.text = text
        self.relpath = relpath


# ---------------------------------------------------------------------------
# Finding model
# ---------------------------------------------------------------------------

def test_finding_render_and_location():
    finding = Finding(path="pkg/a.py", line=12, col=4, rule_id="IO001",
                      severity=ERROR, message="boom", checker="io-charging")
    assert finding.location == "pkg/a.py:12:4"
    assert finding.render() == "pkg/a.py:12:4: error [IO001] boom"
    assert finding.as_dict() == {
        "path": "pkg/a.py", "line": 12, "col": 4, "rule": "IO001",
        "severity": "error", "message": "boom", "checker": "io-charging",
    }


def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Finding(path="a.py", line=1, col=0, rule_id="X001",
                severity="fatal", message="nope")


def test_findings_sort_by_location_not_rule_discovery_order():
    findings = [
        Finding(path="pkg/b.py", line=3, col=0, rule_id="A001",
                severity=ERROR, message="m"),
        Finding(path="pkg/a.py", line=9, col=0, rule_id="Z009",
                severity=ERROR, message="m"),
        Finding(path="pkg/a.py", line=2, col=0, rule_id="B002",
                severity=ERROR, message="m"),
    ]
    ordered = sorted(findings, key=Finding.sort_key)
    assert [(f.path, f.line) for f in ordered] == [
        ("pkg/a.py", 2), ("pkg/a.py", 9), ("pkg/b.py", 3)]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def test_collect_suppressions_parses_single_and_multi_rule():
    src = FakeSource(
        "x = 1  # repro: noqa[IO001]\n"
        "y = 2  # repro: noqa[LCK001, EXC002]\n")
    suppressions, malformed = collect_suppressions(src)
    assert malformed == []
    assert [(s.line, s.rules) for s in suppressions] == [
        (1, ("IO001",)), (2, ("LCK001", "EXC002"))]


def test_collect_suppressions_ignores_markers_inside_strings():
    src = FakeSource('text = "# repro: noqa[IO001]"\n')
    suppressions, malformed = collect_suppressions(src)
    assert suppressions == [] and malformed == []


def test_malformed_marker_is_a_finding_not_a_silent_noop():
    src = FakeSource("x = 1  # repro: noqa\n"
                     "y = 2  # repro: noqa IO001\n")
    suppressions, malformed = collect_suppressions(src)
    assert suppressions == []
    assert [f.rule_id for f in malformed] == ["SUP002", "SUP002"]
    assert all(f.severity == ERROR for f in malformed)


def test_suppression_round_trip():
    src = FakeSource("x = 1  # repro: noqa[IO001]\n")
    suppressions, _ = collect_suppressions(src)
    hit = Finding(path="pkg/mod.py", line=1, col=0, rule_id="IO001",
                  severity=ERROR, message="m")
    other_rule = Finding(path="pkg/mod.py", line=1, col=0,
                         rule_id="LCK001", severity=ERROR, message="m")
    other_line = Finding(path="pkg/mod.py", line=2, col=0,
                         rule_id="IO001", severity=ERROR, message="m")
    kept, suppressed, unused = apply_suppressions(
        [hit, other_rule, other_line], suppressions)
    assert suppressed == [hit]
    assert kept == [other_rule, other_line]
    assert unused == []  # the marker silenced something -> not stale


def test_unused_suppression_becomes_sup001():
    suppression = Suppression(path="pkg/mod.py", line=5,
                              rules=("IO001", "EXC002"))
    hit = Finding(path="pkg/mod.py", line=5, col=0, rule_id="IO001",
                  severity=ERROR, message="m")
    kept, suppressed, unused = apply_suppressions([hit], [suppression])
    assert suppressed == [hit] and kept == []
    # IO001 fired; EXC002 did not -> exactly that rule is stale.
    assert len(unused) == 1
    assert unused[0].rule_id == "SUP001"
    assert "EXC002" in unused[0].message
    assert unused[0].line == 5


def test_fully_unused_suppression_flags_every_named_rule():
    suppression = Suppression(path="pkg/mod.py", line=3, rules=("IO001",))
    kept, suppressed, unused = apply_suppressions([], [suppression])
    assert kept == [] and suppressed == []
    assert [f.rule_id for f in unused] == ["SUP001"]


# ---------------------------------------------------------------------------
# run_lint plumbing (uses the real checkers over a tiny tree)
# ---------------------------------------------------------------------------

def test_run_lint_suppression_roundtrip_end_to_end(tmp_path):
    root = make_pkg(tmp_path, {
        "core/alg.py": "def f(path):\n"
                       "    return open(path)  # repro: noqa[IO001]\n",
    })
    config = LintConfig(io_scope=("pkg/core/",))
    result = run_lint(root, config, checkers=["io-charging"])
    assert result.findings == []
    assert [f.rule_id for f in result.suppressed] == ["IO001"]
    assert result.exit_code == 0
    assert result.stats["suppressed_findings"] == 1
    assert result.stats["unused_suppressions"] == 0


def test_run_lint_stale_suppression_fails_the_gate(tmp_path):
    root = make_pkg(tmp_path, {
        "core/alg.py": "x = 1  # repro: noqa[IO001]\n",
    })
    config = LintConfig(io_scope=("pkg/core/",))
    result = run_lint(root, config, checkers=["io-charging"])
    assert [f.rule_id for f in result.findings] == ["SUP001"]
    assert result.exit_code == 1


def test_run_lint_disabled_rule_reports_nothing(tmp_path):
    root = make_pkg(tmp_path, {
        "core/alg.py": "def f(path):\n    return open(path)\n",
    })
    config = LintConfig(io_scope=("pkg/core/",),
                        rules={"IO001": RuleConfig(enabled=False)})
    result = run_lint(root, config, checkers=["io-charging"])
    assert result.findings == []
    assert result.exit_code == 0


def test_run_lint_warning_severity_does_not_gate(tmp_path):
    root = make_pkg(tmp_path, {
        "core/alg.py": "def f(path):\n    return open(path)\n",
    })
    config = LintConfig(io_scope=("pkg/core/",),
                        rules={"IO001": RuleConfig(severity=WARNING)})
    result = run_lint(root, config, checkers=["io-charging"])
    assert [f.severity for f in result.findings] == ["warning"]
    assert result.exit_code == 0
    assert result.stats["warnings"] == 1 and result.stats["errors"] == 0


def test_run_lint_refuses_unparsable_tree(tmp_path):
    from repro.errors import ReproError

    root = make_pkg(tmp_path, {"core/broken.py": "def f(:\n"})
    with pytest.raises(ReproError):
        run_lint(root, LintConfig(), checkers=[])


def test_all_rules_covers_every_documented_rule():
    table = {rule_id for rule_id, _desc, _checker in all_rules()}
    assert table == {
        "IO001", "LCK001", "ENG001", "ENG002", "ENG003",
        "EXC001", "EXC002", "OBS001", "OBS002", "OBS003",
        "DET001", "DET002", "SUP001", "SUP002",
    }


# ---------------------------------------------------------------------------
# Renderers, pinned by golden files
# ---------------------------------------------------------------------------

def golden_result():
    """A fixed LintResult whose renderings the golden files pin."""
    findings = [
        Finding(path="pkg/core/alg.py", line=4, col=11, rule_id="IO001",
                severity=ERROR, checker="io-charging",
                message="direct open() inside the charged-I/O boundary"),
        Finding(path="pkg/svc.py", line=9, col=8, rule_id="EXC002",
                severity=WARNING, checker="exception-discipline",
                message="broad except with a 100% swallow rate"),
    ]
    suppressed = [
        Finding(path="pkg/core/old.py", line=2, col=0, rule_id="IO001",
                severity=ERROR, checker="io-charging",
                message="suppressed legacy open()"),
    ]
    stats = {
        "rules_run": 15, "checkers_run": 6, "files_scanned": 3,
        "findings": 2, "errors": 1, "warnings": 1, "suppressions": 1,
        "suppressed_findings": 1, "unused_suppressions": 0,
    }
    return LintResult(findings=findings, suppressed=suppressed,
                      suppressions=[Suppression("pkg/core/old.py", 2,
                                                ("IO001",))],
                      stats=stats)


def read_golden(name):
    with open(os.path.join(DATA_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_render_json_matches_golden():
    rendered = render_json(golden_result()) + "\n"
    assert rendered == read_golden("lint_golden.json")
    # and it is valid, stable JSON
    payload = json.loads(rendered)
    assert payload["stats"]["findings"] == 2
    assert payload["findings"][0]["rule"] == "IO001"


def test_render_github_matches_golden():
    rendered = render_github(golden_result()) + "\n"
    assert rendered == read_golden("lint_golden_github.txt")


def test_render_github_empty_run_emits_notice():
    result = LintResult(findings=[], suppressed=[], suppressions=[],
                        stats=golden_result().stats)
    assert render_github(result) == "::notice::repro lint: no findings"


def test_render_github_escapes_newlines_and_percent():
    finding = Finding(path="a.py", line=1, col=0, rule_id="X001",
                      severity=ERROR, message="50% of\nreads")
    result = LintResult(findings=[finding], suppressed=[],
                        suppressions=[], stats=golden_result().stats)
    line = render_github(result)
    assert "50%25 of%0Areads" in line


def test_render_text_summary_line():
    text = render_text(golden_result())
    assert text.splitlines()[-1] == (
        "2 finding(s) (1 error, 1 warning) in 3 file(s); "
        "1 suppressed, 0 unused suppression(s)")


def test_render_stats_and_figure_row():
    stats_text = render_stats(golden_result())
    assert "files scanned" in stats_text and "15" in stats_text
    figure = stats_figure(golden_result())
    assert figure["figure"] == "lint"
    row = figure["rows"][0]
    assert row["_findings"] == 2
    assert row["_rules_run"] == 15
    assert row["_suppressions"] == 1
