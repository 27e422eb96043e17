"""Meta-tests: the shipped tree itself satisfies every lint contract.

This is the test-suite mirror of the CI gate -- if `repro lint` would
fail on the repository, these tests fail first, locally.
"""

import subprocess
import sys

import pytest

from repro.analysis import default_config, package_root, run_lint
from repro.analysis.checkers.engine_parity import _LoaderTable
from repro.analysis.framework import Project


@pytest.fixture(scope="module")
def repo_result():
    return run_lint(package_root(), default_config())


def test_shipped_tree_has_zero_findings(repo_result):
    rendered = "\n".join(f.render() for f in repo_result.findings)
    assert repo_result.findings == [], "repro lint found:\n" + rendered
    assert repo_result.exit_code == 0


def test_shipped_tree_has_zero_suppressions(repo_result):
    # The acceptance bar is stricter than "no stale noqa": the tree
    # currently needs no error-severity suppressions at all, and adding
    # one should be a deliberate, reviewed decision.
    errors = [s for s in repo_result.suppressions]
    assert errors == [], "unexpected noqa markers: %r" % (errors,)
    assert repo_result.stats["suppressed_findings"] == 0


def test_shipped_tree_scans_the_whole_package(repo_result):
    assert repo_result.stats["files_scanned"] >= 70
    assert repo_result.stats["checkers_run"] == 6
    assert repo_result.stats["rules_run"] == 14


def test_engine_registry_resolves_real_kernel_pairs():
    """The parity checker sees the actual registry, not an empty table."""
    import ast

    config = default_config()
    project = Project.load(package_root())
    registry = project.find_module(config.engine_registry_module)
    assert registry is not None
    loader = next(node for node in ast.walk(registry.tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_load_python")
    python_kernels = _LoaderTable(loader).kernels
    # the python reference registers exactly the declared entry points
    assert set(python_kernels) == {
        algo for _module, _function, algo in config.engine_entry_points}


def test_cli_lint_gate_passes_on_shipped_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 error" in proc.stdout


def test_mypy_typed_subset_is_clean():
    mypy = pytest.importorskip("mypy")  # noqa: F841 - gate on availability
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "setup.cfg"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
