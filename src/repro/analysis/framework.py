"""The checker harness: sources, configuration, registry, and the run.

The moving parts, smallest first:

* :class:`SourceFile` -- one parsed module: path, text, AST, and the
  ``repro/...`` relpath every rule scopes on.
* :class:`Project` -- every source file under one package root, plus
  module-name lookup for the cross-module checkers (engine parity
  resolves kernels in *other* files than the one being visited).
* :class:`RuleConfig` / :class:`LintConfig` -- per-rule severity and
  options plus the contract tables (guarded attributes, inventories,
  scopes).  The shipped defaults live in
  :mod:`repro.analysis.contracts`; tests inject miniature tables.
* :class:`Checker` + :func:`register_checker` -- a checker declares the
  rules it owns and implements ``check(project, config)``; the registry
  is what ``repro lint`` runs and ``--list-rules`` prints.
* :func:`run_lint` -- parse, check, suppress, report.  Deterministic:
  findings are sorted by location, checkers run in registration order.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.analysis.findings import ERROR, Finding, SEVERITIES
from repro.analysis.suppressions import (
    apply_suppressions,
    collect_suppressions,
)
from repro.errors import ReproError


class SourceFile:
    """One parsed python source file of the scanned tree."""

    def __init__(self, path, relpath, text):
        self.path = path          #: absolute filesystem path
        self.relpath = relpath    #: posix path relative to the scan root
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        #: Dotted module name (``repro.core.semicore``) derived from the
        #: relpath; packages drop the ``__init__`` suffix.
        parts = relpath[:-3].split("/")
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        self.module = ".".join(parts)

    def __repr__(self):
        return "SourceFile(%r)" % self.relpath


class Project:
    """Every source file under one package root.

    ``root`` is the *package directory* (the one containing
    ``__init__.py``, e.g. ``.../src/repro``); relpaths are anchored at
    its parent so they read ``repro/service/core_service.py`` -- the
    form every contract table and scope pattern uses.
    """

    def __init__(self, root, files):
        self.root = root
        self.files = files
        self._by_module = {source.module: source for source in files}

    @classmethod
    def load(cls, root):
        """Parse every ``*.py`` under ``root`` (sorted, deterministic).

        A file that fails to parse is a hard error: the linter refuses
        to bless a tree it could not fully read.
        """
        root = os.path.abspath(os.fspath(root))
        if not os.path.isdir(root):
            raise ReproError("lint root %s is not a directory" % root)
        anchor = os.path.dirname(root)
        files = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames
                           if d != "__pycache__" and not d.startswith(".")]
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                relpath = os.path.relpath(path, anchor).replace(os.sep, "/")
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                try:
                    files.append(SourceFile(path, relpath, text))
                except SyntaxError as exc:
                    raise ReproError(
                        "cannot lint %s: %s" % (relpath, exc)) from exc
        return cls(root, files)

    def find_module(self, module):
        """The :class:`SourceFile` of a dotted module name, or None."""
        return self._by_module.get(module)

    def in_scope(self, source, prefixes):
        """True when ``source`` falls under any of the path ``prefixes``.

        A prefix ending in ``/`` matches a subtree, anything else an
        exact file -- ``("repro/core/", "repro/storage/csr.py")`` is the
        I/O-charging scope, for example.
        """
        for prefix in prefixes:
            if prefix.endswith("/"):
                if source.relpath.startswith(prefix):
                    return True
            elif source.relpath == prefix:
                return True
        return False


@dataclass
class RuleConfig:
    """Per-rule knobs: severity, enablement, free-form options."""

    severity: str = ERROR
    enabled: bool = True
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError("unknown severity %r" % (self.severity,))


@dataclass
class LintConfig:
    """The full linter configuration: rule table + contract tables.

    The contract tables are *data*, not code, so the fixture tests can
    swap in miniature worlds and deployments can extend the inventories
    without editing any checker.  ``rules`` maps rule id ->
    :class:`RuleConfig`; a missing entry means default (enabled,
    error).
    """

    rules: dict = field(default_factory=dict)
    #: Path scopes, see the individual checkers.
    io_scope: tuple = ()
    io_allowed_modules: tuple = ()
    determinism_scope: tuple = ()
    #: {relpath: {class: {attr: GuardSpec}}}
    guarded_attributes: dict = field(default_factory=dict)
    #: [(module, function, algorithm-or-None), ...]
    engine_entry_points: tuple = ()
    #: Module whose ``_load_*`` loaders define the kernel registry.
    engine_registry_module: str = ""
    #: Allowed metric name literals (exact strings or ``%s`` templates).
    metric_names: frozenset = frozenset()
    #: Allowed span name literals.
    span_names: frozenset = frozenset()

    def rule(self, rule_id):
        """The (possibly defaulted) :class:`RuleConfig` of ``rule_id``."""
        return self.rules.get(rule_id) or RuleConfig()

    def make_finding(self, rule_id, source, node, message, checker):
        """A :class:`Finding` honoring the configured severity, or None
        when the rule is disabled."""
        rule = self.rule(rule_id)
        if not rule.enabled:
            return None
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(path=source.relpath, line=line, col=col,
                       rule_id=rule_id, severity=rule.severity,
                       message=message, checker=checker)


@dataclass(frozen=True)
class GuardSpec:
    """One guarded-by declaration: attribute writes need ``lock`` held.

    ``lock`` is the with-context expression as source text relative to
    the instance (``"self._swap_lock"``, ``"self._registry._lock"``).
    ``exempt_methods`` lists methods where unguarded writes are part of
    the protocol (``__init__`` is always exempt -- the object is not
    shared yet); ``reason`` documents why the exemption is sound.
    """

    lock: str
    exempt_methods: tuple = ()
    reason: str = ""


class Checker:
    """Base class: a named checker owning one or more rule ids."""

    #: Registered name (``"io-charging"``); set by subclasses.
    name = ""
    #: ``{rule_id: one-line contract description}``.
    rules = {}

    def check(self, project, config):
        """Yield :class:`Finding` objects for the whole project."""
        raise NotImplementedError

    def _emit(self, config, rule_id, source, node, message):
        """Severity/enablement-aware finding constructor (or None)."""
        return config.make_finding(rule_id, source, node, message,
                                   self.name)


_CHECKERS = {}


def register_checker(cls):
    """Class decorator adding a :class:`Checker` to the registry."""
    if not cls.name:
        raise ValueError("checker %r needs a name" % cls)
    for rule_id in cls.rules:
        owner = rule_owner(rule_id)
        if owner is not None and owner is not cls:
            raise ValueError("rule %s already owned by %s"
                             % (rule_id, owner.name))
    _CHECKERS[cls.name] = cls
    return cls


def checker_names():
    """Registered checker names, in registration order."""
    return list(_CHECKERS)


def get_checker(name):
    """The checker class registered under ``name``."""
    try:
        return _CHECKERS[name]
    except KeyError:
        raise ReproError(
            "unknown checker %r (registered: %s)"
            % (name, ", ".join(_CHECKERS))) from None


def rule_owner(rule_id):
    """The checker class owning ``rule_id`` (None when unclaimed)."""
    for cls in _CHECKERS.values():
        if rule_id in cls.rules:
            return cls
    return None


def all_rules():
    """``[(rule_id, description, checker_name), ...]`` sorted by id."""
    from repro.analysis.suppressions import (
        MALFORMED_RULE,
        SUPPRESSION_RULE,
    )

    rows = [
        (SUPPRESSION_RULE,
         "every inline suppression must silence a real finding",
         "suppressions"),
        (MALFORMED_RULE,
         "suppression markers must name explicit rule ids",
         "suppressions"),
    ]
    for name, cls in _CHECKERS.items():
        for rule_id, description in cls.rules.items():
            rows.append((rule_id, description, name))
    return sorted(rows)


@dataclass
class LintResult:
    """Everything one lint run produced, pre-sorted and summarizable."""

    findings: list          #: kept findings (suppressions applied)
    suppressed: list        #: findings silenced by a valid noqa
    suppressions: list      #: every suppression comment seen
    stats: dict

    @property
    def exit_code(self):
        """1 when any *error* finding survived, else 0.

        Unused/malformed suppressions are error findings themselves, so
        a stale noqa fails the gate exactly like a live violation.
        """
        return 1 if any(f.severity == ERROR for f in self.findings) else 0


def run_lint(root, config, checkers=None):
    """Run the suite over the package at ``root``.

    ``checkers`` narrows to a subset of registered names (default: all,
    in registration order).  Returns a :class:`LintResult`.
    """
    project = Project.load(root)
    findings = []
    names = list(checkers) if checkers is not None else checker_names()
    for name in names:
        checker = get_checker(name)()
        for finding in checker.check(project, config):
            if finding is not None:
                findings.append(finding)
    suppressions = []
    for source in project.files:
        found, malformed = collect_suppressions(source)
        suppressions.extend(found)
        findings.extend(malformed)
    kept, suppressed, unused = apply_suppressions(findings, suppressions)
    kept = sorted(kept + unused, key=Finding.sort_key)
    suppressed = sorted(suppressed, key=Finding.sort_key)
    stats = {
        "rules_run": len([rule for name in names
                          for rule in get_checker(name).rules]) + 2,
        "checkers_run": len(names),
        "files_scanned": len(project.files),
        "findings": len(kept),
        "errors": sum(1 for f in kept if f.severity == ERROR),
        "warnings": sum(1 for f in kept if f.severity != ERROR),
        "suppressions": len(suppressions),
        "suppressed_findings": len(suppressed),
        "unused_suppressions": len(unused),
    }
    return LintResult(findings=kept, suppressed=suppressed,
                      suppressions=suppressions, stats=stats)
