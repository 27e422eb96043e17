"""LCK001: writes to guarded-by attributes happen under their lock.

LCK001 enforces the guarded-by registry (``config.guarded_attributes``):
an attribute declared guarded by a lock may only be *written* inside a
lexical ``with <lock>:`` body.  ``__init__`` is always exempt (the
object is not yet shared), and a :class:`~repro.analysis.framework.
GuardSpec` can name further exempt methods whose protocol makes the
unguarded write sound (e.g. ``EpochSnapshot._drop`` runs strictly after
the last reference is released).  Reads are deliberately not checked:
the codebase's published-snapshot pattern makes racy reads of a
monotonic counter acceptable while racy writes never are.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Checker, register_checker


def _expr_text(node):
    """Source text of an expression (``self._swap_lock``)."""
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover
        return "<unknown>"


def _written_self_attrs(stmt):
    """Names of ``self.<attr>`` targets written by one statement.

    Covers ``self.x = ...``, ``self.x += ...``, annotated assignment,
    and container writes through the attribute (``self.x[i] = ...`` /
    ``self.x[i] += 1``) -- the histogram-bucket pattern.
    """
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    attrs = []
    for target in targets:
        for leaf in _flatten_target(target):
            if isinstance(leaf, ast.Subscript):
                leaf = leaf.value
            if (isinstance(leaf, ast.Attribute)
                    and isinstance(leaf.value, ast.Name)
                    and leaf.value.id == "self"):
                attrs.append((leaf.attr, leaf))
    return attrs


def _flatten_target(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element)
    else:
        yield target


@register_checker
class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    rules = {
        "LCK001": "writes to a guarded-by attribute must happen inside "
                  "'with <lock>:'",
    }

    def check(self, project, config):
        for relpath, classes in sorted(config.guarded_attributes.items()):
            source = self._find(project, relpath)
            if source is None:
                continue
            for node in source.tree.body:
                if (isinstance(node, ast.ClassDef)
                        and node.name in classes):
                    yield from self._check_class(
                        source, config, node, classes[node.name])

    def _find(self, project, relpath):
        for source in project.files:
            if source.relpath == relpath:
                return source
        return None

    def _check_class(self, source, config, classdef, guards):
        for item in classdef.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_method(
                    source, config, classdef, item, guards)

    def _check_method(self, source, config, classdef, method, guards):
        if method.name == "__init__":
            return
        active = {attr: spec for attr, spec in guards.items()
                  if method.name not in spec.exempt_methods}
        if not active:
            return
        yield from self._walk(source, config, classdef, method,
                              method.body, active, held=frozenset())

    def _walk(self, source, config, classdef, method, body, guards, held):
        for stmt in body:
            for attr, node in _written_self_attrs(stmt):
                spec = guards.get(attr)
                if spec is not None and spec.lock not in held:
                    yield self._emit(
                        config, "LCK001", source, node,
                        "%s.%s is declared guarded by %s but is "
                        "written in %s() outside 'with %s:'"
                        % (classdef.name, attr, spec.lock,
                           method.name, spec.lock))
            if isinstance(stmt, ast.With):
                now_held = held | {
                    _expr_text(item.context_expr)
                    for item in stmt.items}
                yield from self._walk(source, config, classdef, method,
                                      stmt.body, guards, now_held)
            else:
                for child_body in _nested_bodies(stmt):
                    yield from self._walk(source, config, classdef,
                                          method, child_body, guards,
                                          held)


def _nested_bodies(stmt):
    """The statement bodies nested under one non-With statement."""
    for field in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field, None)
        if body and isinstance(body, list):
            if all(isinstance(item, ast.stmt) for item in body):
                yield body
    for handler in getattr(stmt, "handlers", []) or []:
        yield handler.body
