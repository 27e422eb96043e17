"""LCK001/LCK002: guarded-by attributes and publication ordering.

LCK001 enforces the guarded-by registry (``config.guarded_attributes``):
an attribute declared guarded by a lock may only be *written* inside a
lexical ``with <lock>:`` body.  ``__init__`` is always exempt (the
object is not yet shared), and a :class:`~repro.analysis.framework.
GuardSpec` can name further exempt methods whose protocol makes the
unguarded write sound (e.g. ``EpochSnapshot._drop`` runs strictly after
the last reference is released).  Reads are deliberately not checked:
the codebase's published-snapshot pattern makes racy reads of a
monotonic counter acceptable while racy writes never are.

LCK002 enforces statement *order* between two ``with`` blocks inside
one method (``config.lock_orderings``), for publication sequences where
the first block makes state visible and the second depends on it
having happened (e.g. swap a pointer, then evict what it superseded).
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
        "LCK002": "publication methods must keep their declared "
                  "with-block order (swap before invalidate)",
    }

    def check(self, project, config):
        yield from self._check_guards(project, config)
        yield from self._check_orderings(project, config)

    # -- LCK001 ---------------------------------------------------------

    def _check_guards(self, project, config):
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

    # -- LCK002 ---------------------------------------------------------

    def _check_orderings(self, project, config):
        for entry in config.lock_orderings:
            relpath, cls, method_name, first, then, contract = entry
            source = self._find(project, relpath)
            if source is None:
                continue
            method = self._find_method(source, cls, method_name)
            if method is None:
                yield self._emit(
                    config, "LCK002", source, source.tree,
                    "ordering contract names %s.%s() but the method "
                    "does not exist" % (cls, method_name))
                continue
            first_line = self._first_with(method, first)
            then_line = self._first_with(method, then)
            if first_line is None or then_line is None:
                missing = first if first_line is None else then
                yield self._emit(
                    config, "LCK002", source, method,
                    "%s.%s() must contain 'with %s:' (%s)"
                    % (cls, method_name, missing, contract))
            elif first_line >= then_line:
                yield self._emit(
                    config, "LCK002", source, method,
                    "%s.%s(): 'with %s:' (line %d) must precede "
                    "'with %s:' (line %d) -- %s"
                    % (cls, method_name, first, first_line,
                       then, then_line, contract))

    def _find_method(self, source, cls, method_name):
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name == method_name):
                        return item
        return None

    def _first_with(self, method, ctx_text):
        best = None
        for node in ast.walk(method):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                if _expr_text(item.context_expr) == ctx_text:
                    if best is None or node.lineno < best:
                        best = node.lineno
        return best


def _nested_bodies(stmt):
    """The statement bodies nested under one non-With statement."""
    for field in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field, None)
        if body and isinstance(body, list):
            if all(isinstance(item, ast.stmt) for item in body):
                yield body
    for handler in getattr(stmt, "handlers", []) or []:
        yield handler.body
