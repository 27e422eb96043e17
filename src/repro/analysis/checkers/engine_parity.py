"""ENG001-ENG003: the engine registry stays the single dispatch path.

ENG001 -- every declared public entry point (``config.
engine_entry_points``) accepts a keyword-only ``engine=`` parameter and
routes through ``engine_implementation`` so callers can swap kernels
without touching the algorithm modules.

ENG002 -- registered kernel signatures mirror their reference
counterparts: for each algorithm key, the non-reference loader's kernel
must expose exactly the reference kernel's parameters minus ``engine``
(same names, same order, same keyword-onlyness, same default-ness).
Signature drift is how an engine silently stops being interchangeable.

ENG003 -- the registry's declared surface (the
``ENGINE_AWARE_ALGORITHMS`` / ``ENGINE_KERNELS`` constants), the
reference loader's keys, and the entry-point table all name the same
algorithm set; any drift means the docs, the dispatch table, or this
lint config went stale.

Everything is resolved purely from the AST -- the checker never imports
the checked code, so it runs identically with or without numpy.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Checker, register_checker


def _find_function(tree, name):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _param_shape(funcdef, drop=()):
    """The comparable shape of a signature: (kind, name, has_default).

    ``drop`` removes parameters (``engine``) before comparison.
    """
    args = funcdef.args
    shape = []
    pos_defaults = len(args.defaults)
    positional = list(args.posonlyargs) + list(args.args)
    for index, arg in enumerate(positional):
        has_default = index >= len(positional) - pos_defaults
        shape.append(("pos", arg.arg, has_default))
    if args.vararg is not None:
        shape.append(("*args", args.vararg.arg, False))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        shape.append(("kw", arg.arg, default is not None))
    if args.kwarg is not None:
        shape.append(("**kwargs", args.kwarg.arg, False))
    return [entry for entry in shape if entry[1] not in drop]


class _LoaderTable:
    """One ``_load_<engine>`` function parsed into {key: (module, fn)}."""

    def __init__(self, funcdef):
        self.funcdef = funcdef
        self.kernels = {}
        #: local name -> ("func", module, funcname) | ("module", module)
        imports = {}
        for node in ast.walk(funcdef):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = (node.module, alias.name)
        for node in ast.walk(funcdef):
            if not isinstance(node, ast.Return):
                continue
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            for key_node, val in zip(value.keys, value.values):
                if not (isinstance(key_node, ast.Constant)
                        and isinstance(key_node.value, str)):
                    continue
                key = key_node.value
                if isinstance(val, ast.Name):
                    entry = imports.get(val.id)
                    if entry:
                        self.kernels[key] = (entry[0], entry[1])
                elif (isinstance(val, ast.Attribute)
                        and isinstance(val.value, ast.Name)):
                    entry = imports.get(val.value.id)
                    if entry:
                        # ``from pkg import submod`` + ``submod.fn``
                        self.kernels[key] = (
                            "%s.%s" % (entry[0], entry[1]), val.attr)


def _tuple_constant(tree, name):
    """The string elements of a module-level ``NAME = (...)`` constant."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    return [elt.value for elt in node.value.elts
                            if isinstance(elt, ast.Constant)], node
    return None, None


@register_checker
class EngineParityChecker(Checker):
    name = "engine-parity"
    rules = {
        "ENG001": "public algorithm entry points accept engine= and "
                  "route through repro.core.engines",
        "ENG002": "registered kernel signatures match their reference "
                  "counterparts (minus engine=)",
        "ENG003": "registry constants, the reference loader, and the "
                  "entry-point table declare the same algorithm set",
    }

    def check(self, project, config):
        if not config.engine_entry_points:
            return
        yield from self._check_entry_points(project, config)
        registry = project.find_module(config.engine_registry_module)
        if registry is None:
            return
        yield from self._check_signatures(project, config, registry)
        yield from self._check_surface(project, config, registry)

    # -- ENG001 ---------------------------------------------------------

    def _check_entry_points(self, project, config):
        for module, function, _algorithm in config.engine_entry_points:
            source = project.find_module(module)
            if source is None:
                continue
            funcdef = _find_function(source.tree, function)
            if funcdef is None:
                yield self._emit(
                    config, "ENG001", source, source.tree,
                    "declared entry point %s.%s() does not exist"
                    % (module, function))
                continue
            kwonly = {arg.arg for arg in funcdef.args.kwonlyargs}
            if "engine" not in kwonly:
                yield self._emit(
                    config, "ENG001", source, funcdef,
                    "%s() must accept a keyword-only engine= parameter"
                    % function)
            if not self._routes_through_registry(funcdef):
                yield self._emit(
                    config, "ENG001", source, funcdef,
                    "%s() accepts engine= but never resolves it via "
                    "engine_implementation(); non-default engines "
                    "would be silently ignored" % function)

    def _routes_through_registry(self, funcdef):
        for node in ast.walk(funcdef):
            if (isinstance(node, ast.Name)
                    and node.id == "engine_implementation"):
                return True
        return False

    # -- ENG002 ---------------------------------------------------------

    def _check_signatures(self, project, config, registry):
        loaders = {}
        for node in registry.tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_load_")):
                loaders[node.name] = _LoaderTable(node)
        reference = loaders.pop("_load_python", None)
        if reference is None:
            yield self._emit(
                config, "ENG002", registry, registry.tree,
                "registry module has no _load_python reference loader")
            return
        for loader_name, table in sorted(loaders.items()):
            for key in sorted(reference.kernels):
                if key not in table.kernels:
                    continue  # partial engines are legal
                ref_shape, ref_node = self._resolve(
                    project, reference.kernels[key], drop=("engine",))
                alt_shape, alt_node = self._resolve(
                    project, table.kernels[key], drop=())
                if ref_shape is None or alt_shape is None:
                    missing = (reference.kernels[key]
                               if ref_shape is None
                               else table.kernels[key])
                    yield self._emit(
                        config, "ENG002", registry, table.funcdef,
                        "cannot resolve kernel %s.%s() named by %s "
                        "for algorithm %r" % (missing[0], missing[1],
                                              loader_name, key))
                    continue
                if ref_shape != alt_shape:
                    yield self._emit(
                        config, "ENG002", registry, table.funcdef,
                        "algorithm %r: %s kernel %s() signature %s "
                        "differs from reference %s() minus engine= %s"
                        % (key, loader_name, alt_node.name,
                           _render_shape(alt_shape), ref_node.name,
                           _render_shape(ref_shape)))

    def _resolve(self, project, kernel, drop):
        module, funcname = kernel
        source = project.find_module(module)
        if source is None:
            return None, None
        funcdef = _find_function(source.tree, funcname)
        if funcdef is None:
            return None, None
        return _param_shape(funcdef, drop=drop), funcdef

    # -- ENG003 ---------------------------------------------------------

    def _check_surface(self, project, config, registry):
        declared = []
        anchor = registry.tree
        for constant in ("ENGINE_AWARE_ALGORITHMS", "ENGINE_KERNELS"):
            values, node = _tuple_constant(registry.tree, constant)
            if values is not None:
                declared.extend(values)
                anchor = node
        if not declared:
            return
        declared_set = set(declared)
        entry_keys = {algorithm for _m, _f, algorithm
                      in config.engine_entry_points}
        reference = None
        for node in registry.tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "_load_python"):
                reference = _LoaderTable(node)
        loader_keys = set(reference.kernels) if reference else set()
        for key in sorted(declared_set - entry_keys):
            yield self._emit(
                config, "ENG003", registry, anchor,
                "algorithm %r is declared in the registry constants "
                "but has no entry in the lint entry-point table; add "
                "it to ENGINE_ENTRY_POINTS in the same PR" % key)
        for key in sorted(entry_keys - declared_set):
            yield self._emit(
                config, "ENG003", registry, anchor,
                "entry-point table names algorithm %r which the "
                "registry constants do not declare" % key)
        for key in sorted(declared_set - loader_keys):
            yield self._emit(
                config, "ENG003", registry, anchor,
                "algorithm %r is declared but _load_python does not "
                "register a reference kernel for it" % key)


def _render_shape(shape):
    parts = []
    for kind, name, has_default in shape:
        text = name
        if kind == "kw":
            text = "*, " + text if not parts else text
        if has_default:
            text += "=..."
        parts.append(text)
    return "(" + ", ".join(parts) + ")"
