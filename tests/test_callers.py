"""Every top-level public function or class in ``src/readskill/*.py`` has a
caller outside the tests, and every defaulted parameter of a module-level
function there is passed by some caller outside the tests.

A definition counts as called when ``src/readskill`` or ``perfbench/``
refers to it anywhere but inside its own definition. Each reference is
resolved to the module that defines the name it reaches:

- a bare name, to the module it is used in, or to the package module a
  ``from .x import name`` (or ``from readskill.x import name``) took it
  from;
- ``module.name``, where ``module`` is a package module bound by
  ``from . import x``, ``from readskill import x`` or
  ``import readskill.x as y``;
- a ``"module:attribute"`` string, such as the ones the benchmark's tracer
  wraps;
- an import itself, following re-exports to the module that defines the
  name.

An attribute of anything else (``track.harmonicity``) is not a reference
to a module-level function of that name. A helper that only tests call is
dead weight to the toolkit, so it should go, or become private if a
public caller is on its way.

A call is resolved the same way, from the expression it calls. A defaulted
parameter counts as passed when a call passes it by keyword, or passes at
least as many positional arguments as reach it (``*args`` and ``**kwargs``
pass everything). A default that no call overrides is a constant in
disguise. The ``main(argv)`` entry points are exempt: the console scripts
and the benchmark's traced launcher (``run = target.main``) call them
through a variable, which no static resolution follows.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "readskill"
PACKAGE_NAME = "readskill"
CALLER_FILES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

Ref = tuple[str, str]  # (defining module, name)


def _source_module(node: ast.ImportFrom, modules: set[str]) -> str | None:
    """The package module an import-from reads ("__init__" for the package
    itself), or None for an import from outside the package."""
    if node.level:
        return node.module or "__init__"
    if node.module == PACKAGE_NAME:
        return "__init__"
    if node.module and node.module.startswith(PACKAGE_NAME + "."):
        name = node.module.split(".", 1)[1]
        return name if name in modules else None
    return None


def _bindings(tree: ast.Module, modules: set[str]) -> tuple[dict[str, str], dict[str, Ref]]:
    """Local names bound to package modules, and local names bound to
    (module, name) by an import-from, anywhere in ``tree``."""
    module_names: dict[str, str] = {}
    imported: dict[str, Ref] = {}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Import):
            for alias in sub.names:
                name = alias.name.removeprefix(PACKAGE_NAME + ".")
                if alias.asname and name in modules:
                    module_names[alias.asname] = name
        elif isinstance(sub, ast.ImportFrom):
            source = _source_module(sub, modules)
            if source is None:
                continue
            for alias in sub.names:
                local = alias.asname or alias.name
                if source == "__init__" and alias.name in modules:
                    module_names[local] = alias.name
                else:
                    imported[local] = (source, alias.name)
    return module_names, imported


def _string_ref(value: str, modules: set[str]) -> Ref | None:
    """The (module, name) of a "module:name" string."""
    module, sep, name = value.rpartition(":")
    return (module, name) if sep and module in modules and name.isidentifier() else None


def _resolve(expr: ast.expr, module: str | None, module_names: dict[str, str],
             imported: dict[str, Ref]) -> Ref | None:
    """The (module, name) that a bare name or a ``module.name`` expression
    refers to, before following re-exports; None for anything else."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id in module_names:
        return module_names[expr.value.id], expr.attr
    if isinstance(expr, ast.Name):
        if expr.id in imported:
            return imported[expr.id]
        if module is not None:
            return module, expr.id
    return None


def _references(stmt: ast.stmt, module: str | None, modules: set[str],
                module_names: dict[str, str], imported: dict[str, Ref]) -> set[Ref]:
    refs = set()
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Attribute, ast.Name)):
            ref = _resolve(sub, module, module_names, imported)
            if ref is not None:
                refs.add(ref)
        elif isinstance(sub, ast.ImportFrom):
            source = _source_module(sub, modules)
            if source is not None:
                refs.update((source, alias.name) for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            ref = _string_ref(sub.value, modules)
            if ref is not None:
                refs.add(ref)
    return refs


def _callers(modules: dict[str, ast.Module], outside: list[ast.Module]):
    """Each caller tree as (its package module or None, tree, bindings),
    and the function that follows a (module, name) through re-exports to
    the module that defines it."""
    names = set(modules)
    callers = [(module, tree, _bindings(tree, names)) for module, tree in modules.items()]
    callers += [(None, tree, _bindings(tree, names)) for tree in outside]
    # (module, name) -> where that module imported the name from
    reexports = {(module, local): ref for module, _, (_, imported) in callers
                 if module is not None for local, ref in imported.items()}

    def defining(ref: Ref) -> Ref:
        while ref in reexports:
            ref = reexports[ref]
        return ref

    return callers, defining


def unused_public(modules: dict[str, ast.Module], outside: list[ast.Module]) -> list[str]:
    """"module.py:line name" of each top-level public function or class in
    ``modules`` (package module name -> tree) that no statement of those
    modules or of the ``outside`` trees refers to outside its own
    definition."""
    names = set(modules)
    callers, defining = _callers(modules, outside)
    # per top-level statement, so that a definition's own body is left out
    refs = [(stmt, {defining(r) for r in _references(stmt, module, names, *bound)})
            for module, tree, bound in callers for stmt in tree.body]
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not any((module, node.name) in found for stmt, found in refs if stmt is not node):
                unused.append(f"{module}.py:{node.lineno} {node.name}")
    return unused


ALL = 1 << 30  # the positional count of a call with *args


def unpassed_defaults(modules: dict[str, ast.Module], outside: list[ast.Module]) -> list[str]:
    """"module.py:line name(param, ...)" of each module-level function in
    ``modules`` but ``main`` with defaulted parameters that no call in
    those modules or in the ``outside`` trees passes."""
    callers, defining = _callers(modules, outside)
    positional: dict[Ref, int] = {}  # most positional arguments of one call
    keywords: dict[Ref, set[str | None]] = {}  # None stands for **kwargs
    for module, tree, bound in callers:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            ref = _resolve(call.func, module, *bound)
            if ref is None:
                continue
            ref = defining(ref)
            n = ALL if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            positional[ref] = max(positional.get(ref, 0), n)
            keywords.setdefault(ref, set()).update(k.arg for k in call.keywords)
    unpassed = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "main":
                continue
            passed = keywords.get((module, node.name), set())
            if None in passed:
                continue
            a = node.args
            params = a.posonlyargs + a.args
            first = max(len(params) - len(a.defaults), positional.get((module, node.name), 0))
            missing = [p.arg for p in params[first:] if p.arg not in passed]
            missing += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                        if d is not None and p.arg not in passed]
            if missing:
                unpassed.append(f"{module}.py:{node.lineno} {node.name}({', '.join(missing)})")
    return unpassed


def _package_and_outside() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLER_FILES}
    package = {path.stem: tree for path, tree in trees.items() if path.parent == PACKAGE}
    assert "lexical" in package
    outside = [tree for path, tree in trees.items() if path.parent != PACKAGE]
    return package, outside


def test_every_public_helper_has_a_non_test_caller():
    assert unused_public(*_package_and_outside()) == []


def test_every_default_is_passed_by_a_non_test_caller():
    assert unpassed_defaults(*_package_and_outside()) == []


def _trees(sources: dict[str, str]) -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """Package modules given as source text; a "bench" source stands for a
    caller outside the package."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    bench = trees.pop("bench", None)
    return trees, [bench] if bench else []


def _check(**sources: str) -> list[str]:
    return unused_public(*_trees(sources))


def test_the_check_sees_a_test_only_helper():
    assert _check(m="def used():\n    return 1\n\n"
                    "def only_tests():\n    return only_tests\n\n"
                    "class _Private:\n    pass\n\n"
                    "VALUE = used()\n") == ["m.py:4 only_tests"]


def test_an_attribute_of_the_same_name_is_not_a_call():
    # the name-only gap: a used attribute hid a module-level helper
    assert _check(dsp="def harmonicity(frame):\n    return frame\n",
                  cli="def main(track):\n    return track.harmonicity\n",
                  bench="import readskill.cli as target\ntarget.main(None)\n",
                  ) == ["dsp.py:1 harmonicity"]


def test_references_resolve_to_the_defining_module():
    sources = dict(
        a="def shared():\n    pass\n\ndef direct():\n    pass\n",
        b="def shared():\n    pass\n\ndef reexported():\n    pass\n",
        c="from .b import reexported\n",
        cli="from . import a\nfrom .c import reexported\n\n"
            "def main():\n    a.shared()\n    reexported()\n",
        bench='from readskill.a import direct\nTRACED = ("cli:main",)\n',
    )
    # b.shared is named only through a.shared; b.reexported is reached
    # through c's import; "cli:main" is a tracer-style string
    assert _check(**sources) == ["b.py:1 shared"]


def test_the_check_sees_a_default_no_caller_passes():
    sources = dict(
        m="def f(x, y=1, z=2, *, k=3, j=4):\n    pass\n\n"
          "def g(a=1):\n    pass\n\n"
          "def h(b=1):\n    pass\n\n"
          "def main(argv=None):\n    pass\n",
        cli="from . import m\nfrom .m import g\n\n"
            "def run(args):\n    m.f(0, 1, k=2)\n    g(*args)\n    m.h(**args)\n",
    )
    # y by position, k by keyword, g and h through * and **; main is exempt
    assert unpassed_defaults(*_trees(sources)) == ["m.py:1 f(z, j)"]


def test_a_call_resolves_like_a_reference():
    sources = dict(
        a="def shared(x=0):\n    pass\n",
        b="def shared(x=0):\n    pass\n\ndef reexported(x=0):\n    pass\n",
        c="from .b import reexported\n",
        cli="from . import a\nfrom .c import reexported\n\n"
            "def main(track):\n    a.shared(1)\n    reexported(x=1)\n    track.shared(1)\n",
    )
    # b.shared is passed only through a.shared and an unrelated attribute
    assert unpassed_defaults(*_trees(sources)) == ["b.py:1 shared(x)"]
