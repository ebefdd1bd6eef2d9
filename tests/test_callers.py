"""Every top-level public function or class in ``src/readskill/*.py`` has a
caller outside the tests.

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


def _references(stmt: ast.stmt, module: str | None, modules: set[str],
                module_names: dict[str, str], imported: dict[str, Ref]) -> set[Ref]:
    refs = set()
    for sub in ast.walk(stmt):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in module_names:
            refs.add((module_names[sub.value.id], sub.attr))
        elif isinstance(sub, ast.Name):
            if sub.id in imported:
                refs.add(imported[sub.id])
            elif module is not None:
                refs.add((module, sub.id))
        elif isinstance(sub, ast.ImportFrom):
            source = _source_module(sub, modules)
            if source is not None:
                refs.update((source, alias.name) for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            ref = _string_ref(sub.value, modules)
            if ref is not None:
                refs.add(ref)
    return refs


def unused_public(modules: dict[str, ast.Module], outside: list[ast.Module]) -> list[str]:
    """"module.py:line name" of each top-level public function or class in
    ``modules`` (package module name -> tree) that no statement of those
    modules or of the ``outside`` trees refers to outside its own
    definition."""
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


def test_every_public_helper_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLER_FILES}
    package = {path.stem: tree for path, tree in trees.items() if path.parent == PACKAGE}
    assert "lexical" in package
    outside = [tree for path, tree in trees.items() if path.parent != PACKAGE]
    assert unused_public(package, outside) == []


def _check(**sources: str) -> list[str]:
    """unused_public over package modules given as source text; a "bench"
    source stands for a caller outside the package."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    bench = trees.pop("bench", None)
    return unused_public(trees, [bench] if bench else [])


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
