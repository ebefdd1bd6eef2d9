"""Every top-level public function or class in ``src/readskill/*.py`` has a
caller outside the tests.

A name counts as called when ``src/readskill`` or ``perfbench/`` refers to
it anywhere but inside its own definition: as a name, as an attribute, in
an import, or in a ``"module:attribute"`` string such as the ones the
benchmark's tracer wraps. A helper that only tests call is dead weight to
the toolkit, so it should go, or become private if a public caller is on
its way.

The check matches names only, not which object they resolve to. A helper
that shares its name with a used attribute elsewhere passes unnoticed: a
module-level ``harmonicity(frame)`` would hide behind
``FrameTrack.harmonicity``, which ``dump_frames`` reads.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "readskill"
CALLER_FILES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value.rsplit(":", 1)[-1])
    return names


def unused_public(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """"module:line name" of each top-level public function or class in
    ``modules`` that no statement of ``callers`` outside its own definition
    names."""
    # per top-level statement, so that a definition's own body is left out
    refs = [(stmt, _referenced_names(stmt)) for tree in callers for stmt in tree.body]
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not any(node.name in names for stmt, names in refs if stmt is not node):
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_public_helper_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLER_FILES}
    package = {path.name: trees[path] for path in sorted(PACKAGE.glob("*.py"))}
    assert "lexical.py" in package
    assert unused_public(package, list(trees.values())) == []


def test_the_check_sees_a_test_only_helper():
    tree = ast.parse("def used():\n    return 1\n\n"
                     "def only_tests():\n    return only_tests\n\n"
                     "class _Private:\n    pass\n\n"
                     "VALUE = used()\n")
    assert unused_public({"m.py": tree}, [tree]) == ["m.py:4 only_tests"]
