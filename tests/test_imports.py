"""No module in ``src/readskill/*.py`` imports a name it never reads.

A name counts as read where the module's syntax tree loads it as a bare
name: the root of ``np.array`` is the bare name ``np``, and annotations
count. ``from __future__`` imports are compiler switches, not names, and
the names a module lists in ``__all__`` are re-exports, so both are exempt.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "readskill"


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_check_sees_an_unused_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import json",
        "import os.path",
        "import re",
        "from .errors import NoModel, SchemaMismatch as Bad",
        "from .lexical import SkillClass",
        "__all__ = ['SkillClass']",
        "re = None",
        "def f(p: Bad) -> None:",
        "    os.path.join(p)",
    ])
    assert unused_imports(source) == ["json", "re", "NoModel"]
