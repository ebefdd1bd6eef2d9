"""Every table the toolkit writes goes through ``corpus.write_rows``, so
the cell format (line ends, number text, quoting) is stated in one module:
no module under ``src/readskill`` but ``corpus.py`` calls ``open`` or
``.open`` with a writing mode, or makes a ``csv.writer``. And every text
file it reads or writes is UTF-8 whatever the locale: each ``open`` or
``.open`` in text mode, and each ``read_text`` or ``write_text``, passes
``encoding=``.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "readskill"


def _mode(call: ast.Call, position: int) -> str:
    """The constant mode string a call passes at ``position`` or as
    ``mode=``; "r" when it passes none."""
    args = [kw.value for kw in call.keywords if kw.arg == "mode"]
    args += call.args[position:position + 1]
    return next((a.value for a in args if isinstance(a, ast.Constant)
                 and isinstance(a.value, str)), "r")


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return any(c in _mode(call, 1) for c in "wax+")
    if isinstance(func, ast.Attribute) and func.attr == "open":
        return any(c in _mode(call, 0) for c in "wax+")
    return (isinstance(func, ast.Attribute) and func.attr == "writer"
            and isinstance(func.value, ast.Name) and func.value.id == "csv")


def _lacks_encoding(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call) or any(kw.arg == "encoding" for kw in node.keywords):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "b" not in _mode(node, 1)
    if isinstance(func, ast.Attribute) and func.attr == "open":
        return "b" not in _mode(node, 0)
    return isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text")


def _functions_where(tree: ast.Module, module: str, flagged) -> set[str]:
    """"module.py:function" of each top-level function (or "<module>")
    whose body holds a node that ``flagged`` accepts."""
    found = set()
    for stmt in tree.body:
        where = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if any(flagged(sub) for sub in ast.walk(stmt)):
            found.add(f"{module}.py:{where}")
    return found


def writers(tree: ast.Module, module: str) -> set[str]:
    """The functions that open a file for writing or make a csv.writer."""
    return _functions_where(tree, module, lambda sub: (
        isinstance(sub, ast.ImportFrom) and sub.module == "csv"
        or isinstance(sub, ast.Call) and _writes(sub)))


def unencoded(tree: ast.Module, module: str) -> set[str]:
    """The functions that open, read or write a text file without
    naming its encoding."""
    return _functions_where(tree, module, _lacks_encoding)


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_only_corpus_writes_tables():
    found = set()
    for path, tree in _package_trees():
        if path.name != "corpus.py":
            found |= writers(tree, path.stem)
    assert found == set()


def test_every_text_file_names_its_encoding():
    found = set()
    for path, tree in _package_trees():
        found |= unencoded(tree, path.stem)
    assert found == set()


def test_the_check_sees_each_way_to_write():
    src = ("import csv\n"
           "def a(p):\n    open(p, 'w')\n"
           "def b(p):\n    open(p, mode='a', newline='')\n"
           "def c(p):\n    p.open('w')\n"
           "def d(fh):\n    csv.writer(fh)\n"
           "def e(p):\n    open(p)\n    open(p, 'rb')\n    p.open()\n    return p.read_text()\n"
           "from csv import writer\n")
    assert writers(ast.parse(src), "m") == {"m.py:a", "m.py:b", "m.py:c", "m.py:d",
                                           "m.py:<module>"}


def test_the_check_sees_each_way_to_skip_the_encoding():
    src = ("def a(p):\n    open(p)\n"
           "def b(p):\n    open(p, 'w', newline='')\n"
           "def c(p):\n    p.open(mode='a')\n"
           "def d(p):\n    return p.read_text()\n"
           "def e(p):\n    p.write_text('x')\n"
           "def f(p):\n    open(p, 'rb')\n    p.open('wb')\n    return p.read_bytes()\n"
           "def g(p):\n    open(p, encoding='utf-8')\n    p.open('w', encoding='utf-8')\n"
           "    p.write_text(p.read_text(encoding='utf-8'), encoding='utf-8')\n"
           "open('x')\n")
    assert unencoded(ast.parse(src), "m") == {"m.py:a", "m.py:b", "m.py:c", "m.py:d",
                                             "m.py:e", "m.py:<module>"}
