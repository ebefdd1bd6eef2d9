"""Every table the toolkit writes goes through ``corpus.write_rows``, so
the cell format (line ends, number text, quoting) is stated in one module:
no module under ``src/readskill`` but ``corpus.py`` calls ``open`` or
``.open`` with a writing mode, or makes a ``csv.writer``.

The one exception is ``dsp.dump_frames``. Its f-string rows write a
5,998-row frame dump (one 60 s recording) in 18-19 ms against 29-31 ms
through ``write_rows`` and 34 ms through ``csv.writer`` (best of 15, same
bytes), and ``featurize --dump-frames`` writes one such dump per recording.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "readskill"
ALLOWED = {"dsp.py:dump_frames"}


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


def writers(tree: ast.Module, module: str) -> set[str]:
    """"module.py:function" of each top-level function (or "<module>")
    whose body opens a file for writing or makes a csv.writer."""
    found = set()
    for stmt in tree.body:
        where = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.ImportFrom) and sub.module == "csv" \
                    or isinstance(sub, ast.Call) and _writes(sub):
                found.add(f"{module}.py:{where}")
    return found


def test_only_corpus_writes_tables():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "corpus.py":
            found |= writers(ast.parse(path.read_text()), path.stem)
    assert found == ALLOWED


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
