"""No BLAS product outside the syllable band-pass.

OpenBLAS picks its kernels by CPU and may sum a product's terms in any
order, so a product's last bits can change with the machine. The
band-pass in ``pauses.py`` reaches the outputs only through peak
comparisons; everywhere else under ``src/readskill`` a matrix product
would put those bits into the outputs. The check reads the syntax tree:
an ``@`` operator, or a call of ``matmul``, ``dot``, ``inner``,
``tensordot`` or anything under ``linalg``, counts as a product.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "readskill"
PRODUCTS = {"matmul", "dot", "inner", "tensordot"}


def blas_products(source: str) -> list[int]:
    """The sorted line numbers of source's matrix products."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            names, func = [], node.func
            while isinstance(func, ast.Attribute):
                names.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name):
                names.append(func.id)
            if names and (names[0] in PRODUCTS or "linalg" in names):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_blas_product_outside_the_band_pass():
    found = {path.name: blas_products(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "pauses.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_sees_each_kind_of_product():
    source = "\n".join([
        "import numpy as np",
        "from numpy import dot",
        "c = a @ b",
        "c @= b",
        "np.matmul(a, b)",
        "np.dot(a, b)",
        "a.dot(b)",
        "dot(a, b)",
        "np.inner(a, b)",
        "np.tensordot(a, b, 1)",
        "np.linalg.norm(a)",
        "np.linalg.solve(a, b)",
        "a * b",
        "np.einsum('i,i', a, b)",
        "a.sum(axis=0)",
    ])
    assert blas_products(source) == [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
    assert blas_products("x = np.column_stack((a[:, 0] + a[:, 1], a[:, 2:]))") == []
