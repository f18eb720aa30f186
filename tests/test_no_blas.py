"""The table build, the scatter and the report make no BLAS call, by construction.

A BLAS picks its own summation order (by CPU kernel and thread count), so
any BLAS-backed operation in the modules that build the tables (the depth
bins and their centres included) or apply them could make their bytes
depend on the machine.  The same holds for the norms in the output
summaries and diffs (`report`).  This guard parses those modules and refuses
matrix products and the numpy functions that dispatch to a BLAS.
"""

import ast
from pathlib import Path

import pytest

import dualvt

TABLE_MODULES = ("geometry.py", "height_stream.py", "lift_stream.py", "report.py",
                 "sampling.py", "scatter.py", "tables.py")
BLAS_FUNCTIONS = {"dot", "matmul", "einsum", "tensordot", "inner"}


def blas_uses(source: str) -> list:
    """(line, what) for every `@`, linalg reference or BLAS-backed call in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("linalg" in n or n in BLAS_FUNCTIONS for n in names):
                found.append((node.lineno, "import"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_FUNCTIONS:
                found.append((node.lineno, f"{name}()"))
    return found


@pytest.mark.parametrize("module", TABLE_MODULES)
def test_table_modules_make_no_blas_call(module):
    path = Path(dualvt.__file__).parent / module
    assert blas_uses(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "q = p @ R.T",
    "q @= R",
    "T_inv = np.linalg.inv(T)",
    "n = numpy.linalg.norm(x)",
    "from numpy.linalg import inv",
    "from numpy import dot",
    "y = np.dot(a, b)",
    "y = a.dot(b)",
    "y = np.matmul(a, b)",
    "y = np.einsum('ij,j', a, b)",
    "y = np.tensordot(a, b, 1)",
    "y = np.inner(a, b)",
])
def test_guard_catches_every_blas_form(snippet):
    assert blas_uses(snippet) != []
