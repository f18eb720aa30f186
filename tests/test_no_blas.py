"""The package makes one BLAS call, `nnops.conv2d`'s `@`, by construction.

A BLAS picks its own summation order (by CPU kernel and thread count), so
any BLAS-backed operation could make the bytes of a scene, a table, a
scatter or a summary's norm depend on the machine.  This guard parses every
module and refuses matrix products and the numpy functions that dispatch to
a BLAS, but for the heads' one `dgemm`, whose float64 sums of exact float32
products are rounded to float32 once (see `dualvt.nnops`).
"""

import ast
from pathlib import Path

import pytest

import dualvt

PACKAGE = Path(dualvt.__file__).parent
BLAS_FUNCTIONS = {"dot", "matmul", "einsum", "tensordot", "inner"}
ALLOWED = {"nnops.py": [("conv2d", "@")]}


def blas_uses(source: str) -> list:
    """(top-level name, what) for every `@`, linalg reference or BLAS-backed
    call in source; the name is None outside a top-level def or class."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((where, "@"))
            elif isinstance(node, ast.Attribute) and node.attr == "linalg":
                found.append((where, "linalg"))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any("linalg" in n or n in BLAS_FUNCTIONS for n in names):
                    found.append((where, "import"))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in BLAS_FUNCTIONS:
                    found.append((where, f"{name}()"))
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_table_modules_make_no_blas_call(module):
    assert blas_uses((PACKAGE / module).read_text()) == ALLOWED.get(module, [])


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
