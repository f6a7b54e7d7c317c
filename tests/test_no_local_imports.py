"""Every import of the package is at module level.

A function-local import hides a dependency from the module header, and no
module of the package needs one to break an import cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clubcat"


def test_no_function_local_imports():
    local = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    local.add(f"{path.name}:{inner.lineno}")
    assert not local, "function-local imports: " + ", ".join(sorted(local))
