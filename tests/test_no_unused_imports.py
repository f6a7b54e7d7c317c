"""Every name a module imports is used in that module.

A name counts as used when it appears as an identifier anywhere in the
module, an import inside a function included.  The package's
``__init__.py`` is skipped: its imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.partition(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported if name not in used]


def test_every_imported_name_is_used():
    paths = sorted((ROOT / "src" / "clubcat").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [u for path in paths if path.name != "__init__.py"
              for u in _unused(path)]
    assert not unused, "unused imports: " + ", ".join(unused)
