"""Every function, class and method of the package has a caller in it.

A definition counts as used when its name appears somewhere in ``src/``
outside its own body: as an identifier, an attribute, an imported name or a
string constant.  Uses in ``tests/`` or ``perfbench/`` do not count: code
that only a test reaches belongs in ``tests/``.  The re-export lists of
``clubcat/__init__.py`` do not count either, since re-exporting is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clubcat"


def _definitions(tree):
    """(name, first line, last line) of each module-level function or class
    and each non-dunder method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    out.append((item.name, item.lineno, item.end_lineno))
    return out


def _uses(tree, is_init):
    """(name, line) of each identifier, attribute, imported name and string
    constant in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rpartition(".")[2], node.lineno


def test_every_definition_is_named_outside_itself():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    uses = {}
    for path, tree in trees.items():
        is_init = path == PACKAGE / "__init__.py"
        for name, line in _uses(tree, is_init):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, first, last in _definitions(tree):
            if not any(where != path or not first <= line <= last
                       for where, line in uses.get(name, [])):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "no caller: " + ", ".join(unused)
