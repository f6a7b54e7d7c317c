"""Every function, class, method and module-level name of the package has a
reader in it.

Uses in ``tests/`` or ``perfbench/`` do not count: code that only a test
reaches belongs in ``tests/``.  A use inside the definition's own body does
not count either.  What counts as a use depends on the kind of definition:

- a module-level function or class is used when its name appears somewhere in
  ``src/``: as an identifier, an attribute, an imported name or a string
  constant.  The re-export lists of ``clubcat/__init__.py`` do not count,
  since re-exporting is not a use;
- a method, or a non-dunder name assigned or annotated in a class body (a
  record field included), is used only when its name is read as an
  attribute (``x.name``), so a same-named function, variable or string does
  not hide it;
- a module-level assignment to a non-dunder name is used only when that name
  is loaded, as an identifier or an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clubcat"


def _definitions(tree):
    """(kind, name, first line, last line) of each module-level function,
    class and non-dunder assignment, and of each non-dunder method and
    class-body assignment."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(("name", node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    out.append(("attribute", item.name, item.lineno,
                                item.end_lineno))
                out.extend(("attribute", name, item.lineno, item.end_lineno)
                           for name in _assigned(item))
        out.extend(("load", name, node.lineno, node.end_lineno)
                   for name in _assigned(node))
    return out


def _assigned(node):
    """The non-dunder names an assignment or annotation statement binds."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _uses(tree, is_init):
    """(kind, name, line) of each use in the module: every identifier,
    attribute, imported name and string constant is a "name" use; a read
    attribute is also an "attribute" use; a loaded identifier or attribute
    is also a "load" use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield "name", node.id, node.lineno
            if isinstance(node.ctx, ast.Load):
                yield "load", node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield "name", node.attr, node.lineno
            if isinstance(node.ctx, ast.Load):
                yield "attribute", node.attr, node.lineno
                yield "load", node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
            for alias in node.names:
                yield "name", alias.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "name", node.value.rpartition(".")[2], node.lineno


def test_every_definition_is_named_outside_itself():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    uses = {}
    for path, tree in trees.items():
        is_init = path == PACKAGE / "__init__.py"
        for kind, name, line in _uses(tree, is_init):
            uses.setdefault((kind, name), []).append((path, line))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for kind, name, first, last in _definitions(tree):
            if not any(where != path or not first <= line <= last
                       for where, line in uses.get((kind, name), [])):
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, "no caller: " + ", ".join(unused)
