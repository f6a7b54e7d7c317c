"""Every field of a record type of the package is read in it.

A record type is a class of ``src/clubcat`` that derives from ``NamedTuple``;
its fields are the annotated names of its body.  A field counts as read
when its name appears somewhere in ``src/`` as an attribute that is loaded
or as a string constant.  Reads in ``tests/`` or ``perfbench/`` do not
count: a field that only a test reads costs its builder work on every call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clubcat"


def _fields(tree):
    """(class name, field name, line) of each field of each record type."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                        for b in node.bases)):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id, item.lineno


def _reads(tree):
    """The name of each loaded attribute and each string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_record_field_is_read():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    read = {name for tree in trees.values() for name in _reads(tree)}
    unread = [f"{path.name}:{line} {cls}.{field}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for cls, field, line in _fields(tree)
              if field not in read]
    assert not unread, "never read: " + ", ".join(unread)
