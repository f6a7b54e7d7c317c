"""No code writes into a table that another object holds.

A built value is frozen: a family, a simplicial map, a morphism of club
objects, an operad or a diagram keeps the tables it was constructed with.
A negative control that wants a value with one entry changed constructs that
value.  So nowhere in ``src/`` or ``tests/`` is a table reached through an
attribute, at any depth (``x.maps[m][e]``, ``x.face_maps[k].phi[t]``), the
target of a subscript store or ``del``, or the receiver of a mutating method
call.  Two kinds of attribute are exempt: those of ``self``, since a class
keeps its own state, and ``_``-prefixed memos.

Read-only mappings already refuse such writes in ``SimplexFamily`` and
``SimplicialMap``.  This check is what enforces the rule for the tables a
read-only type cannot hold: the fields of a ``NamedTuple`` such as
``ClubMorphismSSet.phi``, and the plain dicts of ``NsOperad.gamma`` and
``FinSetDiagram.maps``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
            "update", "setdefault", "add", "discard", "sort", "reverse",
            "difference_update", "intersection_update",
            "symmetric_difference_update", "__setitem__", "__delitem__"}


def _holder(node):
    """The attribute nearest to node on its chain of subscripts and
    attributes, and the name at the root of the chain (None when the chain
    starts at anything but a name)."""
    attr = None
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and attr is None:
            attr = node.attr
        node = node.value
    return attr, (node.id if isinstance(node, ast.Name) else None)


def _written_tables(tree):
    """The line of each write into a table held by an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            table = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            table = node.func.value
        else:
            continue
        attr, root = _holder(table)
        if attr is not None and root != "self" and not attr.startswith("_"):
            yield node.lineno


def test_no_writes_into_held_tables():
    writes = [f"{path.relative_to(ROOT)}:{line}"
              for top in ("src", "tests")
              for path in sorted((ROOT / top).rglob("*.py"))
              for line in _written_tables(ast.parse(path.read_text(encoding="utf-8")))]
    assert not writes, "writes into held tables: " + ", ".join(writes)
