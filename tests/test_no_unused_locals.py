"""Every local name a function binds with a plain assignment is read.

A name counts as bound when a function's own body assigns it with
``name = ...``; tuple targets, augmented and annotated assignments do not
count.  It counts as read when it is loaded anywhere in the function, a
nested function included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func):
    """The nodes of a function's body outside its nested functions and
    classes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def _unused(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        bound = {}
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, target.lineno)
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{path.relative_to(ROOT)}:{line} {name}"
                for name, line in bound.items()
                if name not in read]
    return out


def test_every_assigned_local_is_read():
    paths = sorted((ROOT / "src" / "clubcat").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [u for path in paths for u in _unused(path)]
    assert not unused, "assigned but never read: " + ", ".join(unused)
