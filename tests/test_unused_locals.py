"""Every local name a library function binds is read in that function.

The stdlib ``ast`` form of an unused-variable check, next to the
unused-import one.  Assignment, loop, tuple, ``with``, ``except`` and
import targets all count as bindings; parameters do not.  A name read
only by a nested function (a closure) counts as read.  Names starting
with ``_`` are exempt: that is how a binding says it is unread.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfalg"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of fn's body, not descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(fn) -> list[tuple[int, str]]:
    found = []
    declared = set()
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, _SCOPES) and not isinstance(node, ast.Lambda):
            found.append((node.lineno, node.name))
    return [(line, name) for line, name in found
            if name not in declared and not name.startswith("_")]


def _reads(fn) -> set[str]:
    reads = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            reads.add(node.target.id)
    return reads


def test_no_unread_locals_in_library_functions():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = _reads(fn)
            unread += [f"{path.name}:{line}: {name} in {fn.name}"
                       for line, name in _bindings(fn) if name not in reads]
    assert unread == []
