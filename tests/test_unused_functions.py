"""Every module-level function and private method of the library is used.

A function in ``hopfalg.__all__`` is public API.  Any other module-level
function, and any ``_name`` method of a class, must be referenced
somewhere in ``src/hopfalg`` outside its own definition, so a helper
whose last caller is gone fails here.  This is the stdlib ``ast``
companion of ``test_unused_imports.py``.
"""

import ast
from pathlib import Path

import hopfalg

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfalg"


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_private_module_function_is_referenced():
    defined = []  # (module, function definition)
    # per top-level statement, the names it references; a function's own
    # body does not count as a use of it
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            statements.append((node, _referenced(node)))
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, node))
    public = set(hopfalg.__all__)
    unused = [f"{module}:{fn.lineno}: {fn.name}" for module, fn in defined
              if fn.name not in public
              and not any(fn.name in names for node, names in statements
                          if node is not fn)]
    assert unused == []


def test_every_private_method_is_referenced():
    defined = []  # (module, class, method definition)
    # per top-level statement, and per statement of a class body, the
    # names it references; a method's own body does not count as a use
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            for stmt in node.body if is_class else [node]:
                statements.append((stmt, _referenced(stmt)))
                if (is_class and isinstance(stmt, ast.FunctionDef)
                        and stmt.name.startswith("_")
                        and not stmt.name.endswith("__")):
                    defined.append((path.name, node.name, stmt))
    assert defined
    unused = [f"{module}:{fn.lineno}: {cls}.{fn.name}"
              for module, cls, fn in defined
              if not any(fn.name in names for stmt, names in statements
                         if stmt is not fn)]
    assert unused == []
