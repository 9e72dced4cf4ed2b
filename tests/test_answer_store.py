"""Per-object answers are read and written through one helper.

``AnswerStore._kept`` in ``reports.py`` owns the store of answers that an
object computes once: no other code in ``src/hopfalg`` names the store,
as an attribute, a name or a string, so its key layout and the
compute-once rule live in one place.  The stdlib ``ast`` companion of
``test_unused_functions.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfalg"
STORE = "_answers"


def _mentions(node: ast.AST) -> list[int]:
    """Line numbers where ``node`` names the store."""
    return [sub.lineno for sub in ast.walk(node)
            if (isinstance(sub, ast.Attribute) and sub.attr == STORE)
            or (isinstance(sub, ast.Name) and sub.id == STORE)
            or (isinstance(sub, ast.Constant) and sub.value == STORE)]


def _helper(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "AnswerStore":
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "_kept":
                    return stmt
    return None


def test_only_the_helper_names_the_store():
    helper = _helper(ast.parse((SRC / "reports.py").read_text("utf-8")))
    assert helper is not None and _mentions(helper)
    inside = set(_mentions(helper))
    outside = []
    for path in sorted(SRC.glob("*.py")):
        lines = _mentions(ast.parse(path.read_text(encoding="utf-8")))
        if path.name == "reports.py":
            lines = [line for line in lines if line not in inside]
        outside += [f"{path.name}:{line}" for line in lines]
    assert outside == []
