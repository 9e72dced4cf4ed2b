"""Every name a library module imports is used in that module.

No linter ships with the project, so this is the stdlib ``ast`` form of
an unused-import check.  ``__init__.py`` is skipped: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfalg"


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations ("TensorElement") name a type inside a string
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value))
                         if isinstance(n, ast.Name)}
    return used


def _imported_names(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((node.lineno, name))
    return found


def test_no_unused_imports_in_library_modules():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _imported_names(tree) if name not in used]
    assert unused == []
