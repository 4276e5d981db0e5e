"""Package-level guards on the source tree."""
import ast
from pathlib import Path

import eddy2d

SRC = Path(eddy2d.__file__).parent

# documented library entry points that no module of the package calls
LIBRARY_ENTRY_POINTS = {"export_matrix", "save_mesh"}


def _names_used(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_top_level_definition_is_used_in_src():
    # a function or class that only tests call is a second implementation
    # waiting to drift from the one the runs use; an __init__ re-export is
    # not a use
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
            # names used inside a definition count for every other name
            used |= _names_used(stmt) - ({stmt.name} if hasattr(stmt, "name") else set())
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in LIBRARY_ENTRY_POINTS)
    assert not unused, f"defined in src but used only outside it: {unused}"
