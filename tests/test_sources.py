"""Layout rules read from the package source with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "illiq"


def _callers(attr: str) -> list:
    """``module.function`` for every function whose body calls ``<x>.attr`` or
    ``attr``; a call at module level is listed as ``module.<module>``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                owner.setdefault(node, scope.name)  # outer functions come first
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == attr:
                    found.append(f"{path.stem}.{owner.get(node, '<module>')}")
    return found


def test_one_function_writes_numeric_csv():
    # every numeric table goes through one writer, so the CSV dialect lives in one place
    assert _callers("savetxt") == ["pdesolve._write_table"]
