"""The demo scripts import only names the package provides."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _illiq_imports(path: Path):
    """(module, name) for every ``from illiq[.x] import name`` in a script."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "illiq":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = [f"{mod}.{name}" for mod, name in _illiq_imports(path)
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{path.name} imports names illiq does not provide: {missing}"
