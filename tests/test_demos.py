"""The demo scripts and the README quick start import only names the package
provides, and call its functions with arguments their signatures accept."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _illiq_imports(tree):
    """(module, alias) for every ``from illiq[.x] import name`` in a parsed script."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "illiq":
            for alias in node.names:
                yield node.module, alias


def _quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _illiq_names(tree) -> dict:
    """Local name -> object for every name a script imports from illiq."""
    names = {}
    for module, alias in _illiq_imports(tree):
        mod = importlib.import_module(module)
        if alias.name == "*":
            names.update({k: v for k, v in vars(mod).items() if not k.startswith("_")})
        elif hasattr(mod, alias.name):
            names[alias.asname or alias.name] = getattr(mod, alias.name)
    return names


def _check_calls(source: str, filename: str):
    """Bind every call of an imported illiq function, class or static method
    (``GridSpec.for_market``) to its signature, a placeholder standing for each
    argument.  Returns the number of calls checked and the ones that fail."""
    tree = ast.parse(source, filename=filename)
    names = _illiq_names(tree)
    checked, failures = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in names):
            target = getattr(names[func.value.id], func.attr, None)
            if target is None:
                failures.append(f"line {node.lineno}: {ast.unparse(func)} does not exist")
                continue
        else:
            continue
        if (not callable(target) or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        checked += 1
        try:
            inspect.signature(target).bind(*[None] * len(node.args),
                                           **{k.arg: None for k in node.keywords})
        except TypeError as err:
            failures.append(f"line {node.lineno}: {ast.unparse(node)}: {err}")
    return checked, failures


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [f"{mod}.{alias.name}" for mod, alias in _illiq_imports(tree)
               if not hasattr(importlib.import_module(mod), alias.name)]
    assert not missing, f"{path.name} imports names illiq does not provide: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_signatures(path):
    checked, failures = _check_calls(path.read_text(), str(path))
    assert checked > 0
    assert not failures, f"{path.name}: " + "; ".join(failures)


def test_readme_quick_start_calls_match_signatures():
    checked, failures = _check_calls(_quick_start(), "README.md")
    assert checked > 0
    assert not failures, "README quick start: " + "; ".join(failures)
