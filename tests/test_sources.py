"""Layout rules read from the package source with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "illiq"


def _owners(match) -> list:
    """``module.function`` for every function whose body holds a node that
    ``match`` accepts; a node at module level is listed as ``module.<module>``."""
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
            if match(node):
                found.append(f"{path.stem}.{owner.get(node, '<module>')}")
    return found


def _callers(attr: str) -> list:
    """Functions whose body calls ``<x>.attr`` or ``attr``."""

    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == attr

    return _owners(calls)


def _holders(text: str) -> list:
    """Functions whose body holds a string literal containing ``text``."""
    return _owners(lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and text in node.value)


def test_one_function_writes_numeric_csv():
    # the CSV dialect lives in one place: nothing calls savetxt, and only
    # pdesolve's CSV_FLOAT, which both numeric writers and the sweep metrics
    # table use, holds the number format, as a %-format or a format spec
    assert _callers("savetxt") == []
    assert _holders(".17g") == ["pdesolve.<module>"]


def test_only_model_tells_utilities_apart():
    # the utility types carry their risk aversion and utility scale, so no
    # other module branches on which utility a player has
    def utility_check(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            return False
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
        return bool(names & {"CARA", "RiskNeutral"})

    assert [f for f in _owners(utility_check) if not f.startswith("model.")] == []


def test_one_spectral_heat_operator():
    # only closedform applies the cosine transforms, and neither the solvers
    # nor the studies build a Gauss-Hermite rule of their own
    assert {f.split(".")[0] for f in _callers("dct") + _callers("idct")} == {"closedform"}
    assert [f for f in _callers("gauss_hermite")
            if f.split(".")[0] in ("pdesolve", "experiments")] == []


def test_one_function_stamps_sweep_results():
    # every study's result carries the digests of its game and grid, and only
    # experiments._result builds one
    assert _callers("SweepResult") == ["experiments._result"]
