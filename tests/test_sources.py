"""Layout rules read from the package source with ``ast``."""

import ast
from functools import cache
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "illiq"


@cache
def _modules() -> tuple:
    """(module name, tree, nodes) for every package module, parsed once per
    session: the nodes in ``ast.walk`` order, each with the name of the
    outermost function that holds it, or ``<module>``."""
    parsed = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                owner.setdefault(node, scope.name)  # outer functions come first
        nodes = [(node, owner.get(node, "<module>")) for node in ast.walk(tree)]
        parsed.append((path.stem, tree, nodes))
    return tuple(parsed)


def _tree(module: str) -> ast.Module:
    return next(tree for name, tree, _ in _modules() if name == module)


def _owners(match) -> list:
    """``module.function`` for every function whose body holds a node that
    ``match`` accepts; a node at module level is listed as ``module.<module>``."""
    return [f"{name}.{scope}" for name, _, nodes in _modules()
            for node, scope in nodes if match(node)]


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
    # the CSV dialect lives in one place: nothing calls savetxt, only
    # manifest's CSV_FLOAT, which write_csv and the sweep metrics table use,
    # holds the number format, as a %-format or a format spec, and only
    # write_csv calls the kernel
    assert _callers("savetxt") == []
    assert _holders(".17g") == ["manifest.<module>"]
    assert set(_callers("_g17")) == {"manifest.write_csv"}


def _imports(module: str) -> dict:
    """The names each package module imports from the package module ``module``."""
    found = {}
    for name, tree, _ in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                found.setdefault(name, set()).update(alias.name for alias in node.names)
    return found


def test_csv_writers_come_public_from_manifest():
    # every module that writes a CSV takes write_csv from manifest, and no
    # module imports a private name from manifest or a private writer at all
    assert {name for name, names in _imports("manifest").items() if "write_csv" in names} == {
        "cli", "pdesolve", "simulate"}
    assert [(name, n) for name, names in _imports("manifest").items()
            for n in names if n.startswith("_")] == []
    modules = {name for name, _, _ in _modules()}
    assert [(name, n) for module in modules for name, names in _imports(module).items()
            for n in names if n.startswith("_write")] == []


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


def _defining(*names) -> list:
    """Functions and methods named one of ``names``."""
    return _owners(lambda node: isinstance(node, ast.FunctionDef) and node.name in names)


def test_one_heat_flow():
    # one function flows rows under the lattice heat operator: the grid and
    # payoff routes and the Cole-Hopf lattices only sample the rows it flows
    assert _defining("_split", "_flow") == []
    assert set(_callers("_heat")) == {"closedform._cole_hopf_layers",
                                      "closedform.heat_convolve_grid",
                                      "closedform.heat_convolve_payoff"}


def test_one_time_blend():
    # the paths blend their speed rows in time as value_at blends values
    assert _defining("blend") == []
    assert sorted(_callers("_time_blend")) == ["pdesolve.value_at", "simulate.simulate_paths"]


def test_experiments_imports_only_public_names():
    modules = {name for name, _, _ in _modules()}
    assert [(module, n) for module in modules for n in _imports(module).get("experiments", ())
            if n.startswith("_")] == []


def test_one_function_stamps_sweep_results():
    # every study's result carries the digests of its game and grid, and only
    # experiments._result builds one
    assert _callers("SweepResult") == ["experiments._result"]


CONFIG_KINDS = ("linear", "smoothed_spread", "custom_table", "smoothed_call", "smoothed_digital",
                "scaled", "negated", "sum", "custom_grid", "risk_neutral", "cara")


def test_one_schema_entry_per_config_kind():
    # each kind is named once, in model's schema tables, which load_game reads
    # a config through and game_to_dict writes one back with; no class writes
    # its own config dict
    for kind in CONFIG_KINDS:
        assert _owners(lambda node, kind=kind: isinstance(node, ast.Constant)
                       and node.value == kind) == ["model.<module>"], kind
    model = _tree("model")
    assert [node.lineno for node in ast.walk(model)
            if isinstance(node, ast.FunctionDef) and node.name == "to_dict"] == []


def test_one_function_writes_run_manifests():
    # every command's manifest.json is the plain dict cli._Run.finish builds,
    # and manifest.py keeps no record type of its own: it hashes and writes
    assert _callers("write_manifest") == ["cli.finish"]
    manifest = _tree("manifest")
    assert [node.name for node in ast.walk(manifest) if isinstance(node, ast.ClassDef)] == []


def test_one_march_steps_every_fd_solve():
    # solve_fd is the stack of one that keeps every layer: only the march
    # factors and applies the diffusion matrix, the spread sweep marches its
    # spreads and the two-player study its one game through solve_fd_initial,
    # which keeps only the t = 0 layer they read, and only model builds a
    # stacked cost
    assert _callers("_factor_tridiagonal") == ["pdesolve._march"]
    assert _callers("solve_banded") == ["pdesolve._march"]
    assert sorted(_callers("_march")) == ["pdesolve.solve_fd", "pdesolve.solve_fd_initial"]
    assert sorted(_callers("solve_fd_initial")) == ["experiments.cara_two_player_study",
                                                    "experiments.spread_sweep"]
    assert {"experiments.spread_sweep", "experiments.cara_two_player_study"}.isdisjoint(
        _callers("solve_fd"))
    assert _callers("stack_costs") == ["pdesolve._march"]
    assert _owners(lambda node: isinstance(node, ast.FunctionDef)
                   and node.name == "stack_costs") == ["model.stack_costs"]
    assert _callers("__new__") == ["model.stack_costs"]


def test_one_block_pass_takes_a_lattices_fields():
    # inside pdesolve only the FD march (a layer at a time), the Picard march
    # (a step's sub-layers at a time) and the block pass call
    # equilibrium_fields: solve_closed, solve_picard and residual take a
    # lattice's fields from the block pass, the one reader of the block size
    assert sorted(f for f in _callers("equilibrium_fields") if f.startswith("pdesolve.")) == [
        "pdesolve._field_blocks", "pdesolve._march", "pdesolve._picard_march"]
    assert sorted(_owners(lambda node: isinstance(node, ast.Name) and node.id.endswith("_POINTS"))
                  ) == ["pdesolve.<module>", "pdesolve._field_blocks"]


def test_one_dispatch_per_sweep_study():
    # experiments.run_study picks each study's inputs and the games it fits,
    # so the CLI takes nothing else from experiments and holds no study rule
    assert _imports("experiments")["cli"] == {"run_study", "ExperimentError", "SweepResult"}
    assert _callers("run_study") == ["cli.cmd_sweep"]


def test_certify_for_game_returns_the_speed_bound():
    # certify_for_game returns the certificate with the a-priori speed bound,
    # so no other module pairs it with apriori_speed_bound
    assert {f.split(".")[0] for f in _callers("apriori_speed_bound")} == {"speeds"}


def test_certify_cost_takes_its_interval():
    # a working interval is always given: certify_cost has no fallback of its own
    speeds = _tree("speeds")
    (certify_cost,) = [node for node in ast.walk(speeds)
                       if isinstance(node, ast.FunctionDef) and node.name == "certify_cost"]
    assert [a.arg for a in certify_cost.args.args] == ["cost", "interval"]
    assert certify_cost.args.defaults == []


def test_cost_kinds_declare_their_slope_floor():
    # the declared slope floor is a class constant of each cost kind, not a
    # constructor argument, and only a certificate holds an eps_floor
    model = _tree("model")
    costs = [node for node in ast.walk(model) if isinstance(node, ast.ClassDef)
             and any(getattr(base, "id", None) == "CostFunction" for base in node.bases)]
    assert sorted(c.name for c in costs) == ["LinearCost", "SmoothedSpreadCost", "TableCost"]
    assert [(c.name, n.target.id) for c in costs for n in c.body
            if isinstance(n, ast.AnnAssign) and n.target.id == "eps_floor"] == []
    assert _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "eps_floor"
                   and getattr(node.value, "id", None) == "cost") == []


def test_the_speed_root_evaluates_the_cost_once_per_sweep():
    # the root takes g, g' and g'' from one cost.evaluate call per sweep and
    # equilibrium_fields takes g(z*) and g'(z*) from its last sweep: speeds
    # calls no single cost method, and only speeds and model call curvature
    cost_calls = [f for attr in ("value", "slope", "curvature", "evaluate")
                  for f in _callers(attr)]
    assert "speeds.equilibrium_fields" not in cost_calls
    assert [f for f in _callers("value") + _callers("slope") + _callers("curvature")
            if f.startswith("speeds.")] == []
    assert {f.split(".")[0] for f in _callers("curvature")} <= {"model", "speeds"}


def _function(module: str, name: str) -> ast.FunctionDef:
    (node,) = [node for node in ast.walk(_tree(module))
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_cli_maps_failures_in_one_place():
    # cli.main reports every failure through one table, check included: its
    # JSON report is main's too, so cmd_check catches nothing of its own
    assert [node for node in ast.walk(_function("cli", "cmd_check"))
            if isinstance(node, ast.Try)] == []
    assert _owners(lambda node: isinstance(node, ast.Name) and node.id == "_FAILURES") == [
        "cli.<module>", "cli.main"]


def test_cli_makes_the_run_directory_in_one_place():
    # --out is made on a command's first write, by the run record alone
    assert _callers("mkdir") == ["cli.path"]


def test_one_padding_rule_for_the_heat_axes():
    # the refined axis of the Cole-Hopf lattices is padded as the grid's is
    assert sorted(_callers("_padding")) == ["closedform._extend", "closedform._refined_axis",
                                            "closedform.duhamel_trapezoid"]
    assert _callers("_next_fast_len") == ["closedform._padding"]


def test_grid_sizes_default_in_one_place():
    # GridSpec's fields hold the default lattice; for_market declares none
    for_market = _function("model", "for_market")
    assert for_market.args.defaults == [] and for_market.args.kwonlyargs == []
    assert [a.arg for a in for_market.args.args] == ["market"]


def test_closed_form_decides_its_coverage_once():
    # closed_form_values asks _cole_hopf_problem, in its own name, which games
    # it covers, rather than through the closed forms it dispatches to
    calls = [node for node in ast.walk(_function("closedform", "closed_form_values"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_cole_hopf_problem"]
    assert len(calls) == 1
    assert [a.value for a in calls[0].args if isinstance(a, ast.Constant)] == ["the closed form"]
