"""Spans around the public functions of every ``illiq`` layer.

Only the traced run imports this module.  ``Tracer.install`` replaces each
public function of the layer modules, in every layer module that binds it
(``from .x import f`` makes a copy of the name), with a wrapper that records
a span: name, start, end and the span that was open when it was called.
Spans stay in memory; ``metrics`` turns them into per-layer figures.

A name that a later version of the package renames or deletes is simply not
wrapped, and every metric built on it is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

LAYERS = ("model", "speeds", "closedform", "pdesolve", "simulate", "experiments", "cli",
          "manifest")
# library functions a layer calls through its own namespace, timed as that layer
FOREIGN = (("pdesolve", "solve_banded"),)
ROOT_SPAN = "speeds.aggregate_speed_many"


class Tracer:
    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index]
        self.stack: list = []    # indices of the open spans
        self.wrapped: set = set()
        self.phi_per_root: dict = {}  # root span index -> cost-slope calls inside it
        self.facts: dict = {}    # span name -> values read from returns
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the layer modules where it is bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS
                               if hasattr(package, layer)]
        wrappers: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = self._span_name(mod, attr, obj, package.__name__)
                if name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patch(mod, attr, wrappers[id(obj)])
        self._wrap_cost_slopes(package)

    @staticmethod
    def _span_name(mod, attr, obj, pkg):
        home = obj.__module__ or ""
        if home.startswith(pkg + "."):
            return f"{home[len(pkg) + 1:]}.{obj.__name__}"
        layer = mod.__name__[len(pkg) + 1:]
        return f"{layer}.{attr}" if (layer, attr) in FOREIGN else None

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn):
        self.wrapped.add(name)
        read_facts = _RETURN_FACTS.get(name, ((), None))[1]
        spans, stack, facts = self.spans, self.stack, self.facts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if read_facts is not None:
                for key, value in read_facts(args, kwargs, out).items():
                    facts.setdefault(key, []).append(value)
            return out

        return wrapper

    def _wrap_cost_slopes(self, package) -> None:
        """Count phi evaluations: each evaluates the cost slope once, and
        only slopes evaluated inside a speed-root span count."""
        base = getattr(getattr(package, "model", None), "CostFunction", None)
        if base is None:
            return
        todo, classes = [base], []
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        spans, stack, counts = self.spans, self.stack, self.phi_per_root
        for cls in classes:
            slope = cls.__dict__.get("slope")
            if slope is None:
                continue

            def counted(obj, z, _slope=slope):
                for idx in reversed(stack):
                    if spans[idx][0] == ROOT_SPAN:
                        counts[idx] = counts.get(idx, 0) + 1
                        break
                return _slope(obj, z)

            self._patch(cls, "slope", functools.wraps(slope)(counted))

    # -- figures ----------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: (calls, summed duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - inner)
        return out

    def metrics(self, wall_s: float) -> dict:
        """Every figure the spans support, keyed by metric name.  A figure
        whose function was not found at install time is left out."""
        stats = self.self_times()
        out: dict = {}
        for name in self.wrapped:
            calls, self_s = stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            if any(name.startswith(layer + ".") for name in self.wrapped):
                out[f"{layer}.self_s"] = sum((s for name, (_, s) in stats.items()
                                              if name.startswith(layer + ".")), 0.0)
        if ROOT_SPAN in self.wrapped:
            roots = out[f"{ROOT_SPAN}.calls"]
            evals = [self.phi_per_root.get(i, 0) for i, span in enumerate(self.spans)
                     if span[0] == ROOT_SPAN]
            out["speeds.phi_evals_per_root"] = sum(evals) / roots if roots else 0.0
            out["speeds.phi_evals_max"] = max(evals, default=0)
        # summed facts: 0 when the function never ran, absent when it is
        # missing or ran without giving the fact
        for span, (keys, _) in _RETURN_FACTS.items():
            for key in keys if span in self.wrapped else ():
                if key in self.facts:
                    out[key] = sum(self.facts[key])
                elif out[f"{span}.calls"] == 0:
                    out[key] = 0
        steps = out.pop("simulate.simulate_paths.path_steps", None)
        if steps is not None:
            busy = out["simulate.simulate_paths.self_s"]
            out["simulate.simulate_paths.path_steps_per_s"] = steps / busy if busy > 0 else 0.0
        out["trace.wall_s"] = wall_s
        return out


# -- facts read from return values --------------------------------------------

def _fd_facts(args, kwargs, sol):
    meta = getattr(sol, "meta", {})
    return {"pdesolve.n_t_used": meta["n_t_used"]} if "n_t_used" in meta else {}


def _picard_facts(args, kwargs, sol):
    meta = getattr(sol, "meta", {})
    facts = {}
    if "iteration_changes" in meta:
        facts["pdesolve.solve_picard.iterations"] = sum(
            len(changes) for changes in meta["iteration_changes"])
    if "tau_halvings" in meta:
        facts["pdesolve.solve_picard.tau_halvings"] = meta["tau_halvings"]
    return facts


def _csv_facts(args, kwargs, _):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"pdesolve.write_solution_csv.bytes": os.path.getsize(path)} if path else {}


def _paths_facts(args, kwargs, bundle):
    arrays = [v for v in vars(bundle).values() if hasattr(v, "nbytes")]
    return {"simulate.simulate_paths.path_steps": bundle.n_paths * (bundle.times.size - 1),
            "simulate.simulate_paths.bytes": sum(a.nbytes for a in arrays)}


# span -> (the facts it can give, how they are read from its return value)
_RETURN_FACTS = {
    "pdesolve.solve_fd": (("pdesolve.n_t_used",), _fd_facts),
    "pdesolve.solve_picard": (("pdesolve.solve_picard.iterations",
                               "pdesolve.solve_picard.tau_halvings"), _picard_facts),
    "pdesolve.write_solution_csv": (("pdesolve.write_solution_csv.bytes",), _csv_facts),
    "simulate.simulate_paths": (("simulate.simulate_paths.path_steps",
                                 "simulate.simulate_paths.bytes"), _paths_facts),
}
