"""Per-layer call counts and self time, from wrappers installed around the
package's public functions at the places their callers look them up.

A function imported by name into another module (``from .oracle import
estimate_G_V``) is looked up in the importing module's namespace, so it is
wrapped there as well as at home; every site of one function shares one
wrapper. Methods are wrapped on their class, ``Expansion`` validation through
``__post_init__``, and the problem's ``subgradient`` and ``objective``
closures by replacing them on the ``ProblemSpec`` that ``build_problem``
returns.

A layer's self time is its inclusive time minus the inclusive time of the
wrapped calls made inside it. A hook whose targets no longer exist is listed
under ``missing`` and a layer none of whose hooks resolved is left out of the
report; the run itself goes on unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time

import numpy as np

PKG = "uqsubgrad"


def _count_thetas(key: str):
    """Observer adding up the θs passed as the second positional argument:
    eval_matrix(self, theta, m) and subgradient(x, theta, noise)."""

    def observe(args, result, exc, extra):
        if len(args) > 1:
            extra[key] = extra.get(key, 0) + int(np.size(args[1]))

    return observe


_rows, _thetas = _count_thetas("rows"), _count_thetas("thetas")


def _rejected(args, result, exc, extra):
    extra["rejected"] = extra.get("rejected", 0) + (exc is not None)


def _changed(args, result, exc, extra):
    extra["changed"] = extra.get("changed", 0) + (exc is None and result is not args[0])


# layer name, lookup sites ("module:attribute.path"), observer of each call
HOOKS = (
    ("basis.eval_matrix", ("basis:BasisFamily.eval_matrix",), _rows),
    ("basis.synthesize", ("basis:synthesize",), None),
    ("basis.cell_index", ("basis:cell_index",), None),
    ("basis.Expansion", ("basis:Expansion.__post_init__",), None),
    ("basis.refine_partition", ("basis:refine_partition",), _rejected),
    ("basis.transfer_coefficients", ("basis:transfer_coefficients",), None),
    ("measure.contains", ("measure:ThetaMeasure.contains",), None),
    ("measure.composite_rule", ("measure:ThetaMeasure.composite_rule",), None),
    ("problems.project_coefficients",
     ("rsg:project_coefficients", "problems:project_coefficients"), _changed),
    ("problems.objective_gap_norm",
     ("rsg:objective_gap_norm", "problems:objective_gap_norm"), None),
    ("submodular.threshold_round",
     ("cli:threshold_round", "submodular:threshold_round"), None),
    ("submodular.verify_submodular",
     ("problems:verify_submodular", "submodular:verify_submodular"), None),
    ("oracle.estimate_truncated_subgradient",
     ("rsg:estimate_truncated_subgradient", "oracle:estimate_truncated_subgradient"), None),
    ("oracle.estimate_G_V", ("rsg:estimate_G_V", "oracle:estimate_G_V"), None),
    ("rsg.sg_subroutine", ("rsg:sg_subroutine",), None),
    ("rsg.grow_expansion", ("rsg:grow_expansion",), None),
    ("rsg.coefficient_hash", ("rsg:coefficient_hash",), None),
    ("cli.load_config", ("cli:load_config",), None),
    ("cli.compute_statistics", ("cli:compute_statistics",), None),
    ("cli.artifacts", ("cli:trace_to_csv", "rsg:trace_to_csv"), None),
    ("cli.artifacts", ("basis:expansion_to_text",), None),
    ("cli.artifacts", ("cli:StatsReport.to_json",), None),
)

# Builders whose results carry callables that are wrapped in turn. The build
# of the problem is reported by inclusive time only, as problems.build_s.
PROBLEM_BUILD = ("problems.build", ("cli:ExperimentConfig.build_problem",))
PROBLEM_CLOSURES = {"subgradient": _thetas, "objective": None}
REFERENCE_BUILD = ("submodular.min_cut_value_function",
                   ("cli:min_cut_value_function", "submodular:min_cut_value_function"))
REFERENCE_CALL = "submodular.reference_values"


def _resolve(site: str):
    """(owner, attribute name, current value) for a lookup site, or None."""
    module, _, path = site.partition(":")
    try:
        owner = importlib.import_module(f"{PKG}.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.extra: dict[str, dict] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def declare(self, name: str) -> dict:
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.total_s.setdefault(name, 0.0)
        return self.extra.setdefault(name, {})

    def wrap(self, name: str, fn, observe=None, transform=None):
        """``fn`` timed as layer ``name``; ``transform`` maps its result
        after the clock stops."""
        extra = self.declare(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            result = exc = None
            tic = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - tic
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - inner
                self.total_s[name] += dt
                if observe is not None:
                    observe(args, result, exc, extra)
            return result if transform is None else transform(result)

        return wrapper

    def _patch(self, name: str, sites, observe=None, transform=None) -> bool:
        wrappers: dict[int, object] = {}
        for site in sites:
            found = _resolve(site)
            if found is None:
                continue
            owner, attr, fn = found
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(name, fn, observe, transform)
            setattr(owner, attr, wrappers[id(fn)])
        if not wrappers:
            self.missing.append(f"{name} ({', '.join(sites)})")
        return bool(wrappers)

    def _wrap_problem(self, spec):
        closures = {f: self.wrap(f"problems.{f}", getattr(spec, f), observe)
                    for f, observe in PROBLEM_CLOSURES.items()}
        return dataclasses.replace(spec, **closures)

    def install(self):
        for name, sites, observe in HOOKS:
            self._patch(name, sites, observe)
        if self._patch(*PROBLEM_BUILD, transform=self._wrap_problem):
            for f in PROBLEM_CLOSURES:
                self.declare(f"problems.{f}")
        if self._patch(*REFERENCE_BUILD,
                       transform=lambda values: self.wrap(REFERENCE_CALL, values)):
            self.declare(REFERENCE_CALL)

    def report(self) -> dict:
        """Flat per-layer metrics, plus the list of hooks that found no target."""
        out: dict = {"missing": self.missing}
        for name, calls in sorted(self.calls.items()):
            extra = self.extra[name]
            if name == PROBLEM_BUILD[0]:
                out["problems.build_s"] = self.total_s[name]
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
            if name == "basis.eval_matrix":
                out[f"{name}.rows"] = extra.get("rows", 0)
            elif name == "problems.subgradient":
                out[f"{name}.thetas"] = extra.get("thetas", 0)
            elif name == "basis.refine_partition":
                kept = calls - extra.get("rejected", 0)
                out[f"{name}.accept_ratio"] = kept / calls if calls else 0.0
            elif name == "problems.project_coefficients":
                out[f"{name}.active_ratio"] = extra.get("changed", 0) / calls if calls else 0.0
        return out
