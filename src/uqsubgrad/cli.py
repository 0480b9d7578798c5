"""Batch experiment runner: config loading, execution, statistics, reports.

Subcommands
-----------
``uqsubgrad run <config> [--seed N] [--out DIR]``
    Run the configured experiment; writes trace.csv, expansion.txt and
    stats.json into the output directory, all three or none (temp + rename,
    rolled back on a failure).
``uqsubgrad stats <expansion-file> <config> [--seed N] [--out DIR]``
    Recompute the statistics report for a saved expansion.
``uqsubgrad curve <trace.csv> [--out FILE]``
    Emit the plot-ready error curve (one row per inner-subroutine call).

Exit codes: 0 success, 2 config errors (one-line diagnostic naming the field),
1 runtime failures.

Config format: INI-style sections of flat key=value pairs; see the shipped
demos/*.cfg and the README for the grammar.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import basis as bs
from .measure import ThetaMeasure
from .oracle import OracleConfig
from .problems import NoiseModel, ProblemSpec, mincut_problem, quadratic_problem
from .rsg import RsgConfig, RunTrace, restarted_outer, trace_from_csv, trace_to_csv
from .submodular import CutGraph, min_cut_value_function, parse_cut_graph, threshold_round


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# -- Config parsing -------------------------------------------------------------


_SCHEDULE_KEYS = {"linear": {"start", "step", "cap"}, "power": {"shift", "exponent", "offset"}}


def _parse_m_schedule(text: str) -> Callable[[int], int]:
    """Schedule grammar:

    ``constant:M``                      m_j = M
    ``linear:start=A,step=B,cap=C``     m_j = min(A + B*(j-1), C)
    ``power:shift=S,exponent=P,offset=O``  m_j = round((j+S)**P + O), S > -1
    """
    kind, _, rest = text.partition(":")
    try:
        if kind == "constant":
            m = int(rest)
            return lambda j: m
        pairs = [kv.split("=") for kv in rest.split(",")] if rest else []
        params = dict(pairs)
        unknown = params.keys() - _SCHEDULE_KEYS.get(kind, params.keys())
        _require(not unknown, "rsg.m_schedule", f"unknown {kind} key(s) {sorted(unknown)}")
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        _require(not repeated, "rsg.m_schedule", f"repeated {kind} key(s) {repeated}")
        if kind == "linear":
            a, b_, c = int(params["start"]), int(params["step"]), int(params["cap"])
            return lambda j: min(a + b_ * (j - 1), c)
        if kind == "power":
            s, p_, o = float(params["shift"]), float(params["exponent"]), float(params["offset"])
            _require(np.isfinite([s, p_, o]).all() and s > -1, "rsg.m_schedule",
                     "power needs finite values and shift > -1")
            return lambda j: int(round((j + s) ** p_ + o))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"rsg.m_schedule: cannot parse {text!r} ({exc})") from exc
    raise ConfigError(f"rsg.m_schedule: unknown schedule kind {kind!r}")


FAMILIES = {"legendre": bs.legendre_family, "piecewise": bs.piecewise_family}

# The Gauss-Legendre rule is an eigensolve of an n x n matrix: 1024 nodes take
# about 0.2 s and 18 MB, 5000 nodes 6-7 s and 200 MB.
MAX_QUADRATURE_NODES = 1024


# problem kind -> (the projection kind its ProblemSpec carries, which the basis
# family must share; the problem's constructor; the reference values the trace
# error measures against, or None when the problem carries its own optimum)
PROBLEMS = {
    "quadratic": ("l2_ball", lambda c: quadratic_problem(c.mu, c.l_max, c.measure),
                  lambda c: None),
    "mincut": ("per_cell_box", lambda c: mincut_problem(c.graph, c.measure),
               lambda c: min_cut_value_function(c.graph)),
}


@dataclass
class ExperimentConfig:
    problem_kind: str
    measure: ThetaMeasure
    basis_kind: str
    rsg: RsgConfig
    stats_samples: int
    stats_quantiles: tuple[float, ...]
    round_eps: float
    out_dir: Path
    mu: float = 1.0
    l_max: float = 50.0
    graph: Optional[CutGraph] = None

    def build_problem(self) -> ProblemSpec:
        return PROBLEMS[self.problem_kind][1](self)

    def build_family(self) -> bs.BasisFamily:
        return FAMILIES[self.basis_kind](self.measure)

    def reference_values(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        return PROBLEMS[self.problem_kind][2](self)


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"{section}.{key}: missing required field")
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc


def _require(ok: bool, field: str, rule: str):
    if not ok:
        raise ConfigError(f"{field}: {rule}")


def load_config(path: Path, seed_override: Optional[int] = None,
                out_override: Optional[Path] = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    a = _get(cp, "measure", "a", float)
    b = _get(cp, "measure", "b", float)
    nodes = _get(cp, "measure", "quadrature_nodes", int, 128)
    _require(1 <= nodes <= MAX_QUADRATURE_NODES, "measure.quadrature_nodes",
             f"must lie in [1, {MAX_QUADRATURE_NODES}]")
    try:
        measure = ThetaMeasure(a, b, quadrature_nodes=nodes)
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from exc

    kind = _get(cp, "problem", "kind", str)
    graph = None
    mu = l_max = 0.0
    if kind == "quadratic":
        mu = _get(cp, "problem", "mu", float, 1.0)
        l_max = _get(cp, "problem", "l", float, 50.0)
        _require(0 < mu <= l_max, "problem.mu", "need 0 < mu <= l")
    elif kind.startswith("mincut:"):
        edge_path = (path.parent / kind.split(":", 1)[1]).resolve()
        if not edge_path.is_file():
            raise ConfigError(f"problem.kind: edge list not found: {edge_path}")
        try:
            graph = parse_cut_graph(edge_path.read_text(), (a, b))
        except ValueError as exc:
            raise ConfigError(f"problem.kind: bad edge list: {exc}") from exc
        kind = "mincut"
    else:
        raise ConfigError(f"problem.kind: unknown problem {kind!r}")

    basis_kind = _get(cp, "basis", "kind", str)
    _require(basis_kind in FAMILIES, "basis.kind", f"unknown basis {basis_kind!r}")

    sigma = _get(cp, "rsg", "noise_sigma", float, 0.0)
    _require(np.isfinite(sigma) and sigma >= 0, "rsg.noise_sigma", "must be finite and >= 0")
    noise = NoiseModel("additive_gaussian", sigma) if sigma > 0 else NoiseModel()
    theta_samples = _get(cp, "rsg", "theta_samples", int, 64)
    _require(theta_samples >= 1, "rsg.theta_samples", "must be >= 1")
    oracle = OracleConfig(theta_samples_per_call=theta_samples, noise=noise)
    seed = seed_override if seed_override is not None else _get(cp, "rsg", "seed", int, 0)
    _require(seed >= 0, "rsg.seed", "must be >= 0")
    initial_step = None
    if cp.has_option("rsg", "initial_step"):
        initial_step = _get(cp, "rsg", "initial_step", float)
        _require(np.isfinite(initial_step) and initial_step > 0, "rsg.initial_step",
                 "must be finite and > 0")
    step_size = {key: _get(cp, "rsg", key, float) for key in ("eps0", "eps_target", "alpha")}
    for key, value in step_size.items():
        _require(np.isfinite(value), f"rsg.{key}", "must be finite")
    try:
        rsg = RsgConfig(
            **step_size,
            t=_get(cp, "rsg", "t", int),
            k_stages=_get(cp, "rsg", "k", int),
            outer_loops=_get(cp, "rsg", "outer_loops", int),
            m_schedule=_parse_m_schedule(_get(cp, "rsg", "m_schedule", str)),
            oracle=oracle,
            seed=seed,
            initial_step=initial_step,
        )
    except ArithmeticError as exc:
        raise ConfigError(f"rsg.m_schedule: the schedule overflows ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"rsg: {exc}") from exc

    quants = _get(cp, "stats", "quantiles", str, "0.1,0.5,0.9")
    try:
        quantiles = tuple(float(q) for q in quants.split(",") if q.strip())
    except ValueError as exc:
        raise ConfigError(f"stats.quantiles: cannot parse {quants!r}") from exc
    _require(all(0 <= q <= 1 for q in quantiles), "stats.quantiles", "values must lie in [0, 1]")

    if out_override is not None:
        out_dir = Path(out_override)  # shell-relative, as the flag suggests
    else:
        out_dir = Path(_get(cp, "output", "directory", str, "out"))
        if not out_dir.is_absolute():
            out_dir = path.parent / out_dir

    stats_samples = _get(cp, "stats", "samples", int, 10000)
    _require(stats_samples >= 1, "stats.samples", "must be >= 1")
    round_eps = _get(cp, "stats", "round_eps", float, 0.1)
    _require(0 < round_eps < 1, "stats.round_eps", "must lie in (0, 1)")

    cfg = ExperimentConfig(
        problem_kind=kind,
        measure=measure,
        basis_kind=basis_kind,
        rsg=rsg,
        stats_samples=stats_samples,
        stats_quantiles=quantiles,
        round_eps=round_eps,
        out_dir=Path(out_dir),
        mu=mu,
        l_max=l_max,
        graph=graph,
    )
    projection = PROBLEMS[kind][0]
    paired = [name for name, f in FAMILIES.items() if f.projection == projection]
    _require(basis_kind in paired, "basis.kind",
             f"the {kind} problem's {projection} projection needs the {' or '.join(paired)} basis")
    top = max(rsg.m_schedule(j) for j in range(1, rsg.outer_loops * rsg.k_stages + 1))
    limit = cfg.build_family().max_level
    _require(top <= limit, "rsg.m_schedule",
             f"reaches m={top}, above the {basis_kind} basis's largest level {limit}")
    return cfg


def _check_expansion(e: bs.Expansion, cfg: ExperimentConfig):
    """ConfigError unless the expansion's kind, support, rule and q fit the config."""
    kind = cfg.build_family().kind
    if e.basis.kind != kind:
        raise ConfigError(f"expansion kind: {e.basis.kind} does not match basis.kind ({kind})")
    support = (e.basis.measure.a, e.basis.measure.b)
    if support != (cfg.measure.a, cfg.measure.b):
        raise ConfigError(
            f"expansion support: {list(support)} does not match measure "
            f"[{cfg.measure.a!r}, {cfg.measure.b!r}]"
        )
    nodes, expected = e.basis.measure.quadrature_nodes, cfg.measure.quadrature_nodes
    _require(nodes == expected, "expansion quadrature_nodes",
             f"{nodes} does not match measure.quadrature_nodes ({expected})")
    q = cfg.build_problem().dimension
    if e.q != q:
        raise ConfigError(f"expansion q: {e.q} does not match the problem dimension {q}")


# -- Statistics ------------------------------------------------------------------


@dataclass
class StatsReport:
    mean: list[float]
    variance: list[float]
    quantiles: dict[str, list[float]]
    cut_frequencies: Optional[dict[str, float]] = None

    def to_json(self) -> str:
        payload = {
            "mean": self.mean,
            "variance": self.variance,
            "quantiles": self.quantiles,
        }
        if self.cut_frequencies is not None:
            payload["cut_frequencies"] = self.cut_frequencies
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def compute_statistics(
    e: bs.Expansion,
    measure: ThetaMeasure,
    n: int,
    quantiles: tuple[float, ...],
    rng: np.random.Generator,
    round_eps: float = 0.1,
    graph: Optional[CutGraph] = None,
) -> StatsReport:
    """Mean/variance by deterministic quadrature of the synthesized expansion;
    quantiles from n seeded theta samples; for cut problems every sample is
    threshold-rounded and the resulting discrete sets tallied (per cell for a
    piecewise expansion). The samples are held as the family's
    ``sample_rows``: no (n, m) design, and for a piecewise expansion one row
    per cell instead of one per sample."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    nodes, weights = e.basis.rule()
    vals = bs.synthesize(e, nodes)
    mean = weights @ vals
    var = weights @ vals**2 - mean**2

    thetas = rng.uniform(measure.a, measure.b, size=n)
    rows, index = e.basis.sample_rows(e, thetas)
    # one component at a time, partitioning its gathered copy in place: the
    # bytes of np.quantile(rows[index], axis=0)
    columns = [np.quantile(rows[index, j], quantiles, overwrite_input=True) for j in range(e.q)]
    qs = {repr(float(q)): [float(col[i]) for col in columns] for i, q in enumerate(quantiles)}

    freqs = None
    if graph is not None:
        counts: dict[str, int] = {}
        ground = graph.ground_set
        for row, hit in zip(rows, np.bincount(index, minlength=len(rows))):
            if hit:
                members = threshold_round(row, round_eps, ground)
                key = ",".join(g for g in ground if g in members) or "{}"
                counts[key] = counts.get(key, 0) + int(hit)
        freqs = {k: c / n for k, c in sorted(counts.items())}

    return StatsReport(
        mean=[float(v) for v in mean],
        variance=[float(max(v, 0.0)) for v in var],
        quantiles=qs,
        cut_frequencies=freqs,
    )


def error_curve(trace: RunTrace) -> str:
    """Plot-ready CSV keyed by inner-subroutine call count."""
    if not trace.rows:
        raise ValueError("empty trace")
    lines = ["call_index,fn_error_pi,fn_error_pi_sq"]
    for r in trace.rows:
        lines.append(f"{r.call_index},{r.fn_error_pi!r},{r.fn_error_pi_sq!r}")
    return "\n".join(lines) + "\n"


# -- Execution -------------------------------------------------------------------


def _write_all(files: dict[Path, str]):
    """Write every file or none.

    Each text first goes to a temp file beside its target; the temps then
    replace the targets one by one, each earlier file or link set aside
    first. A failure puts back what was set aside, removes the new files and
    every temp, and re-raises; a directory in a target's place stays as it is.
    """
    staged: list[tuple[Path, str, Optional[str]]] = []
    try:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
            staged.append((path, tmp, None))
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for i, (path, tmp, _) in enumerate(staged):
            if os.path.islink(path) or os.path.isfile(path):
                os.replace(path, tmp + ".old")
                staged[i] = (path, tmp, tmp + ".old")
            os.replace(tmp, path)
    except BaseException:
        for path, tmp, old in reversed(staged):
            if os.path.exists(tmp):
                os.unlink(tmp)
            elif old is None:
                os.unlink(path)  # a new file where there was none
            if old is not None:
                os.replace(old, path)
        raise
    for _, _, old in staged:
        if old is not None:
            os.unlink(old)


def run_experiment(cfg: ExperimentConfig) -> dict[str, Path]:
    """Run the configured experiment and write trace/expansion/stats artifacts.

    Deterministic for a fixed seed except for the wall-clock elapsed_ms trace
    column. The three files are written after the run completes, all or none.
    """
    problem = cfg.build_problem()
    family = cfg.build_family()
    final, trace = restarted_outer(
        problem, cfg.rsg, family, reference_values=cfg.reference_values()
    )
    stats_rng = np.random.default_rng([cfg.rsg.seed, 1])
    report = compute_statistics(
        final,
        cfg.measure,
        cfg.stats_samples,
        cfg.stats_quantiles,
        stats_rng,
        round_eps=cfg.round_eps,
        graph=cfg.graph,
    )
    out = {
        "trace": cfg.out_dir / "trace.csv",
        "expansion": cfg.out_dir / "expansion.txt",
        "stats": cfg.out_dir / "stats.json",
    }
    _write_all({
        out["trace"]: trace_to_csv(trace),
        out["expansion"]: bs.expansion_to_text(final),
        out["stats"]: report.to_json(),
    })
    return out


# -- Entry point -----------------------------------------------------------------


def _cmd_run(args) -> int:
    cfg = load_config(Path(args.config), args.seed, Path(args.out) if args.out else None)
    paths = run_experiment(cfg)
    print(" ".join(str(p) for p in paths.values()))
    return 0


def _cmd_stats(args) -> int:
    cfg = load_config(Path(args.config), args.seed, Path(args.out) if args.out else None)
    exp_path = Path(args.expansion)
    if not exp_path.is_file():
        raise ConfigError(f"expansion file not found: {exp_path}")
    try:
        e = bs.expansion_from_text(exp_path.read_text())
    except ValueError as exc:
        raise ConfigError(f"expansion: {exc}") from exc
    _check_expansion(e, cfg)
    rng = np.random.default_rng([cfg.rsg.seed, 1])
    report = compute_statistics(
        e, cfg.measure, cfg.stats_samples, cfg.stats_quantiles, rng,
        round_eps=cfg.round_eps, graph=cfg.graph,
    )
    target = cfg.out_dir / "stats.json"
    _write_all({target: report.to_json()})
    print(target)
    return 0


def _cmd_curve(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.is_file():
        raise ConfigError(f"trace file not found: {trace_path}")
    curve = error_curve(trace_from_csv(trace_path.read_text()))
    if args.out:
        _write_all({Path(args.out): curve})
        print(args.out)
    else:
        sys.stdout.write(curve)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="uqsubgrad",
        description="theta-dependent optimisation experiments (run / stats / curve)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.set_defaults(fn=_cmd_run)

    stats_p = sub.add_parser("stats", help="statistics report for a saved expansion")
    stats_p.add_argument("expansion")
    stats_p.add_argument("config")
    stats_p.add_argument("--seed", type=int, default=None)
    stats_p.add_argument("--out", default=None)
    stats_p.set_defaults(fn=_cmd_stats)

    curve_p = sub.add_parser("curve", help="emit the error curve for a trace")
    curve_p.add_argument("trace")
    curve_p.add_argument("--out", default=None)
    curve_p.set_defaults(fn=_cmd_curve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: one-line diagnostic, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
