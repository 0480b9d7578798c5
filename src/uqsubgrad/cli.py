"""Batch experiment runner: config loading, execution, statistics, reports.

Subcommands
-----------
``uqsubgrad run <config> [--seed N] [--out DIR]``
    Run the configured experiment; writes trace.csv, expansion.txt and
    stats.json into the output directory (atomically, temp + rename).
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


def _parse_m_schedule(text: str) -> Callable[[int], int]:
    """Schedule grammar:

    ``constant:M``                      m_j = M
    ``linear:start=A,step=B,cap=C``     m_j = min(A + B*(j-1), C)
    ``power:shift=S,exponent=P,offset=O``  m_j = round((j+S)**P + O)
    """
    kind, _, rest = text.partition(":")
    try:
        if kind == "constant":
            m = int(rest)
            return lambda j: m
        params = dict(kv.split("=") for kv in rest.split(",")) if rest else {}
        if kind == "linear":
            a, b_, c = int(params["start"]), int(params["step"]), int(params["cap"])
            return lambda j: min(a + b_ * (j - 1), c)
        if kind == "power":
            s, p_, o = float(params["shift"]), float(params["exponent"]), float(params["offset"])
            return lambda j: int(round((j + s) ** p_ + o))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"rsg.m_schedule: cannot parse {text!r} ({exc})") from exc
    raise ConfigError(f"rsg.m_schedule: unknown schedule kind {kind!r}")


FAMILIES = {"legendre": bs.legendre_family, "piecewise": bs.piecewise_family}


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
        if self.problem_kind == "quadratic":
            return quadratic_problem(self.mu, self.l_max, self.measure)
        return mincut_problem(self.graph, self.measure)

    def build_family(self) -> bs.BasisFamily:
        return FAMILIES[self.basis_kind](self.measure)

    def reference_values(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        if self.problem_kind == "mincut":
            return min_cut_value_function(self.graph)
        return None  # quadratic: the problem carries its closed-form optimum


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
        if not 0 < mu <= l_max:
            raise ConfigError("problem.mu: need 0 < mu <= l")
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
    if basis_kind not in FAMILIES:
        raise ConfigError(f"basis.kind: unknown basis {basis_kind!r}")

    sigma = _get(cp, "rsg", "noise_sigma", float, 0.0)
    _require(np.isfinite(sigma) and sigma >= 0, "rsg.noise_sigma", "must be finite and >= 0")
    noise = NoiseModel("additive_gaussian", sigma) if sigma > 0 else NoiseModel()
    theta_samples = _get(cp, "rsg", "theta_samples", int, 64)
    _require(theta_samples >= 1, "rsg.theta_samples", "must be >= 1")
    oracle = OracleConfig(theta_samples_per_call=theta_samples, noise=noise)
    seed = seed_override if seed_override is not None else _get(cp, "rsg", "seed", int, 0)
    initial_step = None
    if cp.has_option("rsg", "initial_step"):
        initial_step = _get(cp, "rsg", "initial_step", float)
        _require(np.isfinite(initial_step) and initial_step > 0, "rsg.initial_step",
                 "must be finite and > 0")
    try:
        rsg = RsgConfig(
            eps0=_get(cp, "rsg", "eps0", float),
            eps_target=_get(cp, "rsg", "eps_target", float),
            alpha=_get(cp, "rsg", "alpha", float),
            t=_get(cp, "rsg", "t", int),
            k_stages=_get(cp, "rsg", "k", int),
            outer_loops=_get(cp, "rsg", "outer_loops", int),
            m_schedule=_parse_m_schedule(_get(cp, "rsg", "m_schedule", str)),
            oracle=oracle,
            seed=seed,
            initial_step=initial_step,
        )
    except ValueError as exc:
        raise ConfigError(f"rsg: {exc}") from exc

    quants = _get(cp, "stats", "quantiles", str, "0.1,0.5,0.9")
    try:
        quantiles = tuple(float(q) for q in quants.split(",") if q.strip())
    except ValueError as exc:
        raise ConfigError(f"stats.quantiles: cannot parse {quants!r}") from exc
    if any(not 0 <= q <= 1 for q in quantiles):
        raise ConfigError("stats.quantiles: values must lie in [0, 1]")

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
    if cfg.problem_kind == "mincut" and cfg.basis_kind != "piecewise":
        raise ConfigError("basis.kind: the box-constrained cut problem needs the piecewise basis")
    if cfg.problem_kind == "quadratic" and cfg.basis_kind != "legendre":
        raise ConfigError("basis.kind: the ball-constrained quadratic needs the legendre basis")
    return cfg


def _check_expansion(e: bs.Expansion, cfg: ExperimentConfig):
    """ConfigError unless the expansion's kind, support and q fit the config."""
    kind = cfg.build_family().kind
    if e.basis.kind != kind:
        raise ConfigError(f"expansion kind: {e.basis.kind} does not match basis.kind ({kind})")
    support = (e.basis.measure.a, e.basis.measure.b)
    if support != (cfg.measure.a, cfg.measure.b):
        raise ConfigError(
            f"expansion support: {list(support)} does not match measure "
            f"[{cfg.measure.a!r}, {cfg.measure.b!r}]"
        )
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
    piecewise expansion)."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    nodes, weights = e.basis.rule()
    vals = bs.synthesize(e, nodes)
    mean = weights @ vals
    var = weights @ vals**2 - mean**2

    thetas = rng.uniform(measure.a, measure.b, size=n)
    samples = bs.synthesize(e, thetas)
    qs = {
        repr(float(q)): [float(v) for v in np.quantile(samples, q, axis=0)]
        for q in quantiles
    }

    freqs = None
    if graph is not None:
        rows, hits = e.basis.cut_rows(e.coefficients, samples, thetas)
        counts: dict[str, int] = {}
        ground = graph.ground_set
        for row, hit in zip(rows, hits):
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


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(cfg: ExperimentConfig) -> dict[str, Path]:
    """Run the configured experiment and write trace/expansion/stats artifacts.

    Deterministic for a fixed seed except for the wall-clock elapsed_ms trace
    column. Files are written atomically after the run completes.
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
    _atomic_write(out["trace"], trace_to_csv(trace))
    _atomic_write(out["expansion"], bs.expansion_to_text(final))
    _atomic_write(out["stats"], report.to_json())
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
    _atomic_write(target, report.to_json())
    print(target)
    return 0


def _cmd_curve(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.is_file():
        raise ConfigError(f"trace file not found: {trace_path}")
    curve = error_curve(trace_from_csv(trace_path.read_text()))
    if args.out:
        _atomic_write(Path(args.out), curve)
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
