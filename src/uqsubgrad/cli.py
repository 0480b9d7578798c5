"""Batch experiment runner: config loading, execution, statistics, reports.

Subcommands
-----------
``uqsubgrad run <config> [--seed N] [--out DIR]``
    Run the configured experiment; writes trace.csv, expansion.txt and
    stats.json into the output directory, all three or none (temp + rename,
    rolled back on a failure).
``uqsubgrad stats <expansion-file> <config> [--out DIR]``
    Recompute the statistics report for a saved expansion.

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
from .rsg import RsgConfig, ZeroProbeError, restarted_outer, stage_count, trace_to_csv
from .submodular import CutGraph, min_cut_value_function, parse_cut_graph, threshold_round


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# -- Config parsing -------------------------------------------------------------


_SCHEDULE_KEYS = {"linear": ["cap", "start", "step"], "power": ["exponent", "offset", "shift"]}


def _parse_m_schedule(text: str) -> Callable[[int], int]:
    """Schedule grammar:

    ``constant:M``                      m_j = M
    ``linear:start=A,step=B,cap=C``     m_j = min(A + B*(j-1), C)
    ``power:shift=S,exponent=P,offset=O``  m_j = round((j+S)**P + O), S > -1

    Raises ValueError, saying why, for any other text.
    """
    kind, _, rest = text.partition(":")
    if kind == "constant":
        m = int(rest)
        return lambda j: m
    if kind not in _SCHEDULE_KEYS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    pairs = [kv.split("=") for kv in rest.split(",")]
    if sorted(key for key, _ in pairs) != _SCHEDULE_KEYS[kind]:
        raise ValueError(f"{kind} takes each of the keys {', '.join(_SCHEDULE_KEYS[kind])} once")
    params = dict(pairs)
    if kind == "linear":
        a, b_, c = int(params["start"]), int(params["step"]), int(params["cap"])
        return lambda j: min(a + b_ * (j - 1), c)
    s, p_, o = float(params["shift"]), float(params["exponent"]), float(params["offset"])
    if not (np.isfinite([s, p_, o]).all() and s > -1):
        raise ValueError("power needs finite values and shift > -1")
    return lambda j: int(round((j + s) ** p_ + o))


FAMILIES = {"legendre": bs.legendre_family, "piecewise": bs.piecewise_family}

# The Gauss-Legendre rule takes four Newton steps of an n-term recurrence on
# n / 2 nodes: 1024 nodes take about 14 ms and 40 kB, 5000 nodes 0.15 s and
# 180 kB.
MAX_QUADRATURE_NODES = 1024

# RsgConfig evaluates the schedule once per stage when the config loads, and
# outer_loops * k is that stage count: 2 * 10**6 stages take 1.1 s and 64 MB.
# The demos run 200.
MAX_STAGES = 100_000

# A stage draws t * theta_samples rule-node indices at once and holds them with
# the design gathered at their nodes, (t, theta_samples, m) doubles for a
# Legendre basis, and with noise on their (t, theta_samples, q) noise: the cap
# on t * theta_samples * (m + 1), plus q with noise on, is 128 MB.
# The draw is not chunked, since that would change the seeded noise stream.
MAX_STAGE_DOUBLES = 2**24

# compute_statistics holds its atoms' values, weights and sort order: at m = 32
# and q = 2, 10**6 atoms take 1.1-1.5 s and 56 MB (tracemalloc), 4 * 10**6
# take 4.4-5.1 s and 224 MB. A piecewise expansion does not use the count.
MAX_STATS_SAMPLES = 10**6

REQUIRED = object()  # the FIELDS default of a key every config must set
_ANY = ("", lambda v: True)
_AT_LEAST_1 = ("must be >= 1", lambda v: v >= 1)
_POSITIVE = ("must be > 0", lambda v: v > 0)

# section.key -> (parser of the value text; the default text, REQUIRED, or None
# for an optional key that stays unset; (rule, test) the parsed value must
# pass). These are the only legal keys, and _field reads each one through its
# row after requiring every float in the parsed value to be finite.
FIELDS = {
    "problem.kind": (str, REQUIRED, ("must be quadratic or mincut:<edge-list path>",
                                     lambda v: v == "quadratic" or v.startswith("mincut:"))),
    "problem.mu": (float, "1.0", _ANY),
    "problem.l": (float, "50.0", _ANY),
    "measure.a": (float, REQUIRED, _ANY),
    "measure.b": (float, REQUIRED, _ANY),
    "measure.quadrature_nodes": (int, "128", (f"must lie in [1, {MAX_QUADRATURE_NODES}]",
                                              lambda v: 1 <= v <= MAX_QUADRATURE_NODES)),
    "basis.kind": (str, REQUIRED, (f"must be {' or '.join(FAMILIES)}", lambda v: v in FAMILIES)),
    "rsg.eps0": (float, REQUIRED, _ANY),
    "rsg.eps_target": (float, REQUIRED, _POSITIVE),
    "rsg.alpha": (float, REQUIRED, ("must be > 1", lambda v: v > 1)),
    "rsg.t": (int, REQUIRED, _AT_LEAST_1),
    "rsg.k": (int, None, _AT_LEAST_1),
    "rsg.outer_loops": (int, REQUIRED, _AT_LEAST_1),
    "rsg.m_schedule": (_parse_m_schedule, REQUIRED, _ANY),
    "rsg.theta_samples": (int, "64", _AT_LEAST_1),
    "rsg.noise_sigma": (float, "0.0", ("must be >= 0", lambda v: v >= 0)),
    "rsg.seed": (int, "0", ("must be >= 0", lambda v: v >= 0)),
    "rsg.initial_step": (float, None, _POSITIVE),
    "stats.samples": (int, "10000", (f"must lie in [1, {MAX_STATS_SAMPLES}]",
                                     lambda v: 1 <= v <= MAX_STATS_SAMPLES)),
    "stats.quantiles": (lambda text: tuple(float(q) for q in text.split(",")), "0.1,0.5,0.9",
                        ("needs values in [0, 1], none repeated",
                         lambda v: all(0 <= q <= 1 for q in v) and len(set(v)) == len(v))),
    "stats.round_eps": (float, "0.1", ("must lie in (0, 1)", lambda v: 0 < v < 1)),
    "output.directory": (str, "out", _ANY),
}


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
    dimension: int  # the problem's q, known without building the problem
    mu: float = 1.0
    l_max: float = 50.0
    graph: Optional[CutGraph] = None

    def build_problem(self) -> ProblemSpec:
        return PROBLEMS[self.problem_kind][1](self)

    def build_family(self) -> bs.BasisFamily:
        return FAMILIES[self.basis_kind](self.measure)

    def statistics(self, e: bs.Expansion) -> StatsReport:
        return compute_statistics(e, self.stats_samples, self.stats_quantiles,
                                  round_eps=self.round_eps, graph=self.graph)


def _require(ok: bool, field: str, rule: str):
    if not ok:
        raise ConfigError(f"{field}: {rule}")


def _field(cp: configparser.ConfigParser, name: str, value=None):
    """The value of ``name`` (``section.key``) through its FIELDS row: parsed
    from the config, or ``value`` when given; every float finite; the rule met."""
    parse, default, (rule, test) = FIELDS[name]
    if value is None:
        raw = cp.get(*name.split("."), fallback=default)
        if raw is REQUIRED:
            raise ConfigError(f"{name}: missing required field")
        if raw is None:
            return None
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{name}: cannot parse {raw!r} ({exc})") from exc
    floats = [v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, float)]
    _require(np.isfinite(floats).all(), name, "must be finite")
    _require(test(value), name, rule)
    return value


def load_config(path: Path, seed_override: Optional[int] = None,
                out_override: Optional[Path] = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    for section in cp.sections():
        for key in cp.options(section):
            _require(f"{section}.{key}" in FIELDS, f"{section}.{key}", "unknown key")
        _require(any(name.startswith(f"{section}.") for name in FIELDS), section, "unknown section")

    a, b = _field(cp, "measure.a"), _field(cp, "measure.b")
    _require(0 < b - a < np.inf, "measure.b", "need a < b and a finite b - a")
    measure = ThetaMeasure(a, b, quadrature_nodes=_field(cp, "measure.quadrature_nodes"))
    kind, graph = _field(cp, "problem.kind"), None
    mu, l_max = _field(cp, "problem.mu"), _field(cp, "problem.l")
    _require(0 < mu <= l_max, "problem.mu", "need 0 < mu <= l")
    if kind != "quadratic":
        edge_path = path.parent / kind[len("mincut:"):]
        try:
            _require(edge_path.is_file(), "problem.kind", f"edge list not found: {edge_path}")
            graph = parse_cut_graph(edge_path.read_text(), (a, b))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"problem.kind: bad edge list: {exc}") from exc
        kind = "mincut"
        _require(graph.ground_set, "problem.kind",
                 "the edge list has no node besides the source and the sink")
    basis_kind = _field(cp, "basis.kind")
    projection = PROBLEMS[kind][0]
    paired = [name for name, f in FAMILIES.items() if f.projection == projection]
    _require(basis_kind in paired, "basis.kind",
             f"the {kind} problem's {projection} projection needs the {' or '.join(paired)} basis")

    eps0, eps_target = _field(cp, "rsg.eps0"), _field(cp, "rsg.eps_target")
    _require(eps0 > eps_target, "rsg.eps0", "must exceed rsg.eps_target")
    alpha, k, loops = _field(cp, "rsg.alpha"), _field(cp, "rsg.k"), _field(cp, "rsg.outer_loops")
    if k is None:  # the stages that take eps0 down to eps_target
        try:
            k = _field(cp, "rsg.k", stage_count(eps0, eps_target, alpha))
        except OverflowError as exc:
            raise ConfigError(f"rsg.k: cannot derive it from eps0 / eps_target ({exc})") from exc
    _require(loops * k <= MAX_STAGES, "rsg.outer_loops",
             f"outer_loops * k = {loops * k} stages, above the cap of {MAX_STAGES}")
    sigma, q = _field(cp, "rsg.noise_sigma"), 2 if graph is None else len(graph.ground_set)
    _require(np.isfinite(sigma * sigma * q), "rsg.noise_sigma",
             f"the noise variance sigma^2 * q overflows at q = {q}")
    noise = NoiseModel("additive_gaussian", sigma) if sigma > 0 else NoiseModel()
    oracle = OracleConfig(theta_samples_per_call=_field(cp, "rsg.theta_samples"), noise=noise)
    schedule, t = _field(cp, "rsg.m_schedule"), _field(cp, "rsg.t")
    seed, step = _field(cp, "rsg.seed", seed_override), _field(cp, "rsg.initial_step")
    try:
        rsg = RsgConfig(eps0=eps0, eps_target=eps_target, alpha=alpha, t=t, k_stages=k,
                        outer_loops=loops, m_schedule=schedule, oracle=oracle, seed=seed,
                        initial_step=step)
    except ArithmeticError as exc:
        raise ConfigError(f"rsg.m_schedule: the schedule overflows ({exc})") from exc
    except ValueError as exc:  # the table leaves only the schedule's own checks
        raise ConfigError(f"rsg.m_schedule: {exc}") from exc
    top = schedule(loops * k)  # the largest m, as RsgConfig found the schedule monotone
    limit = FAMILIES[basis_kind](measure).max_level
    _require(top <= limit, "rsg.m_schedule",
             f"reaches m={top}, above the {basis_kind} basis's largest level {limit}")
    noise_q = q if sigma > 0 else 0  # noise doubles per draw
    block = t * oracle.theta_samples_per_call * (top + 1 + noise_q)
    _require(block <= MAX_STAGE_DOUBLES, "rsg.t", f"t * theta_samples * (m + 1 + {noise_q}) = "
             f"{block} doubles at m={top}, q={q}, above the stage cap of {MAX_STAGE_DOUBLES}")

    out_dir = path.parent / _field(cp, "output.directory")
    if out_override is not None:
        out_dir = Path(out_override)  # shell-relative, as the flag suggests
    return ExperimentConfig(
        problem_kind=kind, measure=measure, basis_kind=basis_kind, rsg=rsg, dimension=q,
        stats_samples=_field(cp, "stats.samples"), stats_quantiles=_field(cp, "stats.quantiles"),
        round_eps=_field(cp, "stats.round_eps"), out_dir=out_dir, mu=mu, l_max=l_max, graph=graph,
    )


def _check_expansion(e: bs.Expansion, cfg: ExperimentConfig):
    """ConfigError unless the expansion's kind, support, rule, m and q fit the config."""
    family = cfg.build_family()
    _require(e.basis.kind == family.kind, "expansion kind",
             f"{e.basis.kind} does not match basis.kind ({family.kind})")
    support = (e.basis.measure.a, e.basis.measure.b)
    if support != (cfg.measure.a, cfg.measure.b):
        raise ConfigError(
            f"expansion support: {list(support)} does not match measure "
            f"[{cfg.measure.a!r}, {cfg.measure.b!r}]"
        )
    nodes, expected = e.basis.measure.quadrature_nodes, cfg.measure.quadrature_nodes
    _require(nodes == expected, "expansion quadrature_nodes",
             f"{nodes} does not match measure.quadrature_nodes ({expected})")
    limit = family.max_level
    _require(e.m <= limit, "expansion shape", f"{e.m} rows, above the basis's largest level {limit}")
    _require(e.q == cfg.dimension, "expansion q",
             f"{e.q} does not match the problem dimension {cfg.dimension}")


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
    n: int,
    quantiles: tuple[float, ...],
    round_eps: float = 0.1,
    graph: Optional[CutGraph] = None,
) -> StatsReport:
    """Mean/variance by deterministic quadrature of the synthesized expansion;
    quantiles and, for cut problems, the threshold-rounded cut frequencies
    from the family's weighted atoms (``atoms(e, n)``). Quantile p of a
    component is the smallest atom value whose cumulative weight, in stable
    sorted order, reaches p times the total weight; a NaN atom makes every
    quantile of its component NaN."""
    if n < 1:
        raise ValueError("need n >= 1 atoms")
    nodes, weights = e.basis.rule()
    vals = bs.synthesize(e, nodes)
    mean = weights @ vals
    var = weights @ vals**2 - mean**2

    values, mass = e.basis.atoms(e, n)
    columns = []
    for j in range(e.q):
        order = np.argsort(values[:, j], kind="stable")
        cum = np.cumsum(mass[order])
        col = values[order[np.searchsorted(cum, [p * cum[-1] for p in quantiles])], j]
        if np.isnan(values[order[-1], j]):  # argsort puts a NaN last
            col[:] = np.nan
        columns.append(col)
    qs = {repr(float(q)): [float(col[i]) for col in columns] for i, q in enumerate(quantiles)}

    freqs = None
    if graph is not None:
        freqs, ground = {}, graph.ground_set
        for row, w in zip(values, mass):
            members = threshold_round(row, round_eps, ground)
            key = ",".join(g for g in ground if g in members) or "{}"
            freqs[key] = freqs.get(key, 0.0) + float(w)
        freqs = dict(sorted(freqs.items()))

    return StatsReport(
        mean=[float(v) for v in mean],
        variance=[float(max(v, 0.0)) for v in var],
        quantiles=qs,
        cut_frequencies=freqs,
    )


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
    problem, rsg = cfg.build_problem(), cfg.rsg
    family, reference = cfg.build_family(), PROBLEMS[cfg.problem_kind][2](cfg)
    try:
        final, trace = restarted_outer(problem, rsg, family, reference_values=reference)
    except ZeroProbeError as exc:
        raise ConfigError(f"rsg.initial_step: needed here, as {exc}") from exc
    report = cfg.statistics(final)
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
    cfg = load_config(Path(args.config), out_override=Path(args.out) if args.out else None)
    exp_path = Path(args.expansion)
    if not exp_path.is_file():
        raise ConfigError(f"expansion file not found: {exp_path}")
    try:
        e = bs.expansion_from_text(exp_path.read_text())
    except ValueError as exc:
        raise ConfigError(f"expansion: {exc}") from exc
    _check_expansion(e, cfg)
    target = cfg.out_dir / "stats.json"
    _write_all({target: cfg.statistics(e).to_json()})
    print(target)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="uqsubgrad",
        description="theta-dependent optimisation experiments (run / stats)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(fn=_cmd_run)

    stats_p = sub.add_parser("stats", help="statistics report for a saved expansion")
    stats_p.add_argument("expansion")
    stats_p.add_argument("config")
    stats_p.set_defaults(fn=_cmd_stats)
    for p in (run_p, stats_p):
        p.add_argument("--out", default=None)

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
