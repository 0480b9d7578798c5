"""Restarted subgradient descent over basis coefficients.

Three nested loops:

* :func:`sg_subroutine` - T projected subgradient steps at a constant step
  size, returning the average of the iterates (computed in coefficient space,
  which equals the function-space average by linearity of synthesis). The
  stage draws all its thetas and noise at once and evaluates the basis on
  them once; only the iterate changes from step to step, and the stage's
  average is checked to be finite and feasible.
* :func:`rsg_loop` - K stages with geometrically decaying steps
  (eta_1 = eps0 / (alpha (G^2 + V^2)), eta_{k+1} = eta_k / alpha), each stage
  warm-started from the previous stage's average.
* :func:`restarted_outer` - outer restarts over a growing basis schedule;
  piecewise families grow by sampled cell splits that preserve the synthesized
  function, polynomial families grow by zero-padding new coefficients. Its
  derived first step also fits the stage length (:func:`first_step`).

Every stage appends one row to a :class:`RunTrace`; rows serialize to CSV with
the documented 8-column header, ``TRACE_COLUMNS``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import basis as bs
from .oracle import GVEstimate, OracleConfig, ThetaBlock, estimate_G_V
from .problems import (
    ProblemSpec,
    farthest_feasible_distance,
    is_feasible,
    objective_gap_norm,
    project,
    project_coefficients,
    random_feasible_like,
)

STAGNATION_RTOL = 1e-4  # an outer loop improving the error by less ends the run


@dataclass(frozen=True)
class RsgConfig:
    """All loop parameters of the restarted scheme.

    ``m_schedule`` maps the global stage index j = 1, 2, ... (counting every
    stage across all outer loops) to the basis size for that stage; it must be
    monotone nondecreasing. ``initial_step`` overrides the derived
    eta_1 of :func:`first_step` when given.
    """

    eps0: float
    eps_target: float
    alpha: float
    t: int
    k_stages: int
    outer_loops: int
    m_schedule: Callable[[int], int]
    oracle: OracleConfig = field(default_factory=OracleConfig)
    seed: int = 0
    initial_step: Optional[float] = None

    def __post_init__(self):
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if not self.eps0 > self.eps_target > 0:
            raise ValueError("need eps0 > eps_target > 0")
        if self.t < 1 or self.k_stages < 1 or self.outer_loops < 1:
            raise ValueError("t, K and outer_loops must be >= 1")
        total = self.outer_loops * self.k_stages
        ms = [self.m_schedule(j) for j in range(1, total + 1)]
        if any(m2 < m1 for m1, m2 in zip(ms, ms[1:])):
            raise ValueError("m_schedule must be monotone nondecreasing")
        if any(m < 1 for m in ms):
            raise ValueError("m_schedule must stay >= 1")


class ZeroProbeError(ValueError):
    """The G^2/V^2 probe read no subgradient, so it cannot set a first step."""


@dataclass
class TraceRow:
    call_index: int
    outer_i: int
    stage_k: int
    m: int
    eta: float
    fn_error_pi: float
    fn_error_pi_sq: float
    elapsed_ms: float
    coeff_hash: str = ""


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow) if f.name != "coeff_hash")


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)


def coefficient_hash(e: bs.Expansion) -> str:
    h = hashlib.sha256()
    h.update(str(e.coefficients.shape).encode())
    h.update(np.ascontiguousarray(e.coefficients).tobytes())
    return h.hexdigest()[:16]


def trace_to_csv(trace: RunTrace) -> str:
    rows = [TRACE_COLUMNS] + [[str(getattr(r, c)) for c in TRACE_COLUMNS] for r in trace.rows]
    return "\n".join(",".join(row) for row in rows) + "\n"


# -- Algorithm layers ---------------------------------------------------------


def sg_subroutine(
    p: ProblemSpec,
    start: bs.Expansion,
    eta: float,
    T: int,
    m: int,
    cfg: OracleConfig,
    rng: np.random.Generator,
    *,
    where: str = "sg_subroutine",
) -> bs.Expansion:
    """T projected steps u <- Pi(u - eta g'_m), returning the iterate average.

    The stage draws its T x n thetas and their noise as one
    :class:`ThetaBlock` and evaluates the basis on them once; the steps then
    run on plain coefficient arrays and only the average becomes an
    Expansion. The average of feasible iterates already lies in the (convex)
    feasible set; one final projection is applied anyway as a float-safety
    clamp. A non-finite or infeasible average raises ValueError prefixed with
    ``where``.
    """
    if eta <= 0 or T < 1:
        raise ValueError("need eta > 0 and T >= 1")
    if m != start.m:
        raise ValueError("sg_subroutine runs at the expansion's own level m")
    proj = p.projection
    block = ThetaBlock.draw(p, start, T, cfg, rng)
    anchor = project_coefficients(np.array(start.coefficients, copy=True), proj)
    u = anchor
    # averaging anchored at the start point: exact fixed point when the
    # subgradient estimates vanish, and no cancellation near convergence
    acc = np.zeros_like(anchor)
    with np.errstate(over="ignore"):  # an overflowing ball norm takes its own branch
        for t in range(T):
            u = project_coefficients(u - eta * block.estimate(t, u, m), proj)
            acc += u - anchor
    avg = project_coefficients(anchor + acc / T, proj)
    if not np.all(np.isfinite(avg)):
        raise ValueError(f"{where}: the stage average has non-finite coefficients")
    e = bs.Expansion(avg, start.basis)
    if not is_feasible(e, proj):
        raise ValueError(f"{where}: the stage average is infeasible")
    return e


def grow_expansion(
    e: bs.Expansion, target_m: int, rng: np.random.Generator
) -> bs.Expansion:
    """Raise the basis size to ``target_m`` without changing the function."""
    return e.basis.grow(e, target_m, rng)


def rsg_loop(
    p: ProblemSpec,
    start: bs.Expansion,
    K: int,
    t: int,
    alpha: float,
    eps0: float,
    m_schedule: Sequence[int],
    cfg: OracleConfig,
    rng: np.random.Generator,
    gv: Optional[GVEstimate] = None,
    initial_step: Optional[float] = None,
    trace: Optional[RunTrace] = None,
    outer_i: int = 1,
    error_fn: Optional[Callable[[bs.Expansion], float]] = None,
    on_stage: Optional[Callable[[bs.Expansion, TraceRow], None]] = None,
) -> bs.Expansion:
    """One restart cycle: K stages of sg_subroutine with eta_{k+1} = eta_k / alpha.

    ``m_schedule`` gives the basis size per stage (length >= K); each increase
    happens before the stage's first gradient step. Stage outputs warm-start
    the next stage. A row per stage is appended to ``trace`` when given.
    """
    if len(m_schedule) < K:
        raise ValueError("m_schedule slice shorter than K")
    if initial_step is not None:
        eta = float(initial_step)
    else:
        if gv is None:
            raise ValueError("need a GVEstimate when no explicit initial step is given")
        eta = first_step(gv, eps0, alpha, t)
    e = start
    for k in range(1, K + 1):
        e = grow_expansion(e, m_schedule[k - 1], rng)
        tic = time.perf_counter()
        e = sg_subroutine(
            p, e, eta, t, e.m, cfg, rng, where=f"outer loop {outer_i}, stage {k}"
        )
        elapsed_ms = (time.perf_counter() - tic) * 1e3
        if trace is not None:
            err = float("nan") if error_fn is None else error_fn(e)
            row = TraceRow(call_index=len(trace.rows) + 1, outer_i=outer_i, stage_k=k, m=e.m,
                           eta=eta, fn_error_pi=err, fn_error_pi_sq=err * err,
                           elapsed_ms=elapsed_ms, coeff_hash=coefficient_hash(e))
            trace.rows.append(row)
            if on_stage is not None:
                on_stage(e, row)
        eta = eta / alpha
    return e


def restarted_outer(
    p: ProblemSpec,
    cfg: RsgConfig,
    family: bs.BasisFamily,
    start: Optional[bs.Expansion] = None,
    reference_values: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    on_stage: Optional[Callable[[bs.Expansion, TraceRow], None]] = None,
) -> tuple[bs.Expansion, RunTrace]:
    """Outer restart loop over the growing m-schedule.

    Terminates when the configured number of outer loops is exhausted or when
    the recorded error stagnates (relative improvement below
    ``STAGNATION_RTOL`` across one outer loop). The trace error columns hold
    each stage's :func:`objective_gap_norm` against ``reference_values``, or
    the problem's own f* when none is given, and NaN when neither is.
    """
    rng = np.random.default_rng(cfg.seed)
    if start is None:
        start = bs.zero_expansion(family, cfg.m_schedule(1), p.dimension)
    start = project(grow_expansion(start, cfg.m_schedule(1), rng), p.projection)

    step = cfg.initial_step
    if step is None:
        probes = [start] + [random_feasible_like(start, p.projection, rng) for _ in range(2)]
        gv = estimate_G_V(p, probes, cfg.oracle, rng)
        D = farthest_feasible_distance(start, p.projection)
        step = first_step(gv, cfg.eps0, cfg.alpha, cfg.t, D)

    ref = reference_values or p.reference_values
    error_fn = None if ref is None else lambda e: objective_gap_norm(p, e, ref)

    trace = RunTrace()
    e = start
    prev_err = None
    for i in range(1, cfg.outer_loops + 1):
        lo = (i - 1) * cfg.k_stages + 1
        m_slice = [cfg.m_schedule(j) for j in range(lo, lo + cfg.k_stages)]
        e = rsg_loop(
            p, e, cfg.k_stages, cfg.t, cfg.alpha, cfg.eps0, m_slice,
            cfg.oracle, rng, initial_step=step,
            trace=trace, outer_i=i, error_fn=error_fn, on_stage=on_stage,
        )
        if error_fn is not None:
            err = trace.rows[-1].fn_error_pi
            if (
                prev_err is not None
                and prev_err > 0
                and (prev_err - err) / prev_err < STAGNATION_RTOL
            ):
                break
            prev_err = err
    return e, trace


# -- Theory-derived parameters and diagnostics ---------------------------------


def first_step(
    gv: GVEstimate, eps0: float, alpha: float, t: int, D: Optional[float] = None
) -> float:
    """eta_1 = eps0 / (alpha (G^2+V^2)), the paper's, or D / sqrt((G^2+V^2) t)
    when the start lies within distance D of every feasible point and that is
    larger: t steps eta from distance D bound the first stage's gap by
    D^2 / (2 eta t) + eta (G^2+V^2) / 2, which is convex in eta with its
    minimum at the second step. Raises ZeroProbeError when G^2 + V^2 is 0."""
    if gv.total <= 0:
        raise ZeroProbeError(f"the G^2/V^2 probe read {gv.total!r}, so no first step follows from it")
    step = eps0 / (alpha * gv.total)
    return step if D is None else max(step, D / math.sqrt(gv.total * t))


def stage_count(eps0: float, eps: float, alpha: float) -> int:
    """K = ceil(log_alpha(eps0 / eps)): the stages that take eps0 down to eps."""
    return math.ceil(math.log(eps0 / eps) / math.log(alpha) - 1e-12)


def derive_stage_params(
    eps0: float,
    eps: float,
    alpha: float,
    G_sq: float,
    V_sq: float,
    rho_or_B: float,
    mode: str = "rho",
) -> tuple[int, int]:
    """Stage count and length from the convergence theory.

    K = ceil(log_alpha(eps0 / eps)); t = ceil(alpha^2 (G^2+V^2) / rho^2) where
    rho is given directly (mode "rho"), derived as eps / B from the level-set
    distance bound (mode "B_eps"), or equals the polyhedral constant kappa
    (mode "kappa").
    """
    if min(eps0, eps, G_sq + V_sq, rho_or_B) <= 0 or alpha <= 1 or eps0 <= eps:
        raise ValueError("inputs must be positive with alpha > 1 and eps0 > eps")
    if mode == "rho" or mode == "kappa":
        rho = rho_or_B
    elif mode == "B_eps":
        rho = eps / rho_or_B
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    K = stage_count(eps0, eps, alpha)
    t = math.ceil(alpha**2 * (G_sq + V_sq) / rho**2 - 1e-12)
    return t, K


def measure_remainder_gap(
    p: ProblemSpec,
    e_m_opt: bs.Expansion,
    reference: Callable[[np.ndarray], np.ndarray],
    m: int,
) -> tuple[float, float]:
    """Both sides of the remainder bound at level m.

    lhs: pi-norm of the objective gap between the found level-m optimum and
    the reference optimum. rhs: lipschitz * tail norm of the reference beyond
    level m. The bound asserts lhs <= rhs (up to test tolerance).
    """
    ref_values = lambda th: p.objective(reference(th), th)
    lhs = objective_gap_norm(p, e_m_opt, ref_values)
    rhs = p.lipschitz * e_m_opt.basis.reference_tail_norm(reference, m)
    return lhs, rhs
