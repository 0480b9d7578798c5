import dataclasses
import math

import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad.oracle import GVEstimate
from uqsubgrad import rsg
from uqsubgrad.rsg import ZeroProbeError, grow_expansion
from uqsubgrad.submodular import min_cut_value_function, random_cut_graph

from oracles import gap_norm_uncached, trace_rows


def zero_subgradient_problem(q=2):
    return uq.ProblemSpec(
        dimension=q,
        objective=lambda x, t: np.ones(np.shape(t)),
        subgradient=lambda x, t, noise=None: np.zeros(np.shape(x)),
        projection=uq.no_projection(),
        lipschitz=0.0,
    )


def scalar_quadratic_problem(target=1.0, sigma=0.5, box=2.0):
    """f(x, theta) = (x - target)^2, theta-free; the 1-d sandbox for the
    constant-step bound."""

    def objective(x, theta):
        return (np.asarray(x, float)[..., 0] - target) ** 2

    def subgradient(x, theta, noise=None):
        g = 2.0 * (np.asarray(x, float) - target)
        return g if noise is None else g + noise

    return uq.ProblemSpec(
        dimension=1,
        objective=objective,
        subgradient=subgradient,
        projection=uq.per_cell_box(-box, box),
        lipschitz=2.0 * (box + abs(target)),
    ), uq.NoiseModel("additive_gaussian", sigma)


# -- parameter derivation -------------------------------------------------------


def test_derive_stage_params_examples():
    t, K = uq.derive_stage_params(1.0, 0.01, 2.0, 2.0, 2.0, 1.0, mode="rho")
    assert K == 7  # ceil(log2 100)
    assert t == 16  # ceil(4 * 4 / 1)
    # quadratic recipe: B = 2 eps / sqrt(L) gives rho = sqrt(L)/2
    L = 50.0
    eps = 0.05
    t2, K2 = uq.derive_stage_params(1.0, eps, 2.0, 3.0, 1.0, 2 * eps / np.sqrt(L), mode="B_eps")
    assert t2 == int(np.ceil(4.0 * 4.0 * 4.0 / L))
    assert K2 == int(np.ceil(np.log2(1.0 / eps)))
    with pytest.raises(ValueError):
        uq.derive_stage_params(1.0, 0.1, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        uq.derive_stage_params(1.0, 0.1, 2.0, 1.0, 0.0, 1.0, mode="banana")


def test_eta_schedule_direct_substitution(unit_measure):
    # eps0 = 1, alpha = 2, G^2 + V^2 = 4 -> eta = 0.125, 0.0625, 0.03125
    p = zero_subgradient_problem()
    fam = uq.legendre_family(unit_measure)
    start = bs.zero_expansion(fam, 2, 2)
    trace = uq.RunTrace()
    uq.rsg_loop(
        p, start, K=3, t=1, alpha=2.0, eps0=1.0, m_schedule=[2, 2, 2],
        cfg=uq.OracleConfig(1), rng=np.random.default_rng(0),
        gv=GVEstimate(4.0, 0.0), trace=trace,
    )
    assert [r.eta for r in trace.rows] == [0.125, 0.0625, 0.03125]


# -- the derived first step --------------------------------------------------------


def first_eta(p, start, monkeypatch, gv, t=5, **overrides):
    """The eta of the first stage of a one-stage restarted run from ``start``,
    with the G^2/V^2 probe reading ``gv`` (None: the probe must not run)."""
    def probe(*args):
        assert gv is not None, "the probe must not run"
        return gv

    monkeypatch.setattr(rsg, "estimate_G_V", probe)
    cfg = uq.RsgConfig(**{
        "eps0": 16.0, "eps_target": 0.01, "alpha": 1.5, "t": t, "k_stages": 1,
        "outer_loops": 1, "m_schedule": lambda j: start.m, "oracle": uq.OracleConfig(4),
        "seed": 3, **overrides,
    })
    _, trace = uq.restarted_outer(p, cfg, start.basis, start=start)
    return trace.rows[0].eta


def paper_and_fitted_steps(total, D, t=5, eps0=16.0, alpha=1.5):
    return eps0 / (alpha * total), D / math.sqrt(total * t)


@pytest.mark.parametrize("total, fitted_wins", [(10.0, False), (1000.0, True)])
def test_first_step_from_a_ball_start_is_the_larger_of_the_two_steps(
    quad_problem, quad_measure, monkeypatch, total, fitted_wins
):
    # a start outside the ball: D is measured from its projection
    fam = uq.legendre_family(quad_measure)
    start = bs.Expansion(np.random.default_rng(5).standard_normal((4, 2)), fam)
    ball = quad_problem.projection
    u1 = uq.problems.project_coefficients(start.coefficients, ball)
    assert not np.array_equal(u1, start.coefficients)
    D = float(np.linalg.norm(u1)) + ball.radius
    paper, fitted = paper_and_fitted_steps(total, D)
    assert (fitted > paper) == fitted_wins
    assert first_eta(quad_problem, start, monkeypatch, GVEstimate(total, 0.0)) == max(paper, fitted)


@pytest.mark.parametrize("total, fitted_wins", [(2.0, False), (500.0, True)])
def test_first_step_from_a_box_start_is_the_larger_of_the_two_steps(
    cut_measure, monkeypatch, total, fitted_wins
):
    # some entries outside the box [0, 1]: D is the pi-norm of the offsets
    # to the farthest corner of the clipped start, cell by cell
    rng = np.random.default_rng(6)
    p = uq.mincut_problem(random_cut_graph(rng, 5), cut_measure)
    part = uq.Partition((0.5, 1.7, 3.2))
    start = bs.Expansion(rng.uniform(-0.3, 1.3, size=(4, 5)), uq.piecewise_family(cut_measure, part))
    box = p.projection
    u1 = np.clip(start.coefficients, box.lo, box.hi)
    assert not np.array_equal(u1, start.coefficients)
    offsets = np.maximum(u1 - box.lo, box.hi - u1)
    D = float(np.sqrt(np.sum(bs.cell_measures(part, cut_measure)[:, None] * offsets**2)))
    paper, fitted = paper_and_fitted_steps(total, D)
    assert (fitted > paper) == fitted_wins
    assert first_eta(p, start, monkeypatch, GVEstimate(total, 0.0)) == max(paper, fitted)


def test_first_step_set_in_the_config_is_used_as_given(quad_problem, quad_measure, monkeypatch):
    start = bs.zero_expansion(uq.legendre_family(quad_measure), 4, 2)
    assert first_eta(quad_problem, start, monkeypatch, None, initial_step=0.037) == 0.037


def test_first_step_without_projection_is_the_papers(unit_measure, monkeypatch):
    # no feasible set, no distance D: eps0 / (alpha (G^2 + V^2)) however large G^2 is
    start = bs.zero_expansion(uq.legendre_family(unit_measure), 3, 2)
    p = zero_subgradient_problem()
    for total in (0.5, 1e6):
        eta = first_eta(p, start, monkeypatch, GVEstimate(total, 0.0), t=50)
        assert eta == paper_and_fitted_steps(total, 1.0)[0]


def test_zero_probe_stops_before_any_stage(unit_measure):
    start = bs.zero_expansion(uq.legendre_family(unit_measure), 3, 2)
    cfg = uq.RsgConfig(
        eps0=1.0, eps_target=0.01, alpha=2.0, t=3, k_stages=2, outer_loops=2,
        m_schedule=lambda j: 3, oracle=uq.OracleConfig(4), seed=0,
    )
    stages = []
    with pytest.raises(ZeroProbeError, match="G\\^2/V\\^2 probe read 0.0"):
        uq.restarted_outer(zero_subgradient_problem(), cfg, start.basis, start=start,
                           on_stage=lambda e, row: stages.append(row))
    assert stages == []


# -- subroutine behaviour ----------------------------------------------------------


def test_sg_fixed_point_at_zero_subgradient(unit_measure):
    p = zero_subgradient_problem()
    fam = uq.legendre_family(unit_measure)
    start = bs.Expansion(np.array([[0.3, -0.7], [1.0, 0.25]]), fam)
    out = uq.sg_subroutine(p, start, 0.05, 40, 2, uq.OracleConfig(4), np.random.default_rng(1))
    assert np.array_equal(out.coefficients, start.coefficients)


def test_sg_single_step_degenerate_average(unit_measure):
    # T = 1: the averaged output is exactly one projected step
    c = np.array([1.5, -2.0])
    p = uq.ProblemSpec(
        dimension=2,
        objective=lambda x, t: np.zeros(np.shape(t)),
        subgradient=lambda x, t, noise=None: np.broadcast_to(c, np.shape(x)).copy(),
        projection=uq.no_projection(),
        lipschitz=float(np.linalg.norm(c)),
    )
    fam = uq.legendre_family(unit_measure)
    start = bs.zero_expansion(fam, 3, 2)
    cfg = uq.OracleConfig(16)
    out = uq.sg_subroutine(p, start, 0.1, 1, 3, cfg, np.random.default_rng(3))
    g_hat = uq.estimate_truncated_subgradient(p, start, 3, cfg, np.random.default_rng(3))
    assert np.array_equal(out.coefficients, -0.1 * g_hat)
    # the constant field concentrates on the constant basis function
    assert np.allclose(out.coefficients[0], -0.1 * c, atol=1e-12)


def reference_sg_subroutine(p, start, eta, T, m, cfg, rng):
    """The per-step form of the subroutine: one oracle call per step on the
    shared rng, averaged around the projected start point."""
    proj = p.projection
    anchor = uq.problems.project_coefficients(start.coefficients.copy(), proj)
    u = anchor
    acc = np.zeros_like(anchor)
    for _ in range(T):
        g_hat = uq.estimate_truncated_subgradient(p, bs.Expansion(u, start.basis), m, cfg, rng)
        u = uq.problems.project_coefficients(u - eta * g_hat, proj)
        acc += u - anchor
    return uq.problems.project_coefficients(anchor + acc / T, proj)


@pytest.mark.parametrize("T", [1, 7])
def test_sg_stage_block_matches_per_step_oracle_legendre(T, quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    start = bs.Expansion(np.random.default_rng(41).standard_normal((6, 2)) * 0.4, fam)
    cfg = uq.OracleConfig(16)
    out = uq.sg_subroutine(quad_problem, start, 0.02, T, 6, cfg, np.random.default_rng(42))
    ref = reference_sg_subroutine(quad_problem, start, 0.02, T, 6, cfg, np.random.default_rng(42))
    assert np.array_equal(out.coefficients, ref)


@pytest.mark.parametrize("T", [1, 7])
def test_sg_stage_block_matches_per_step_oracle_piecewise(T, cut_problem, cut_measure):
    fam = uq.piecewise_family(cut_measure, uq.Partition((0.7, 1.9, 3.1)))
    start = bs.Expansion(np.random.default_rng(43).random((4, 2)), fam)
    cfg = uq.OracleConfig(16)
    out = uq.sg_subroutine(cut_problem, start, 0.3, T, 4, cfg, np.random.default_rng(44))
    ref = reference_sg_subroutine(cut_problem, start, 0.3, T, 4, cfg, np.random.default_rng(44))
    assert np.array_equal(out.coefficients, ref)


def test_non_finite_stage_names_outer_loop_and_stage(quad_measure):
    p = uq.ProblemSpec(
        dimension=2,
        objective=lambda x, t: np.zeros(np.shape(t)),
        subgradient=lambda x, t, noise=None: np.full(np.shape(x), np.inf),
        projection=uq.no_projection(),
        lipschitz=1.0,
    )
    fam = uq.legendre_family(quad_measure)
    cfg = uq.RsgConfig(
        eps0=1.0, eps_target=0.01, alpha=2.0, t=3, k_stages=2, outer_loops=2,
        m_schedule=lambda j: 3, oracle=uq.OracleConfig(4), seed=0, initial_step=0.1,
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="outer loop 1, stage 1: .*non-finite"):
            uq.restarted_outer(p, cfg, fam)


def test_constant_step_bound_1d(unit_measure):
    p, noise = scalar_quadratic_problem(target=1.0, sigma=0.5, box=2.0)
    fam = uq.piecewise_family(unit_measure)
    start = bs.zero_expansion(fam, 1, 1)
    G_sq = (2.0 * 3.0) ** 2  # |2(x - 1)| <= 6 on the box
    V_sq = 0.5**2
    d1 = 1.0  # measured: |start - optimum|
    eta, T = 5e-3, 1000
    bound = (G_sq + V_sq) * eta / 2.0 + d1**2 / (2.0 * eta * T)
    cfg = uq.OracleConfig(1, noise=noise)
    errs = []
    for seed in range(50):
        out = uq.sg_subroutine(p, start, eta, T, 1, cfg, np.random.default_rng(seed))
        errs.append(uq.expected_objective(p, out))
    assert np.mean(errs) <= 1.2 * bound


def test_rsg_loop_k1_is_single_sg_call(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    start = bs.zero_expansion(fam, 4, 2)
    cfg = uq.OracleConfig(16)
    via_loop = uq.rsg_loop(
        quad_problem, start, K=1, t=20, alpha=2.0, eps0=1.0,
        m_schedule=[4], cfg=cfg, rng=np.random.default_rng(11),
        initial_step=0.01,
    )
    direct = uq.sg_subroutine(
        quad_problem, start, 0.01, 20, 4, cfg, np.random.default_rng(11)
    )
    assert np.array_equal(via_loop.coefficients, direct.coefficients)


def test_per_stage_errors_eventually_monotone(quad_problem, quad_measure):
    # fixed m, K = 20, t = 50: per-stage error is nonincreasing after stage 3
    # in >= 45 of 50 seeds (errors measured against the level-m optimum value
    # from an independent direct minimisation)
    from scipy.optimize import minimize

    fam = uq.legendre_family(quad_measure)
    m = 8
    B = fam.eval_matrix(quad_measure.nodes, m)
    w = quad_measure.weights
    F = lambda u: float(np.dot(w, quad_problem.objective(B @ u.reshape(m, 2), quad_measure.nodes)))
    gF = lambda u: (B.T @ (w[:, None] * quad_problem.subgradient(B @ u.reshape(m, 2), quad_measure.nodes))).ravel()
    fstar_m = minimize(F, np.zeros(m * 2), jac=gF, method="L-BFGS-B",
                       options=dict(maxiter=3000, ftol=1e-18)).fun

    start = bs.zero_expansion(fam, m, 2)
    eps0 = uq.expected_objective(quad_problem, start) - fstar_m
    cfg = uq.OracleConfig(64)
    gv = uq.estimate_G_V(
        quad_problem, [start], cfg, np.random.default_rng(0)
    )
    ok = 0
    for seed in range(50):
        rng = np.random.default_rng(9000 + seed)
        errs = []
        uq.rsg_loop(
            quad_problem, start, K=20, t=50, alpha=2.0, eps0=eps0,
            m_schedule=[m] * 20, cfg=cfg, rng=rng, gv=gv,
            trace=uq.RunTrace(),
            error_fn=lambda e: uq.expected_objective(quad_problem, e) - fstar_m,
            on_stage=lambda e, row: errs.append(row.fn_error_pi),
        )
        if np.all(np.diff(errs[2:]) <= 1e-12):
            ok += 1
    assert ok >= 45


# -- growth and warm starts ----------------------------------------------------------


def test_grow_legendre_zero_padding(quad_measure):
    fam = uq.legendre_family(quad_measure)
    rng = np.random.default_rng(21)
    e = bs.Expansion(rng.standard_normal((4, 2)), fam)
    grown = grow_expansion(e, 9, rng)
    thetas = rng.uniform(0.0, 2 * np.pi, size=64)
    assert grown.m == 9
    assert np.array_equal(grown.coefficients[:4], e.coefficients)
    assert np.array_equal(uq.synthesize(grown, thetas), uq.synthesize(e, thetas))
    with pytest.raises(ValueError):
        grow_expansion(grown, 4, rng)


def test_grow_piecewise_preserves_function(cut_measure):
    fam = uq.piecewise_family(cut_measure, uq.Partition((1.0, 2.0)))
    rng = np.random.default_rng(23)
    e = bs.Expansion(rng.random((3, 2)), fam)
    grown = grow_expansion(e, 24, rng)
    assert grown.m == 24
    thetas = rng.uniform(0.0, 4.0, size=200)
    assert np.allclose(uq.synthesize(grown, thetas), uq.synthesize(e, thetas))


# -- the outer loop ------------------------------------------------------------------


def test_outer_loop_degenerate_equals_rsg_loop(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    cfg = uq.RsgConfig(
        eps0=2.0, eps_target=0.01, alpha=2.0, t=10, k_stages=3, outer_loops=1,
        m_schedule=lambda j: 6, oracle=uq.OracleConfig(8), seed=31,
        initial_step=2e-3,
    )
    e_outer, trace = uq.restarted_outer(quad_problem, cfg, fam)
    # replay: same rng stream, same growth path, no G/V estimation draws
    rng = np.random.default_rng(31)
    start = bs.zero_expansion(fam, 6, 2)
    e_loop = uq.rsg_loop(
        quad_problem, start, K=3, t=10, alpha=2.0, eps0=2.0,
        m_schedule=[6, 6, 6], cfg=cfg.oracle, rng=rng, initial_step=2e-3,
    )
    assert np.array_equal(e_outer.coefficients, e_loop.coefficients)
    assert trace.rows[-1].outer_i == 1


def test_trace_invariants_and_feasibility(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    cfg = uq.RsgConfig(
        eps0=8.0, eps_target=0.01, alpha=1.5, t=20, k_stages=5, outer_loops=3,
        m_schedule=lambda j: min(4 + j, 12), oracle=uq.OracleConfig(16), seed=5,
    )
    seen = []
    e, trace = uq.restarted_outer(
        quad_problem, cfg, fam, on_stage=lambda ex, row: seen.append((ex, row))
    )
    # eta decays by exactly alpha within every loop and resets at restarts
    for i in (1, 2, 3):
        etas = [r.eta for r in trace.rows if r.outer_i == i]
        for a, b in zip(etas, etas[1:]):
            assert b == a / 1.5
        assert etas[0] == trace.rows[0].eta
    # m is nondecreasing over the whole trace and matches the schedule
    ms = [r.m for r in trace.rows]
    assert all(m2 >= m1 for m1, m2 in zip(ms, ms[1:]))
    assert ms == [min(4 + j, 12) for j in range(1, 16)]
    # every recorded stage output is feasible (ball: radius + 1e-9)
    for ex, row in seen:
        assert np.linalg.norm(ex.coefficients) <= 1.5 + 1e-9
        assert row.coeff_hash == uq.rsg.coefficient_hash(ex)
    # call_index is 1..N strictly increasing
    assert [r.call_index for r in trace.rows] == list(range(1, len(trace.rows) + 1))


def test_box_feasibility_exact(cut_problem, cut_measure):
    fam = uq.piecewise_family(cut_measure)
    cfg = uq.RsgConfig(
        eps0=4.0, eps_target=0.01, alpha=1.2, t=10, k_stages=4, outer_loops=2,
        m_schedule=lambda j: 4 + j, oracle=uq.OracleConfig(16), seed=3,
        initial_step=0.05,
    )
    outputs = []
    uq.restarted_outer(cut_problem, cfg, fam, on_stage=lambda ex, row: outputs.append(ex))
    for ex in outputs:
        assert ex.coefficients.min() >= 0.0 and ex.coefficients.max() <= 1.0


def test_stagnation_termination(unit_measure):
    p = zero_subgradient_problem()
    fam = uq.legendre_family(unit_measure)
    cfg = uq.RsgConfig(
        eps0=1.0, eps_target=0.01, alpha=2.0, t=2, k_stages=2, outer_loops=10,
        m_schedule=lambda j: 2, oracle=uq.OracleConfig(2), seed=1,
        initial_step=0.1,
    )
    # objective is constant: the error cannot improve, so the run stops after
    # the first comparison instead of burning all 10 loops
    _, trace = uq.restarted_outer(
        p, cfg, fam, reference_values=lambda th: np.zeros(np.shape(th))
    )
    assert trace.rows[-1].outer_i == 2


def test_trace_csv_round_trip(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    cfg = uq.RsgConfig(
        eps0=8.0, eps_target=0.01, alpha=2.0, t=5, k_stages=3, outer_loops=1,
        m_schedule=lambda j: 4, oracle=uq.OracleConfig(8), seed=13,
    )
    _, trace = uq.restarted_outer(quad_problem, cfg, fam)
    text = uq.trace_to_csv(trace)
    back = trace_rows(text)
    assert uq.trace_to_csv(uq.RunTrace(back)) == text
    # the CSV leaves out coeff_hash and keeps every other field exactly
    assert back == [dataclasses.replace(r, coeff_hash="") for r in trace.rows]


def test_config_validation(unit_measure):
    good = dict(
        eps0=1.0, eps_target=0.1, alpha=2.0, t=1, k_stages=1, outer_loops=1,
        m_schedule=lambda j: 4,
    )
    uq.RsgConfig(**good)
    with pytest.raises(ValueError):
        uq.RsgConfig(**{**good, "alpha": 1.0})
    with pytest.raises(ValueError):
        uq.RsgConfig(**{**good, "eps_target": 2.0})
    with pytest.raises(ValueError):
        uq.RsgConfig(**{**good, "m_schedule": lambda j: 10 - j, "k_stages": 3})


# -- remainder diagnostics ------------------------------------------------------------


def test_remainder_gap_vanishes_at_high_level(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    m = 48
    ref = uq.quadratic_reference
    e_opt = uq.analyze(ref, fam, m)  # essentially the full representation
    lhs, rhs = uq.measure_remainder_gap(quad_problem, e_opt, ref, m)
    assert lhs < 0.02
    assert lhs <= rhs


def test_piecewise_remainder_tracks_max_gap(cut_measure, demo_graph):
    # level-partition optimum computed exactly: E f is separable across cells
    # and affine in theta on each, so the optimal cell value is the best cut
    # vertex at the cell midpoint
    p = uq.mincut_problem(demo_graph, cut_measure)
    spec = uq.set_function(demo_graph)
    fstar = min_cut_value_function(demo_graph)
    rng = np.random.default_rng(71)
    lhs_by_n = {}
    gap_by_n = {}
    for n in (8, 32, 128):
        part = uq.Partition()
        while part.n_cells < n:
            try:
                part = uq.refine_partition(part, rng.uniform(0.0, 4.0))
            except uq.PartitionRejection:
                continue
        fam = uq.piecewise_family(cut_measure, part)
        edges = np.concatenate(([0.0], part.breakpoints, [4.0]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        cells = np.empty((n, 2))
        for i, mid in enumerate(mids):
            best = uq.brute_force_min(spec, float(mid))
            cells[i] = [1.0 if g in best.members else 0.0 for g in spec.ground_set]
        e_opt = bs.Expansion(cells, fam)
        lhs_by_n[n] = uq.objective_gap_norm(p, e_opt, fstar)
        gap_by_n[n] = uq.max_gap_measure(part, cut_measure)
    for n in (8, 32, 128):
        assert lhs_by_n[n] <= p.lipschitz * gap_by_n[n]
    assert lhs_by_n[128] < lhs_by_n[32] < lhs_by_n[8]


def test_noisy_oracle_still_converges(quad_problem, quad_measure):
    # additive gradient noise enters the step size through V^2 and the
    # restart schedule still drives the error well below its start
    fam = uq.legendre_family(quad_measure)
    start = bs.zero_expansion(fam, 8, 2)
    cfg = uq.OracleConfig(64, noise=uq.NoiseModel("additive_gaussian", 0.1))
    rng = np.random.default_rng(55)
    gv = uq.estimate_G_V(quad_problem, [start], cfg, rng)
    assert gv.V_sq == 0.1**2 * 2
    e = uq.rsg_loop(
        quad_problem, start, K=15, t=50, alpha=1.5, eps0=4.0,
        m_schedule=[8] * 15, cfg=cfg, rng=rng, gv=gv,
    )
    final = uq.expected_objective(quad_problem, e)
    assert final < 0.25 * uq.expected_objective(quad_problem, start)
    assert np.linalg.norm(e.coefficients) <= 1.5 + 1e-9


def test_mincut_pipeline_generalizes_beyond_the_chain(cut_measure):
    # a denser random graph: solve, then check rounding against brute force
    # away from the switch points of the optimal-value envelope
    from uqsubgrad.submodular import random_cut_graph

    g = random_cut_graph(np.random.default_rng(12345), 4, theta_range=(0.0, 4.0))
    p = uq.mincut_problem(g, cut_measure)
    spec = uq.set_function(g)
    fstar = min_cut_value_function(g)
    fam = uq.piecewise_family(cut_measure)
    cfg = uq.RsgConfig(
        eps0=8.0, eps_target=1e-4, alpha=1.2, t=50, k_stages=20, outer_loops=6,
        m_schedule=lambda j: round((j + 10) ** 0.8 + 10),
        oracle=uq.OracleConfig(64), seed=4242, initial_step=0.02,
    )
    final, trace = uq.restarted_outer(p, cfg, fam, reference_values=fstar)
    errs = [r.fn_error_pi_sq for r in trace.rows]
    assert errs[-1] <= 0.05 * errs[0]

    # switch points: where the argmin over the (affine in theta) subset values
    # changes along a fine grid
    ground = g.ground_set
    subsets = [
        frozenset(ground[i] for i in range(len(ground)) if mask >> i & 1)
        for mask in range(2 ** len(ground))
    ]
    v0 = np.array([uq.cut_value(g, S, 0.0) for S in subsets])
    v4 = np.array([uq.cut_value(g, S, 4.0) for S in subsets])
    grid = np.linspace(0.0, 4.0, 4001)
    argmins = (v0[None, :] + (v4 - v0)[None, :] / 4.0 * grid[:, None]).argmin(axis=1)
    switches = grid[1:][np.diff(argmins) != 0]
    rng = np.random.default_rng(777)
    checked = 0
    while checked < 50:
        theta = float(rng.uniform(0.0, 4.0))
        if switches.size and np.abs(switches - theta).min() <= 0.25:
            continue
        checked += 1
        S = uq.threshold_round(uq.synthesize(final, theta), 0.1, g.ground_set)
        assert uq.cut_value(g, S, theta) == pytest.approx(
            uq.brute_force_min(spec, theta).value, abs=1e-9
        )


def test_overall_rate_with_growing_basis(quad_problem, quad_measure):
    # growing the basis across outer loops still lands within 3*eps of the
    # true optimum once the schedule passes the accuracy level of the basis
    from scipy.optimize import minimize

    fam = uq.legendre_family(quad_measure)
    eps = 0.05
    start = bs.zero_expansion(fam, 8, 2)
    rng = np.random.default_rng(77)
    cfg_o = uq.OracleConfig(64)
    # probes must span the feasible ball: the second-moment constant of the
    # assumption is a bound over the whole feasible set, not the trajectory
    ball = quad_problem.projection
    probes = [start] + [
        bs.Expansion(
            uq.problems.project_coefficients(
                r * rng.standard_normal((8, 2)), ball
            ),
            fam,
        )
        for r in (1.0, 2.0)
    ]
    gv = uq.estimate_G_V(quad_problem, probes, cfg_o, rng)
    eps0 = 1.1 * uq.expected_objective(quad_problem, start)
    t, K = uq.derive_stage_params(
        eps0, eps, 2.0, gv.G_sq, gv.V_sq, 2 * eps / np.sqrt(50.0), mode="B_eps"
    )
    schedule = lambda j: min(8 + 1 * (j - 1), 16)
    finals = []
    for seed in range(20):
        cfg = uq.RsgConfig(
            eps0=eps0, eps_target=eps, alpha=2.0, t=t, k_stages=K, outer_loops=2,
            m_schedule=schedule, oracle=cfg_o, seed=400 + seed,
        )
        e, _ = uq.restarted_outer(quad_problem, cfg, fam)
        finals.append(uq.expected_objective(quad_problem, e))
    finals = np.array(finals)
    se = finals.std(ddof=1) / np.sqrt(len(finals))
    assert finals.mean() <= 3 * eps + 3 * se


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("kind", ["quadratic", "mincut"])
def test_stage_hook_equals_plain_subgradient_bitwise(kind, sigma, quad_problem, quad_measure,
                                                     cut_measure):
    # a stage bound once by the problem's hook takes the same steps, bit for
    # bit, as the per-step subgradient at thetas[t]
    rng = np.random.default_rng(47)
    if kind == "quadratic":
        p = quad_problem
        start = bs.Expansion(rng.standard_normal((6, 2)) * 0.4, uq.legendre_family(quad_measure))
    else:
        p = uq.mincut_problem(random_cut_graph(rng, 9), cut_measure)
        fam = uq.piecewise_family(cut_measure, uq.Partition((0.7, 1.9, 3.1)))
        start = bs.Expansion(rng.integers(0, 3, size=(4, 9)) / 2.0, fam)  # tied entries
    assert p.stage is not None
    plain = dataclasses.replace(p, stage=None)
    noise = uq.NoiseModel("additive_gaussian", sigma) if sigma else uq.NoiseModel()
    cfg = uq.OracleConfig(16, noise)
    for eta in (0.02, 0.3):
        out = uq.sg_subroutine(p, start, eta, 7, start.m, cfg, np.random.default_rng(48))
        ref = uq.sg_subroutine(plain, start, eta, 7, start.m, cfg, np.random.default_rng(48))
        assert np.array_equal(out.coefficients, ref.coefficients)


def run_gap_norms(p, cfg, fam, reference_values):
    """(trace error, uncached oracle) of every stage of a restarted run."""
    pairs = []
    on_stage = lambda e, row: pairs.append(
        (row.fn_error_pi, gap_norm_uncached(p, e, reference_values)))
    uq.restarted_outer(p, cfg, fam, reference_values=reference_values, on_stage=on_stage)
    return pairs


def test_run_error_equals_uncached_gap_norm_legendre(quad_problem, quad_measure):
    cfg = uq.RsgConfig(
        eps0=16.0, eps_target=0.01, alpha=1.5, t=5, k_stages=4, outer_loops=2,
        m_schedule=lambda j: min(7 + j, 12), oracle=uq.OracleConfig(8), seed=68,
    )
    ref = lambda th: quad_problem.objective(uq.quadratic_reference(th), th)
    pairs = run_gap_norms(quad_problem, cfg, uq.legendre_family(quad_measure), ref)
    assert len(pairs) == 8 and all(err == oracle for err, oracle in pairs)


def test_run_error_equals_uncached_gap_norm_piecewise(cut_measure):
    g = random_cut_graph(np.random.default_rng(69), 5, theta_range=(0.0, 4.0))
    p = uq.mincut_problem(g, cut_measure)
    cfg = uq.RsgConfig(
        eps0=4.0, eps_target=0.01, alpha=1.2, t=5, k_stages=4, outer_loops=2,
        m_schedule=lambda j: 2 + j // 2, oracle=uq.OracleConfig(8), seed=70,
        initial_step=0.05,
    )
    pairs = run_gap_norms(p, cfg, uq.piecewise_family(cut_measure), min_cut_value_function(g))
    assert len(pairs) == 8 and all(err == oracle for err, oracle in pairs)
