import dataclasses
import itertools
import math

import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad.problems import _CutEdges, _greedy_batch, _greedy_sums, project_coefficients
from uqsubgrad.problems import GapNorm, objective_gap_norm, quadratic_reference
from uqsubgrad.submodular import min_cut_value_function, random_cut_graph

from oracles import chain_relaxation_closed_form, gap_norm_uncached, quadratic_reference_two_sines


# -- quadratic instance ---------------------------------------------------------


def test_objective_vanishes_at_reference(quad_problem, quad_measure):
    ref = uq.quadratic_reference(quad_measure.nodes)
    assert np.abs(quad_problem.objective(ref, quad_measure.nodes)).max() == 0.0


def test_subgradient_stationary_at_reference(quad_problem, quad_measure):
    ref = uq.quadratic_reference(quad_measure.nodes)
    g = quad_problem.subgradient(ref, quad_measure.nodes)
    assert np.abs(g).max() == 0.0


def test_reference_norm_below_paper_bound(quad_measure):
    # benchmark numerical integration: per-component pi-norm stays under 0.52
    dense = uq.ThetaMeasure(0.0, 2.0 * np.pi, quadrature_nodes=1024)
    ref = uq.quadratic_reference(dense.nodes)
    norm_x = np.sqrt(np.dot(dense.weights, ref[:, 0] ** 2))
    norm_y = np.sqrt(np.dot(dense.weights, ref[:, 1] ** 2))
    assert norm_x == norm_y
    assert norm_x < 0.52


def test_quadratic_subgradient_inequality(quad_problem):
    rng = np.random.default_rng(3)
    for _ in range(300):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        x = rng.normal(scale=1.2, size=2)
        y = rng.normal(scale=1.2, size=2)
        fx = quad_problem.objective(x, theta)
        fy = quad_problem.objective(y, theta)
        g = quad_problem.subgradient(x, theta)
        assert fy - fx >= g @ (y - x) - 1e-9


def test_quadratic_invalid_parameters(quad_measure):
    with pytest.raises(ValueError):
        uq.quadratic_problem(51.0, 50.0, quad_measure)
    with pytest.raises(ValueError):
        uq.quadratic_problem(0.0, 50.0, quad_measure)


def test_lipschitz_bounds_subgradient_fields(quad_problem, quad_measure):
    # reported L bounds ||g(x(.))||_pi over random feasible expansions
    rng = np.random.default_rng(8)
    fam = uq.legendre_family(quad_measure)
    for _ in range(50):
        u = rng.standard_normal((8, 2))
        u = project_coefficients(u * rng.uniform(0.2, 1.2), quad_problem.projection)
        e = bs.Expansion(u, fam)
        x = uq.synthesize(e, quad_measure.nodes)
        g = quad_problem.subgradient(x, quad_measure.nodes)
        g_norm = np.sqrt(np.einsum("nq,nq,n->", g, g, quad_measure.weights))
        assert g_norm <= quad_problem.lipschitz


def test_quadratic_local_error_bound(quad_problem, quad_measure):
    # ||w - w*||_pi <= (2/sqrt(mu)) * sqrt(||f-gap||_pi): the branch with the
    # smallest curvature is mu/4, which fixes the provable constant (mu = 1).
    rng = np.random.default_rng(12)
    fam = uq.legendre_family(quad_measure)
    ref = uq.quadratic_reference
    for _ in range(100):
        u = project_coefficients(
            rng.standard_normal((10, 2)) * rng.uniform(0.05, 0.8),
            quad_problem.projection,
        )
        e = bs.Expansion(u, fam)
        w = uq.synthesize(e, quad_measure.nodes)
        dist = np.sqrt(
            np.einsum("nq,n->", (w - ref(quad_measure.nodes)) ** 2, quad_measure.weights)
        )
        gap_norm = uq.objective_gap_norm(
            quad_problem, e, lambda t: np.zeros(np.shape(t))
        )
        assert dist <= 2.0 * np.sqrt(gap_norm) * (1 + 1e-9)


# -- min-cut instance --------------------------------------------------------------


def test_mincut_objective_paper_values(cut_problem):
    assert cut_problem.objective(np.array([0.0, 1.0]), 3.0) == 2.0
    assert cut_problem.objective(np.array([1.0, 1.0]), 1.0) == 1.0


def test_mincut_matches_generic_lovasz(cut_problem, demo_setfn):
    rng = np.random.default_rng(19)
    X = rng.random((200, 2))
    thetas = rng.uniform(0.0, 4.0, size=200)
    vals = cut_problem.objective(X, thetas)
    grads = cut_problem.subgradient(X, thetas)
    for x, th, v, g in zip(X, thetas, vals, grads):
        assert v == pytest.approx(uq.lovasz_eval(demo_setfn, x, float(th)), abs=1e-10)
        assert np.allclose(g, uq.lovasz_subgradient(demo_setfn, x, float(th)))


def greedy_batch_edge_loop(g, X, theta):
    """The greedy chain as one pass over the edges: the reference for the
    edge-vectorized ``_greedy_batch``, which must match it bit for bit."""
    pos = {name: i for i, name in enumerate(g.ground_set)}
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.broadcast_to(np.asarray(theta, dtype=float), X.shape[:-1])
    order = np.argsort(-X, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(X.shape[-1])[None, :], axis=-1)
    grad = np.zeros_like(X)
    f_empty = np.zeros_like(t, dtype=float)
    for u, v, base, slope in g.edges:
        w = base + slope * t
        if v == g.sink:
            f_empty = f_empty + w
            if u != g.source:
                grad[..., pos[u]] -= w
        elif u == g.source:
            grad[..., pos[v]] += w
        else:
            mask = ranks[..., pos[u]] > ranks[..., pos[v]]
            grad[..., pos[v]] += w * mask
            grad[..., pos[u]] -= w * mask
    vals = f_empty + np.einsum("...q,...q->...", grad, X)
    return vals, grad


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_greedy_batch_matches_edge_loop_bitwise(n):
    rng = np.random.default_rng(100 + n)
    g = random_cut_graph(rng, n)
    edges = _CutEdges.of(g)
    # few distinct levels, so most rows carry tied coordinates
    X = rng.integers(0, 4, size=(64, n)) / 3.0
    X[:8] = 0.5
    thetas = rng.uniform(*g.theta_range, size=64)
    for x, th in ((X, thetas), (X.reshape(8, 8, n), thetas.reshape(8, 8)), (X[3], thetas[3])):
        vals, grad = _greedy_batch(edges, x, th)
        ref_vals, ref_grad = greedy_batch_edge_loop(g, x, th)
        assert np.array_equal(vals, ref_vals) and np.array_equal(grad, ref_grad)


def test_greedy_batch_source_sink_edge_counts_in_empty_set():
    text = "source s\nsink t\ns t 1 0.5\ns 1 2 0\n1 t 3 0\n"
    g = uq.parse_cut_graph(text, (0.0, 4.0))
    X = np.array([[0.0], [1.0], [0.25]])
    vals, grad = _greedy_batch(_CutEdges.of(g), X, np.array([0.0, 2.0, 4.0]))
    ref_vals, ref_grad = greedy_batch_edge_loop(g, X, np.array([0.0, 2.0, 4.0]))
    assert np.array_equal(vals, ref_vals) and np.array_equal(grad, ref_grad)
    # edges out of the sink or into the source are never cut and change nothing
    for extra in ("t 1 1 0\n", "1 s 1 0\n", "t s 2 1\nt 1 1 0\n1 s 1 0\n"):
        g_extra = uq.parse_cut_graph(text + extra, (0.0, 4.0))
        v, gr = _greedy_batch(_CutEdges.of(g_extra), X, np.array([0.0, 2.0, 4.0]))
        assert np.array_equal(v, vals) and np.array_equal(gr, grad)


def test_mincut_closed_form_agreement_region(cut_problem):
    # the closed-form fixture equals the greedy extension on {x1 <= x2} and
    # exceeds it by exactly 2*max(x1 - x2, 0) elsewhere
    rng = np.random.default_rng(23)
    X = rng.random((500, 2))
    thetas = rng.uniform(0.0, 4.0, size=500)
    greedy = cut_problem.objective(X, thetas)
    closed = chain_relaxation_closed_form(X, thetas)
    diff = closed - greedy
    expected = 2.0 * np.maximum(X[:, 0] - X[:, 1], 0.0)
    assert np.allclose(diff, expected, atol=1e-10)


def test_mincut_subgradient_inequality(cut_problem):
    rng = np.random.default_rng(29)
    X = rng.random((1000, 2))
    Y = rng.random((1000, 2))
    thetas = rng.uniform(0.0, 4.0, size=1000)
    fx = cut_problem.objective(X, thetas)
    fy = cut_problem.objective(Y, thetas)
    g = cut_problem.subgradient(X, thetas)
    slack = fy - fx - np.einsum("nq,nq->n", g, Y - X)
    assert slack.min() >= -1e-9


def test_mincut_polyhedral_error_bound(demo_graph):
    # kappa > 0 empirically, for theta bounded away from the switch at 2
    for lo, hi, wstar in ((0.0, 1.75, (1.0, 1.0)), (2.25, 4.0, (0.0, 1.0))):
        mes = uq.ThetaMeasure(lo, hi)
        p = uq.mincut_problem(uq.demo_cut_graph((0.0, 4.0)), mes)
        fstar = min_cut_value_function(demo_graph)
        rng = np.random.default_rng(31)
        ratios = []
        for _ in range(300):
            w = rng.random(2)
            gap = np.sqrt(
                np.dot(mes.weights, (p.objective(np.tile(w, (len(mes.nodes), 1)), mes.nodes) - fstar(mes.nodes)) ** 2)
            )
            dist = np.linalg.norm(w - np.asarray(wstar))
            if dist > 1e-9:
                ratios.append(gap / dist)
        kappa = min(ratios)
        assert kappa > 0.05


def test_mincut_lipschitz_bounds_vertices(cut_problem, demo_graph, cut_measure):
    # the chain's incident weights at theta = 4 are (4 + 2, 2 + 3)
    assert cut_problem.lipschitz == math.sqrt(61)
    rng = np.random.default_rng(37)
    X = rng.random((500, 2))
    thetas = rng.uniform(0.0, 4.0, size=500)
    g = cut_problem.subgradient(X, thetas)
    assert np.linalg.norm(g, axis=-1).max() <= cut_problem.lipschitz
    # every greedy vertex is the subgradient at some strict ordering of x, and
    # a vertex's norm is convex in theta, so the support ends bound it
    graphs = [demo_graph] + [random_cut_graph(np.random.default_rng(seed), n)
                             for seed in range(3) for n in range(2, 7)]
    for graph in graphs:
        p = uq.mincut_problem(graph, cut_measure)
        q = p.dimension
        X = (np.array(list(itertools.permutations(range(q))), dtype=float) + 1) / (q + 1)
        for theta in (cut_measure.a, cut_measure.b):
            g = p.subgradient(X, np.full(len(X), theta))
            assert np.linalg.norm(g, axis=-1).max() <= p.lipschitz


# -- projections --------------------------------------------------------------------


def test_ball_projection_scales_exactly(quad_measure):
    fam = uq.legendre_family(quad_measure)
    u = np.zeros((3, 2))
    u[0, 0] = 3.0
    e = bs.Expansion(u, fam)
    out = uq.project(e, uq.l2_ball(1.5))
    assert np.allclose(out.coefficients, u * 0.5)


def test_box_projection_clamps(unit_measure):
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.5,)))
    e = bs.Expansion(np.array([[1.3], [0.4]]), fam)
    out = uq.project(e, uq.per_cell_box(0.0, 1.0))
    assert np.array_equal(out.coefficients, [[1.0], [0.4]])
    inside = bs.Expansion(np.array([[0.2], [0.9]]), fam)
    assert uq.project(inside, uq.per_cell_box(0.0, 1.0)) is inside


def test_projection_idempotent_exact():
    rng = np.random.default_rng(41)
    ball = uq.l2_ball(1.5)
    box = uq.per_cell_box(0.0, 1.0)
    for _ in range(200):
        u = rng.standard_normal((6, 2)) * rng.uniform(0.1, 3.0)
        once = project_coefficients(u, ball)
        assert np.array_equal(project_coefficients(once, ball), once)
        v = rng.standard_normal((6, 2))
        once_b = project_coefficients(v, box)
        assert np.array_equal(project_coefficients(once_b, box), once_b)


def test_projection_nonexpansive():
    rng = np.random.default_rng(43)
    ball = uq.l2_ball(1.5)
    box = uq.per_cell_box(0.0, 1.0)
    for spec in (ball, box):
        for _ in range(1000):
            a = rng.standard_normal((4, 2)) * 2.0
            b = rng.standard_normal((4, 2)) * 2.0
            da = project_coefficients(a, spec)
            db = project_coefficients(b, spec)
            assert np.linalg.norm(da - db) <= np.linalg.norm(a - b) + 1e-12


def test_projection_compatibility_errors(quad_measure, unit_measure):
    leg = uq.legendre_family(quad_measure)
    pw = uq.piecewise_family(unit_measure, uq.Partition((0.5,)))
    e_leg = bs.Expansion(np.ones((2, 1)), leg)
    e_pw = bs.Expansion(np.ones((2, 1)), pw)
    with pytest.raises(ValueError):
        uq.project(e_leg, uq.per_cell_box(0.0, 1.0))
    with pytest.raises(ValueError):
        uq.project(e_pw, uq.l2_ball(1.0))
    assert uq.project(e_pw, uq.no_projection()) is e_pw


def test_projection_spec_validation():
    with pytest.raises(ValueError):
        uq.ProjectionSpec("l2_ball", radius=0.0)
    with pytest.raises(ValueError):
        uq.ProjectionSpec("per_cell_box", lo=1.0, hi=0.0)
    with pytest.raises(ValueError):
        uq.ProjectionSpec("simplex")


# -- noise model --------------------------------------------------------------------


def test_noise_zero_mean():
    model = uq.NoiseModel("additive_gaussian", 0.3)
    rng = np.random.default_rng(47)
    draws = model.draw(rng, (10**5,))
    assert abs(draws.mean()) < 3 * 0.3 / np.sqrt(10**5)
    assert uq.NoiseModel().draw(rng, (4,)) is None


def test_noise_validation():
    with pytest.raises(ValueError):
        uq.NoiseModel("poisson")
    with pytest.raises(ValueError):
        uq.NoiseModel("additive_gaussian", -0.1)


@pytest.mark.parametrize("n", [1, 6])
def test_greedy_core_and_stage_step_match_edge_loop_on_ties(n):
    rng = np.random.default_rng(200 + n)
    g = random_cut_graph(rng, n)
    edges = _CutEdges.of(g)
    X = rng.integers(0, 2, size=(32, n)).astype(float)  # rows with tied entries
    X[:4] = 0.25  # every entry tied
    X[4:8] = X[8:12]  # repeated rows
    mes = uq.ThetaMeasure(*g.theta_range)
    idx = rng.integers(0, mes.quadrature_nodes, size=(3, 32))
    thetas = mes.nodes[idx]
    ref_vals, ref_grad = greedy_batch_edge_loop(g, X, thetas[1])
    sums = _greedy_sums(edges, X, thetas[1], edges.bins(32))
    assert sums.shape == (32, n + 1) and np.array_equal(sums[:, :-1], ref_grad)
    vals, grad = _greedy_batch(edges, X, thetas[1])
    assert np.array_equal(vals, ref_vals) and np.array_equal(grad, ref_grad)
    p = uq.mincut_problem(g, mes)
    step = p.stage(mes.nodes, idx)
    assert np.array_equal(step(X, 1), ref_grad)
    assert np.array_equal(p.subgradient(X, thetas[1]), ref_grad)
    noise = rng.standard_normal(X.shape)
    assert np.array_equal(step(X, 1, noise), ref_grad + noise)


def quadratic_branch_formulas(mu, L, x, ref, noise=None):
    """Gradient and objective of the quadratic from one branch test per
    coordinate (ties: dx >= 0 and dy > 0): the reference for the problem's
    curvature table, which tests d >= 0 in both coordinates."""
    dx = x[..., 0] - ref[..., 0]
    dy = x[..., 1] - ref[..., 1]
    cx = np.where(dx >= 0, mu / 4.0, mu / 2.0)
    cy = np.where(dy > 0, L / 2.0, L / 4.0)
    g = np.empty(dx.shape + (2,))
    g[..., 0] = 2.0 * cx * dx
    g[..., 1] = 2.0 * cy * dy
    return (g if noise is None else g + noise), cx * dx**2 + cy * dy**2


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_quadratic_curvature_table_equals_branch_formulas_at_signed_zeros(sigma, quad_measure):
    mu, L = 1.0, 50.0
    p = uq.quadratic_problem(mu, L, quad_measure)
    rng = np.random.default_rng(61)
    nodes = rng.uniform(quad_measure.a, quad_measure.b, size=48)
    nodes[0] = 0.75 * np.pi  # sin(2 theta) == -1: the optimum is +0.0
    idx = np.arange(48).reshape(3, 16)
    idx[:, :6] = 0
    thetas = nodes[idx]
    ref = quadratic_reference(thetas)
    assert ref[:, :6].tobytes() == np.zeros((3, 6, 2)).tobytes()
    x = ref + rng.standard_normal(ref.shape) * 0.1
    x[:, 0:2] = 0.0                   # d = +0.0
    x[:, 2:4] = -0.0                  # d = -0.0
    x[:, 4, :] = (0.0, -0.0)
    x[:, 5, :] = (-0.0, 0.0)
    x[:, 6:9] = ref[:, 6:9]           # d = +0.0 away from a zero optimum
    x[:, 9, 0] = ref[:, 9, 0]         # one coordinate on its kink
    x[:, 10, 1] = ref[:, 10, 1]
    noise = rng.standard_normal(ref.shape) * sigma if sigma else None
    step = p.stage(nodes, idx)
    for t in range(3):
        nz = None if noise is None else noise[t]
        g_ref, f_ref = quadratic_branch_formulas(mu, L, x[t], ref[t], nz)
        assert step(x[t], t, nz).tobytes() == g_ref.tobytes()
        assert p.subgradient(x[t], thetas[t], nz).tobytes() == g_ref.tobytes()
        assert p.objective(x[t], thetas[t]).tobytes() == f_ref.tobytes()
    # the d = -0.0 rows really carry negative zeros in the gradient
    assert np.signbit(quadratic_branch_formulas(mu, L, x[0], ref[0])[0][2]).all()


def greedy_sums_argsort_ranks(edges, X2, t):
    """``_greedy_sums`` with ranks from a stable descending argsort, laid out
    row-major (one row per theta): the reference for its sort-free rank
    comparison and its contribution-major layout."""
    n = len(t)
    bins = (np.arange(n)[:, None] * (edges.q + 1) + edges.column).ravel()
    order = np.argsort(-X2, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    ranks[np.arange(n)[:, None], order] = np.arange(edges.q)
    toggled = np.ones((n, len(edges.u) + 1), dtype=bool)
    toggled[:, 1:] = ranks[:, edges.u] > ranks[:, edges.v]
    vals = (edges.base + edges.slope * t[:, None]) * toggled[:, edges.gate]
    acc = np.bincount(bins, weights=vals.ravel(), minlength=n * (edges.q + 1))
    return acc.reshape(n, edges.q + 1)


@pytest.mark.parametrize("n", [1, 2, 6, 16])
def test_sort_free_greedy_ranks_equal_argsort_and_edge_loop_bitwise(n):
    rng = np.random.default_rng(300 + n)
    graphs = [random_cut_graph(rng, n)]
    if n == 2:  # zero weights and an edge against the node order
        text = "source s\nsink t\ns 1 0 0.5\n1 2 0 0\n2 1 0.25 0\n2 t 0 1\n1 t 1.5 0\n"
        graphs.append(uq.parse_cut_graph(text, (0.0, 4.0)))
    for g in graphs:
        edges = _CutEdges.of(g)
        bins = edges.bins(64)
        for _ in range(20):
            # few levels, both signed zeros among them: most rows carry ties
            X = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(64, n))
            X[:4] = -0.0
            X[4:8] = 0.0
            if n > 1:
                X[:, 0] = -0.0  # a column of -0.0 only
            t = rng.uniform(*g.theta_range, size=64)
            t[:4] = g.theta_range[0]
            sums = _greedy_sums(edges, X, t, bins)
            assert sums.tobytes() == greedy_sums_argsort_ranks(edges, X, t).tobytes()
            ref_vals, ref_grad = greedy_batch_edge_loop(g, X, t)
            assert sums[:, :-1].tobytes() == ref_grad.tobytes()
            vals, grad = _greedy_batch(edges, X, t)
            assert vals.tobytes() == ref_vals.tobytes() and grad.tobytes() == ref_grad.tobytes()


def oriented_graphs(rng, n):
    """One random graph four ways: every internal edge reversed (u > v in
    the ground-set order), as generated (u < v), every other one reversed,
    and its terminal edges alone."""
    g = random_cut_graph(rng, n)
    internal = [(u, v) for u, v, _, _ in g.edges if g.source != u and g.sink != v]
    assert internal and all(g.ground_set.index(u) < g.ground_set.index(v) for u, v in internal)

    def reversed_edges(flip):
        return tuple((v, u, b, s) if (u, v) in flip else (u, v, b, s) for u, v, b, s in g.edges)

    terminal = tuple(e for e in g.edges if e[:2] not in internal)
    return {
        "descending": dataclasses.replace(g, edges=reversed_edges(internal)),
        "ascending": g,
        "mixed": dataclasses.replace(g, edges=reversed_edges(internal[1::2])),
        "terminal": dataclasses.replace(g, edges=terminal),
    }


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("orientation", ["descending", "ascending", "mixed", "terminal"])
def test_pair_orientation_groups_match_edge_loop_and_subgradient_bitwise(orientation, sigma):
    rng = np.random.default_rng(500)
    g = oriented_graphs(rng, 9)[orientation]
    edges = _CutEdges.of(g)
    k, n_pairs = edges.descending, len(edges.u)
    assert (edges.u[:k] > edges.v[:k]).all() and (edges.u[k:] < edges.v[k:]).all()
    expected = {"descending": n_pairs, "ascending": 0, "mixed": n_pairs // 2, "terminal": 0}
    assert k == expected[orientation] and (n_pairs == 0) == (orientation == "terminal")
    p = uq.mincut_problem(g, uq.ThetaMeasure(*g.theta_range))
    # few levels, both signed zeros among them: most rows carry ties
    X = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(3, 64, 9))
    X[:, :4] = 0.5
    nodes = uq.ThetaMeasure(*g.theta_range).nodes
    idx = rng.integers(0, len(nodes), size=(3, 64))
    thetas = nodes[idx]
    noise = rng.standard_normal(X.shape) * sigma if sigma else None
    step = p.stage(nodes, idx)
    for t in range(3):
        ref_vals, ref_grad = greedy_batch_edge_loop(g, X[t], thetas[t])
        vals, grad = _greedy_batch(edges, X[t], thetas[t])
        assert vals.tobytes() == ref_vals.tobytes() and grad.tobytes() == ref_grad.tobytes()
        assert p.objective(X[t], thetas[t]).tobytes() == ref_vals.tobytes()
        nz = None if noise is None else noise[t]
        ref_step = ref_grad if nz is None else ref_grad + nz
        assert p.subgradient(X[t], thetas[t], nz).tobytes() == ref_step.tobytes()
        assert step(X[t], t, nz).tobytes() == ref_step.tobytes()


def test_ball_projection_norm_equals_linalg_norm_bitwise():
    rng = np.random.default_rng(62)
    blocks = [rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
              for shape in ((1, 1), (6, 2), (32, 2), (200, 3))]
    blocks += [np.asfortranarray(blocks[2]), blocks[3].T, blocks[3][::3]]
    for u in blocks:
        nrm = float(np.linalg.norm(u))
        for radius in (0.5 * nrm, nrm, np.nextafter(nrm, 0.0), 2.0 * nrm):
            out = project_coefficients(u, uq.l2_ball(radius))
            if nrm <= radius * (1.0 + 4e-16):
                assert out is u
            else:
                assert out.tobytes() == (u * (radius / nrm)).tobytes()


def test_one_sine_quadratic_reference_equals_two_sine_formula_bytes():
    rng = np.random.default_rng(63)
    blocks = [
        rng.uniform(0.0, 2.0 * np.pi, size=(50, 64)),
        uq.ThetaMeasure(0.0, 2.0 * np.pi).nodes,
        np.array([0.0, -0.0, 0.75 * np.pi, np.pi, 1e-300, 1e6, -3.0]),
        np.float64(1.25),
    ]
    for theta in blocks:
        new, old = quadratic_reference(theta), quadratic_reference_two_sines(theta)
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def gap_norm_levels(fam_at, levels, q, reference_values, p, seed):
    """(cached, uncached) gap norms of random expansions over the families
    ``fam_at(j)`` at ``levels[j]``, fed in order to one GapNorm."""
    rng = np.random.default_rng(seed)
    cached = GapNorm(p, reference_values)
    out = []
    for j, m in enumerate(levels):
        fam = fam_at(j)
        u = project_coefficients(rng.standard_normal((fam.rows(m), q)), p.projection)
        e = bs.Expansion(u, fam)
        out.append((cached(e), gap_norm_uncached(p, e, reference_values)))
    return out


def test_gap_norm_cache_equals_uncached_along_legendre_growth(quad_problem, quad_measure):
    ref = lambda th: quad_problem.objective(uq.quadratic_reference(th), th)
    fam = uq.legendre_family(quad_measure)
    # growing 8 -> 12, then flat, then a family on another rule at the same level
    other = uq.legendre_family(uq.ThetaMeasure(0.0, 2.0 * np.pi, quadrature_nodes=96))
    levels = [8, 9, 10, 11, 12, 12, 12, 12, 12]
    fam_at = lambda j: other if j == 7 else fam
    for cached, oracle in gap_norm_levels(fam_at, levels, 2, ref, quad_problem, 64):
        assert cached == oracle
    e = bs.Expansion(np.ones((3, 2)), fam)
    assert objective_gap_norm(quad_problem, e, ref) == gap_norm_uncached(quad_problem, e, ref)


def test_gap_norm_cache_equals_uncached_along_piecewise_refinement(cut_measure):
    g = random_cut_graph(np.random.default_rng(65), 6, theta_range=(0.0, 4.0))
    p = uq.mincut_problem(g, cut_measure)
    fstar = min_cut_value_function(g)
    rng = np.random.default_rng(66)
    fams = [uq.piecewise_family(cut_measure)]
    for n in range(1, 7):
        fams.append(fams[-1].grow(uq.zero_expansion(fams[-1], n, p.dimension), n + 1, rng).basis)
    # the same cell count over another partition: only the family tells them apart
    twin = uq.piecewise_family(cut_measure, bs.Partition((0.5, 1.0, 1.5, 2.0, 2.5, 3.0)))
    assert twin.partition != fams[-1].partition
    seq = fams + [fams[-1], twin, fams[-1]]
    levels = [f.partition.n_cells for f in seq]
    for cached, oracle in gap_norm_levels(lambda j: seq[j], levels, p.dimension, fstar, p, 67):
        assert cached == oracle


def test_ball_projection_of_a_vector_whose_squared_norm_overflows():
    u = np.full((8, 2), 1e200)  # finite, with u . u = inf
    with np.errstate(over="ignore"):
        out = project_coefficients(u, uq.l2_ball(1.5))
    assert np.isclose(np.linalg.norm(out), 1.5, rtol=1e-15, atol=0.0)
    assert np.all(out > 0) and np.ptp(out / u) == 0.0  # parallel: one common factor
    assert project_coefficients(out, uq.l2_ball(1.5)) is out
    with np.errstate(over="ignore"):  # inside a ball larger still, u is feasible as it is
        assert project_coefficients(u, uq.l2_ball(1e300)) is u
        half = project_coefficients(u, uq.l2_ball(2e200))  # its norm is 4e200
    assert np.isclose(np.linalg.norm(half / 1e200), 2.0, rtol=1e-15) and np.ptp(half / u) == 0.0
