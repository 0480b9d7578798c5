import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad.problems import _CutEdges, _greedy_batch, project_coefficients
from uqsubgrad.submodular import min_cut_value_function, random_cut_graph


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
    closed = uq.chain_relaxation_closed_form(X, thetas)
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


def test_mincut_lipschitz_bounds_vertices(cut_problem):
    rng = np.random.default_rng(37)
    X = rng.random((500, 2))
    thetas = rng.uniform(0.0, 4.0, size=500)
    g = cut_problem.subgradient(X, thetas)
    assert np.linalg.norm(g, axis=-1).max() <= cut_problem.lipschitz


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
