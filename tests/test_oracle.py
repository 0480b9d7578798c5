import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad.oracle import ThetaBlock
from uqsubgrad.submodular import random_cut_graph


def constant_subgradient_problem(c):
    c = np.asarray(c, dtype=float)

    def objective(x, theta):
        return np.einsum("...q,q->...", np.asarray(x, float), c)

    def subgradient(x, theta, noise=None):
        g = np.broadcast_to(c, np.shape(x)).copy()
        return g if noise is None else g + noise

    return uq.ProblemSpec(
        dimension=len(c),
        objective=objective,
        subgradient=subgradient,
        projection=uq.no_projection(),
        lipschitz=float(np.linalg.norm(c)),
    )


@pytest.mark.parametrize(
    "family, m, ok",
    [
        ("legendre", 0, False), ("legendre", 1, True), ("legendre", 4, True),
        ("legendre", 5, False),
        ("piecewise", 1, False), ("piecewise", 3, False), ("piecewise", 4, True),
        ("piecewise", 5, False),
    ],
)
def test_estimator_level_check_per_family(cut_measure, family, m, ok):
    # Legendre estimates any truncation level up to e.m; piecewise uses all cells
    fam = uq.legendre_family(cut_measure) if family == "legendre" else uq.piecewise_family(
        cut_measure, uq.Partition((1.0, 2.0, 3.0)))
    e = bs.zero_expansion(fam, 4, 2)
    estimate = lambda: uq.estimate_truncated_subgradient(
        constant_subgradient_problem([1.0, -1.0]), e, m, uq.OracleConfig(8),
        np.random.default_rng(0),
    )
    if ok:
        assert estimate().shape == (m, 2)
    else:
        with pytest.raises(ValueError):
            estimate()


def test_constant_field_concentrates_on_constant_basis(unit_measure):
    c = np.array([2.0, -1.0])
    p = constant_subgradient_problem(c)
    fam = uq.legendre_family(unit_measure)
    e = bs.zero_expansion(fam, 6, 2)
    n = 4096
    est = uq.estimate_truncated_subgradient(
        p, e, 6, uq.OracleConfig(n), np.random.default_rng(1)
    )
    # rows i > 1 average c * B_i(theta): zero mean, sd |c|/sqrt(n)
    tol = 5.0 * np.abs(c).max() / np.sqrt(n)
    assert np.abs(est[0] - c).max() < tol
    assert np.abs(est[1:]).max() < tol


def test_zero_noise_mean_matches_quadrature_coefficients(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((6, 2)) * 0.3
    e = bs.Expansion(u, fam)
    cfg = uq.OracleConfig(64)

    field = lambda t: quad_problem.subgradient(uq.synthesize(e, t), t)
    exact = uq.analyze(field, fam, 6).coefficients

    reps = 200
    samples = np.empty((reps, 6, 2))
    for r in range(reps):
        samples[r] = uq.estimate_truncated_subgradient(
            quad_problem, e, 6, cfg, np.random.default_rng(100 + r)
        )
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)


def test_piecewise_estimator_matches_cell_averages(cut_problem, cut_measure):
    fam = uq.piecewise_family(cut_measure, uq.Partition((1.0, 2.5)))
    rng = np.random.default_rng(9)
    e = bs.Expansion(rng.random((3, 2)), fam)
    cfg = uq.OracleConfig(64)

    field = lambda t: cut_problem.subgradient(uq.synthesize(e, t), t)
    exact = uq.analyze(field, fam, 3).coefficients

    reps = 300
    samples = np.empty((reps, 3, 2))
    for r in range(reps):
        samples[r] = uq.estimate_truncated_subgradient(
            cut_problem, e, 3, cfg, np.random.default_rng(500 + r)
        )
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(mean - exact) <= 4.0 * se + 1e-12)


def test_single_sample_determinism(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    e = bs.zero_expansion(fam, 4, 2)
    cfg = uq.OracleConfig(1)
    a = uq.estimate_truncated_subgradient(quad_problem, e, 4, cfg, np.random.default_rng(7))
    b = uq.estimate_truncated_subgradient(quad_problem, e, 4, cfg, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_variance_constant_exact(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    probes = [bs.zero_expansion(fam, 4, 2)]
    rng = np.random.default_rng(11)
    silent = uq.estimate_G_V(quad_problem, probes, uq.OracleConfig(64), rng)
    assert silent.V_sq == 0.0
    noisy_cfg = uq.OracleConfig(64, noise=uq.NoiseModel("additive_gaussian", 0.1))
    noisy = uq.estimate_G_V(quad_problem, probes, noisy_cfg, rng)
    assert noisy.V_sq == 0.1**2 * 2  # sum of per-component variances, exact


def test_gsq_bounded_by_lipschitz(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    rng = np.random.default_rng(13)
    probes = [bs.zero_expansion(fam, 6, 2)]
    for _ in range(3):
        u = rng.standard_normal((6, 2))
        u = uq.problems.project_coefficients(u, quad_problem.projection)
        probes.append(bs.Expansion(u, fam))
    gv = uq.estimate_G_V(quad_problem, probes, uq.OracleConfig(128), rng)
    assert gv.G_sq <= 1.5 * quad_problem.lipschitz**2


def test_second_moment_bound_on_probes(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    rng = np.random.default_rng(17)
    probes = [bs.zero_expansion(fam, 6, 2)]
    for _ in range(4):
        u = uq.problems.project_coefficients(
            rng.standard_normal((6, 2)), quad_problem.projection
        )
        probes.append(bs.Expansion(u, fam))
    sigma = 0.2
    cfg = uq.OracleConfig(256, noise=uq.NoiseModel("additive_gaussian", sigma))
    gv = uq.estimate_G_V(quad_problem, probes, cfg, rng)
    for e in probes:
        thetas = rng.uniform(quad_measure.a, quad_measure.b, size=2000)
        noise = cfg.noise.draw(rng, (2000, 2))
        g = quad_problem.subgradient(uq.synthesize(e, thetas), thetas, noise)
        assert np.mean(np.sum(g**2, axis=-1)) <= gv.G_sq + gv.V_sq


def test_probe_and_sample_validation(quad_problem, quad_measure):
    fam = uq.legendre_family(quad_measure)
    with pytest.raises(ValueError):
        uq.estimate_G_V(quad_problem, [], uq.OracleConfig(8), np.random.default_rng(0))
    with pytest.raises(ValueError):
        uq.OracleConfig(0)
    e = bs.zero_expansion(fam, 4, 2)
    with pytest.raises(ValueError):
        uq.estimate_truncated_subgradient(
            quad_problem, e, 5, uq.OracleConfig(8), np.random.default_rng(0)
        )


def rule_families(cut_measure):
    """The 128-node Legendre rule and the composite rule of a 7-breakpoint
    partition, whose cells differ in width by up to 40x."""
    part = uq.Partition((0.05, 0.1, 0.9, 1.0, 2.0, 2.02, 3.5))
    return {"legendre": uq.legendre_family(cut_measure),
            "piecewise": uq.piecewise_family(cut_measure, part)}


@pytest.mark.parametrize("family", ["legendre", "piecewise"])
def test_rule_draw_frequencies_match_rule_weights(cut_measure, family):
    fam = rule_families(cut_measure)[family]
    nodes, w = fam.rule()
    n = 200_000
    idx = fam.rule_index(np.random.default_rng(71).random(n))
    counts = np.bincount(idx, minlength=len(nodes))
    assert len(counts) == len(nodes) == (128 if family == "legendre" else 64)
    p = w / w.sum()
    assert np.all(np.abs(counts - n * p) <= 5.0 * np.sqrt(n * p * (1.0 - p)))


def test_rule_index_grid_equals_binary_search_on_the_cdf(cut_measure):
    # the grid answers most draws without a search: it must agree with the
    # search everywhere, on CDF steps, on grid points and in cells that hold
    # several steps (two cells of width 1e-9 put 17 steps in one grid cell)
    fams = list(rule_families(cut_measure).values())
    fams.append(uq.piecewise_family(cut_measure, uq.Partition((1.0, 1.0 + 1e-9, 1.0 + 2e-9))))
    rng = np.random.default_rng(72)
    for fam in fams:
        cdf, first = fam._cdf
        K = len(first) - 1
        assert K & (K - 1) == 0 and K >= 8 * (len(cdf) + 1)
        u = np.concatenate([rng.random(20_000), cdf, np.nextafter(cdf, 0.0),
                            np.arange(K) / K, np.nextafter(np.arange(1, K + 1) / K, 0.0)])
        assert np.array_equal(fam.rule_index(u), np.searchsorted(cdf, u, side="right"))
        assert fam.rule_index(u.reshape(-1, 2)).shape == (len(u) // 2, 2)


class RuleWalk:
    """A stand-in generator whose ``random`` lands once on each rule node in
    turn: the midpoint of each node's CDF step."""

    def __init__(self, fam):
        c = np.concatenate(([0.0], fam._cdf[0], [1.0]))
        self.u = 0.5 * (c[:-1] + c[1:])

    def random(self, shape):
        return self.u.reshape(shape)


@pytest.mark.parametrize("family", ["legendre", "piecewise"])
def test_expected_block_estimate_equals_analyze_on_the_rule(cut_measure, family):
    # each row of a one-sample block lands on one rule node, so the
    # weight-averaged rows are the estimator's exact expectation
    rng = np.random.default_rng(73)
    fam = rule_families(cut_measure)[family]
    if family == "legendre":
        p = uq.quadratic_problem(1.0, 50.0, cut_measure)
        e, m = bs.Expansion(rng.standard_normal((12, 2)) * 0.3, fam), 9
    else:
        p = uq.mincut_problem(random_cut_graph(rng, 5), cut_measure)
        e = bs.Expansion(rng.integers(0, 3, size=(8, 5)) / 2.0, fam)
        m = e.m
    nodes, w = fam.rule()
    walk = RuleWalk(fam)
    assert np.array_equal(fam.rule_index(walk.u), np.arange(len(nodes)))
    block = ThetaBlock.draw(p, e, len(nodes), uq.OracleConfig(1), walk)
    expected = sum(wj * block.estimate(j, e.coefficients, m) for j, wj in enumerate(w / w.sum()))
    field = lambda t: p.subgradient(uq.synthesize(e, t), t)
    exact = uq.analyze(field, fam, m).coefficients
    assert np.abs(expected - exact).max() <= 1e-15 * np.abs(exact).max()


def test_block_draws_one_uniform_per_theta_then_the_noise(cut_measure):
    # a problem without a stage hook sees the rule nodes drawn from the
    # block's uniforms, and the noise comes after them in the stream
    seen = []

    def subgradient(x, theta, noise=None):
        seen.append(np.array(theta))
        g = np.ones(np.shape(x))
        return g if noise is None else g + noise

    p = uq.ProblemSpec(2, lambda x, t: np.zeros(np.shape(x)[:-1]), subgradient,
                       uq.no_projection(), 1.0)
    cfg = uq.OracleConfig(5, uq.NoiseModel("additive_gaussian", 0.5))
    for fam in rule_families(cut_measure).values():
        e = bs.zero_expansion(fam, fam.rows(4), 2)
        seen.clear()
        block = ThetaBlock.draw(p, e, 3, cfg, np.random.default_rng(74))
        for t in range(3):
            block.estimate(t, e.coefficients, e.m)
        ref = np.random.default_rng(74)
        idx = fam.rule_index(ref.random((3, 5)))
        assert np.array_equal(np.array(seen), fam.rule()[0][idx])
        assert np.array_equal(block.noise, 0.5 * ref.standard_normal((3, 5, 2)))


def probe_set(cut_measure, family):
    """Three feasible probes: Legendre ones of the quadratic, or piecewise
    ones of a 5-node cut on rule_families' uneven partition."""
    rng = np.random.default_rng(75)
    fam = rule_families(cut_measure)[family]
    if family == "legendre":
        p = uq.quadratic_problem(1.0, 50.0, cut_measure)
        blocks = [rng.standard_normal((8, 2)) for _ in range(3)]
    else:
        p = uq.mincut_problem(random_cut_graph(rng, 5), cut_measure)
        blocks = [rng.random((8, 5)) for _ in range(3)]
    return p, [bs.Expansion(uq.problems.project_coefficients(u, p.projection), fam)
               for u in blocks]


@pytest.mark.parametrize("family", ["legendre", "piecewise"])
def test_probe_draws_nothing_from_the_stream(cut_measure, family):
    p, probes = probe_set(cut_measure, family)
    rng = np.random.default_rng(76)
    state = rng.bit_generator.state
    uq.estimate_G_V(p, probes, uq.OracleConfig(64), rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("family", ["legendre", "piecewise"])
def test_probe_second_moment_is_the_rule_sum(cut_measure, family):
    # what a stage samples: each rule node with probability its weight
    p, probes = probe_set(cut_measure, family)
    worst = 0.0
    for e in probes:
        nodes, w = e.basis.rule()
        moment = 0.0
        for theta, wj in zip(nodes, w):
            g = p.subgradient(uq.synthesize(e, np.array([theta])), np.array([theta]))[0]
            moment += wj * sum(gi * gi for gi in g)
        worst = max(worst, moment)
    gv = uq.estimate_G_V(p, probes, uq.OracleConfig(64), np.random.default_rng(77))
    assert worst > 0 and abs(gv.G_sq - 1.5 * worst) <= 1e-12 * 1.5 * worst


@pytest.mark.parametrize("family", ["legendre", "piecewise"])
def test_probe_ignores_the_stage_sample_count(cut_measure, family):
    p, probes = probe_set(cut_measure, family)
    gvs = [uq.estimate_G_V(p, probes, uq.OracleConfig(n), np.random.default_rng(78))
           for n in (1, 64, 4096)]
    assert gvs[0] == gvs[1] == gvs[2]
