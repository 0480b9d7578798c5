import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs


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
