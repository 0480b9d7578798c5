import numpy as np
import pytest

import uqsubgrad as uq


def test_probability_normalisation(unit_measure):
    one = lambda t: np.ones_like(t)
    assert uq.inner_product(one, one, unit_measure) == pytest.approx(1.0, abs=1e-12)
    assert unit_measure.weights.min() >= 0
    assert unit_measure.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_inner_product_closed_forms(unit_measure):
    # int_0^1 theta dtheta = 1/2
    assert uq.inner_product(lambda t: t, lambda t: np.ones_like(t), unit_measure) == pytest.approx(
        0.5, abs=1e-10
    )
    # int_0^pi sin^2(theta) dtheta / pi = 1/2
    half_circle = uq.ThetaMeasure(0.0, np.pi)
    assert uq.inner_product(np.sin, np.sin, half_circle) == pytest.approx(0.5, abs=1e-8)


def test_pi_norm_closed_forms(unit_measure):
    assert uq.pi_norm(lambda t: np.zeros_like(t), unit_measure) == 0.0
    assert uq.pi_norm(lambda t: np.full_like(t, -3.7), unit_measure) == pytest.approx(3.7, abs=1e-12)
    assert uq.pi_norm(lambda t: t, unit_measure) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)


def test_vector_fields_contract_componentwise(unit_measure):
    f = lambda t: np.stack([t, np.ones_like(t)], axis=-1)
    # ||f||^2 = int t^2 + int 1 = 1/3 + 1
    assert uq.pi_norm(f, unit_measure) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-10)


def test_sampling_support_and_determinism(unit_measure):
    rng = np.random.default_rng(42)
    draws = uq.sample_theta(unit_measure, rng, size=1000)
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
    again = uq.sample_theta(unit_measure, np.random.default_rng(42), size=1000)
    assert np.array_equal(draws, again)
    single = uq.sample_theta(unit_measure, np.random.default_rng(7))
    assert isinstance(single, float) and 0.0 <= single <= 1.0


def test_sampling_mean_clt(unit_measure):
    draws = uq.sample_theta(unit_measure, np.random.default_rng(3), size=10**5)
    # CLT: sd of the mean is (1/sqrt(12))/sqrt(1e5) ~ 9e-4, so 0.01 is >10 sigma
    assert abs(draws.mean() - 0.5) < 0.01


def test_cauchy_schwarz_under_shared_rule(unit_measure):
    rng = np.random.default_rng(11)
    for _ in range(25):
        cf = rng.standard_normal(4)
        cg = rng.standard_normal(4)
        f = lambda t, c=cf: c[0] + c[1] * t + c[2] * np.sin(3 * t) + c[3] * t**2
        g = lambda t, c=cg: c[0] + c[1] * t + c[2] * np.cos(2 * t) + c[3] * t**3
        ip = uq.inner_product(f, g, unit_measure)
        bound = uq.pi_norm(f, unit_measure) * uq.pi_norm(g, unit_measure)
        assert abs(ip) <= bound * (1 + 1e-12) + 1e-15


def test_quadrature_consistency_under_node_doubling():
    coarse = uq.ThetaMeasure(0.0, 1.0, quadrature_nodes=128)
    fine = uq.ThetaMeasure(0.0, 1.0, quadrature_nodes=256)
    f = lambda t: np.exp(np.sin(3.0 * t))
    assert abs(uq.pi_norm(f, coarse) - uq.pi_norm(f, fine)) < 1e-8


def test_scalar_field_purity(unit_measure):
    f = lambda t: np.cos(t) ** 2
    t = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(f(t), f(t))


def test_invalid_support_rejected():
    with pytest.raises(ValueError):
        uq.ThetaMeasure(1.0, 1.0)
    with pytest.raises(ValueError):
        uq.ThetaMeasure(2.0, 1.0)
    with pytest.raises(TypeError):  # the measure has no kind option
        uq.ThetaMeasure(0.0, 1.0, kind="gaussian")


def test_field_evaluation_errors_propagate(unit_measure):
    def bad(t):
        raise RuntimeError("cannot evaluate")

    with pytest.raises(RuntimeError):
        uq.inner_product(bad, bad, unit_measure)


def test_composite_rule_matches_global_on_smooth(unit_measure):
    nodes, weights = unit_measure.composite_rule((0.3, 0.7), nodes_per_cell=16)
    f = np.sin
    composite = float(np.dot(weights, f(nodes) ** 2))
    direct = uq.inner_product(f, f, unit_measure)
    assert composite == pytest.approx(direct, abs=1e-12)
