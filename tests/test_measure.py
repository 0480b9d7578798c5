from decimal import Decimal

import numpy as np
import pytest

import uqsubgrad as uq
from oracles import gauss_legendre_decimal, sample_theta
from uqsubgrad import measure


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
    draws = sample_theta(unit_measure, rng, size=1000)
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
    again = sample_theta(unit_measure, np.random.default_rng(42), size=1000)
    assert np.array_equal(draws, again)
    single = sample_theta(unit_measure, np.random.default_rng(7))
    assert isinstance(single, float) and 0.0 <= single <= 1.0


def test_sampling_mean_clt(unit_measure):
    draws = sample_theta(unit_measure, np.random.default_rng(3), size=10**5)
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
    # an infinite end, and finite ends whose width overflows
    for a, b in ((0.0, np.inf), (-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))):
        with pytest.raises(ValueError, match="finite b - a"):
            uq.ThetaMeasure(a, b)
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


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64, 127, 128, 129])
def test_gauss_legendre_rule_matches_a_40_digit_rule(n):
    """Every node within 2.3e-16 (two ulps below 1) and every weight within
    1e-12 relative of the decimal rule; n = 128 is the default node count."""
    x, w = measure._gauss_legendre(n)
    ref_x, ref_w = gauss_legendre_decimal(n)
    assert x.shape == w.shape == (n,)
    assert max(abs(Decimal(float(a)) - b) for a, b in zip(x, ref_x)) <= Decimal("2.3e-16")
    assert max(abs(Decimal(float(a)) / b - 1) for a, b in zip(w, ref_w)) <= Decimal("1e-12")


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64, 127, 128, 129, 1024])
def test_gauss_legendre_rule_is_exactly_symmetric(n):
    x, w = measure._gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and w.tobytes() == w[::-1].tobytes()
    if n % 2:
        assert x[n // 2] == 0.0


def test_gauss_legendre_rule_integrates_even_moments_at_1024_nodes():
    """sum w x^(2k) = 2 / (2k + 1) for k < 200, all of degree < 2n."""
    x, w = measure._gauss_legendre(1024)
    k = np.arange(200)
    moments = (w[:, None] * x[:, None] ** (2 * k)).sum(axis=0)
    assert np.abs(moments - 2 / (2 * k + 1)).max() <= 2e-15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64, 127, 128, 129, 1024])
def test_gauss_legendre_rule_agrees_with_numpy_leggauss(n):
    """Within numpy's own error: its eigensolver's weights drift from the exact
    ones as n grows, to about 1.2e-9 relative at 1024 nodes."""
    x, w = measure._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - ref_x).max() <= 2.3e-16
    assert np.abs(w / ref_w - 1).max() <= 2e-9


def test_cached_gauss_legendre_rule_is_read_only():
    """Every measure and composite rule shares the cached arrays: an in-place
    write raises, so a later measure still gets the exact rule."""
    x, w = measure._gauss_legendre(16)
    expected = x.tobytes(), w.tobytes()
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.5
        with pytest.raises(ValueError):
            a *= 2.0
    m = uq.ThetaMeasure(-1.0, 1.0, quadrature_nodes=16)
    assert (m.nodes.tobytes(), (2.0 * m.weights).tobytes()) == expected
