import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs


@pytest.fixture(scope="module")
def leg(unit_measure):
    return uq.legendre_family(unit_measure)


@pytest.fixture(scope="module")
def halves(unit_measure):
    return uq.piecewise_family(unit_measure, uq.Partition((0.5,)))


def test_legendre_gram_is_identity(leg, unit_measure):
    B = leg.eval_matrix(unit_measure.nodes, 32)
    gram = np.einsum("ni,nj,n->ij", B, B, unit_measure.weights)
    assert np.abs(gram - np.eye(32)).max() < 1e-8


def test_eval_matrix_is_defined_once_on_the_base_class(halves):
    # wrapping BasisFamily.eval_matrix must reach every family's calls
    assert bs.LegendreFamily.eval_matrix is bs.BasisFamily.eval_matrix
    assert bs.PiecewiseFamily.eval_matrix is bs.BasisFamily.eval_matrix
    with pytest.raises(ValueError):
        halves.eval_matrix(np.array([0.25, 0.75]), 2)


def test_synthesize_constant(leg):
    e = uq.Expansion(np.array([[2.5]]), leg)
    for theta in (0.0, 0.3, 1.0):
        assert uq.synthesize(e, theta)[0] == pytest.approx(2.5, abs=1e-12)


def test_synthesize_piecewise_raw_cell_value(halves):
    # raw cell values: the function simply takes the stored value on its cell
    e = uq.Expansion(np.array([[2.0], [5.0]]), halves)
    assert uq.synthesize(e, 0.7)[0] == 5.0
    assert uq.synthesize(e, 0.2)[0] == 2.0
    assert uq.synthesize(e, 0.5)[0] == 5.0  # breakpoint belongs to the right cell


def test_synthesize_odd_polynomial_vanishes_at_midpoint(leg):
    e = uq.Expansion(np.array([[0.0], [1.0]]), leg)
    assert abs(uq.synthesize(e, 0.5)[0]) < 1e-12


def test_synthesize_outside_support_rejected(leg):
    e = uq.Expansion(np.array([[1.0]]), leg)
    with pytest.raises(ValueError):
        uq.synthesize(e, 1.5)


def test_analyze_constant_projects_onto_constant(leg):
    e = uq.analyze(lambda t: np.full_like(t, 4.2), leg, 6)
    assert e.coefficients[0, 0] == pytest.approx(4.2, abs=1e-10)
    assert np.abs(e.coefficients[1:]).max() < 1e-10


@pytest.mark.parametrize("family_name", ["legendre", "piecewise"])
def test_analyze_round_trip_on_span(family_name, unit_measure):
    rng = np.random.default_rng(5)
    if family_name == "legendre":
        fam = uq.legendre_family(unit_measure)
        coeffs = rng.standard_normal((8, 2))
    else:
        fam = uq.piecewise_family(
            unit_measure, uq.Partition(tuple(np.sort(rng.uniform(0.05, 0.95, size=7))))
        )
        coeffs = rng.standard_normal((8, 2))
    e = uq.Expansion(coeffs, fam)
    recovered = uq.analyze(lambda t: uq.synthesize(e, t), fam, 8)
    assert np.abs(recovered.coefficients - coeffs).max() < 1e-8


def test_analyze_piecewise_interval_averages(halves):
    # averages of f(theta)=theta over [0, .5) and [.5, 1] are 1/4 and 3/4
    e = uq.analyze(lambda t: t, halves, 2)
    assert e.coefficients[:, 0] == pytest.approx([0.25, 0.75], abs=1e-12)


def test_truncate_noop(leg):
    e = uq.Expansion(np.arange(6.0).reshape(3, 2), leg)
    out, rem = uq.truncate(e, 3)
    assert rem == 0.0
    assert np.array_equal(out.coefficients, e.coefficients)


def test_truncate_pythagoras(leg):
    e = uq.Expansion(np.array([[3.0], [4.0]]), leg)
    out, rem = uq.truncate(e, 1)
    assert rem == 4.0
    assert out.m == 1


def test_truncate_parseval(leg):
    rng = np.random.default_rng(9)
    e = uq.Expansion(rng.standard_normal((16, 3)), leg)
    kept, rem = uq.truncate(e, 8)
    total = uq.expansion_pi_norm(e)
    kept_norm = uq.expansion_pi_norm(kept)
    assert kept_norm**2 + rem**2 == pytest.approx(total**2, abs=1e-10)


def test_truncate_out_of_range(leg):
    e = uq.Expansion(np.ones((4, 1)), leg)
    with pytest.raises(ValueError):
        uq.truncate(e, 0)
    with pytest.raises(ValueError):
        uq.truncate(e, 5)


def test_truncate_piecewise_zeroes_tail_with_weighted_remainder(unit_measure):
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.5,)))
    e = uq.Expansion(np.array([[3.0], [4.0]]), fam)
    out, rem = uq.truncate(e, 1)
    assert np.array_equal(out.coefficients, np.array([[3.0], [0.0]]))
    assert rem == pytest.approx(4.0 * np.sqrt(0.5), abs=1e-12)


def test_parseval_both_families(unit_measure):
    rng = np.random.default_rng(21)
    leg = uq.legendre_family(unit_measure)
    e1 = uq.Expansion(rng.standard_normal((10, 2)), leg)
    direct = uq.pi_norm(lambda t: uq.synthesize(e1, t), unit_measure)
    assert uq.expansion_pi_norm(e1) == pytest.approx(direct, abs=1e-10)

    fam = uq.piecewise_family(unit_measure, uq.Partition((0.2, 0.6, 0.9)))
    e2 = uq.Expansion(rng.standard_normal((4, 2)), fam)
    # measure-weighted coefficients satisfy Parseval for the indicator family
    w = bs.cell_measures(fam.partition, unit_measure)
    assert uq.expansion_pi_norm(e2) == pytest.approx(
        np.sqrt(np.sum(w[:, None] * e2.coefficients**2)), abs=1e-12
    )
    # direct quadrature must align panels with the cells to see the jumps
    nodes, weights = unit_measure.composite_rule(fam.partition.breakpoints)
    direct2 = np.sqrt(np.einsum("nq,nq,n->", *(uq.synthesize(e2, nodes),) * 2, weights))
    assert uq.expansion_pi_norm(e2) == pytest.approx(direct2, abs=1e-10)


def test_refine_partition_insertion():
    p = uq.Partition((0.5,))
    assert uq.refine_partition(p, 0.25).breakpoints == (0.25, 0.5)
    assert uq.refine_partition(uq.Partition(), 0.7).breakpoints == (0.7,)
    with pytest.raises(uq.PartitionRejection):
        uq.refine_partition(p, 0.5)
    with pytest.raises(uq.PartitionRejection):
        uq.refine_partition(p, 0.0, support=(0.0, 1.0))
    with pytest.raises(uq.PartitionRejection):
        uq.refine_partition(p, 1.0, support=(0.0, 1.0))


def test_transfer_preserves_values_off_breakpoints(unit_measure):
    rng = np.random.default_rng(17)
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.4,)))
    e = uq.Expansion(np.array([[1.5, -2.0], [0.25, 3.0]]), fam)
    p_new = uq.refine_partition(fam.partition, 0.8)
    moved = uq.transfer_coefficients(e, p_new)
    thetas = rng.uniform(0.0, 1.0, size=100)
    assert np.allclose(uq.synthesize(moved, thetas), uq.synthesize(e, thetas))


def test_transfer_composes(unit_measure):
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.5,)))
    e = uq.Expansion(np.array([[1.0], [2.0]]), fam)
    p1 = uq.refine_partition(fam.partition, 0.25)
    p2 = uq.refine_partition(p1, 0.75)
    via_steps = uq.transfer_coefficients(uq.transfer_coefficients(e, p1), p2)
    direct = uq.transfer_coefficients(e, p2)
    assert np.array_equal(via_steps.coefficients, direct.coefficients)


def test_transfer_then_analyze_round_trip(unit_measure):
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.3, 0.7)))
    e = uq.Expansion(np.array([[1.0], [-0.5], [2.0]]), fam)
    p_new = uq.refine_partition(fam.partition, 0.55)
    moved = uq.transfer_coefficients(e, p_new)
    back = uq.analyze(lambda t: uq.synthesize(moved, t), moved.basis, 4)
    assert np.abs(back.coefficients - moved.coefficients).max() < 1e-10


def test_transfer_requires_finer_partition(unit_measure):
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.5,)))
    e = uq.Expansion(np.array([[1.0], [2.0]]), fam)
    with pytest.raises(ValueError):
        uq.transfer_coefficients(e, uq.Partition((0.25,)))


def test_max_gap_trivial(unit_measure):
    assert uq.max_gap_measure(uq.Partition(), unit_measure) == 1.0
    assert uq.max_gap_measure(uq.Partition((0.25, 0.5)), unit_measure) == 0.5


def test_max_gap_matches_monte_carlo_oracle(unit_measure):
    # Oracle: expected max spacing of n uniform points, estimated directly
    # from sorted uniform draws (independent of the partition machinery).
    n = 200
    rng = np.random.default_rng(101)
    draws = rng.uniform(0.0, 1.0, size=(10_000, n))
    pts = np.sort(draws, axis=1)
    gaps = np.diff(np.concatenate(
        [np.zeros((draws.shape[0], 1)), pts, np.ones((draws.shape[0], 1))], axis=1
    ), axis=1)
    oracle = gaps.max(axis=1).mean()

    rng2 = np.random.default_rng(55)
    vals = []
    for _ in range(200):
        p = uq.Partition()
        while p.n_cells < n + 1:
            try:
                p = uq.refine_partition(p, rng2.uniform(0.0, 1.0))
            except uq.PartitionRejection:
                continue
        vals.append(uq.max_gap_measure(p, unit_measure))
    assert np.mean(vals) == pytest.approx(oracle, rel=0.15)


def test_serialization_round_trip(unit_measure):
    rng = np.random.default_rng(23)
    leg = uq.legendre_family(unit_measure)
    e = uq.Expansion(rng.standard_normal((5, 2)), leg)
    back = uq.expansion_from_text(uq.expansion_to_text(e))
    assert np.array_equal(back.coefficients, e.coefficients)
    assert back.basis.kind == e.basis.kind
    assert back.basis.measure == e.basis.measure

    fam = uq.piecewise_family(unit_measure, uq.Partition((0.25, 0.7)))
    e2 = uq.Expansion(rng.standard_normal((3, 1)), fam)
    back2 = uq.expansion_from_text(uq.expansion_to_text(e2))
    assert np.array_equal(back2.coefficients, e2.coefficients)
    assert back2.basis.partition.breakpoints == (0.25, 0.7)

    with pytest.raises(ValueError):
        uq.expansion_from_text("not an expansion\n")


def test_expansion_validation(unit_measure):
    leg = uq.legendre_family(unit_measure)
    with pytest.raises(ValueError):
        uq.Expansion(np.array([[np.nan]]), leg)
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.5,)))
    with pytest.raises(ValueError):
        uq.Expansion(np.ones((3, 1)), fam)  # 3 rows for 2 cells
