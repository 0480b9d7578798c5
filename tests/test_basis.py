import inspect

import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad import measure

from oracles import legendre_einsum_coefficients, piecewise_cell_averages


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


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("n_breakpoints", [0, 1, 7, 40])
def test_piecewise_analyze_equals_add_at_cell_averages_bytes(unit_measure, q, n_breakpoints):
    rng = np.random.default_rng(300 + n_breakpoints)
    part = uq.Partition(tuple(np.sort(rng.uniform(0.01, 0.99, size=n_breakpoints))))
    fam = uq.piecewise_family(unit_measure, part)
    if q == 1:  # a scalar field, shape (n,)
        f = lambda t: np.sin(7.0 * t) * np.exp(t)
    else:
        f = lambda t: np.stack([np.sin(7.0 * t) * np.exp(t), np.abs(t - 0.3)], axis=-1)
    got = uq.analyze(f, fam, part.n_cells).coefficients
    ref = piecewise_cell_averages(f, fam, *fam.rule())
    assert got.shape == ref.shape == (part.n_cells, q)
    assert got.tobytes() == ref.tobytes()


def test_legendre_analyze_near_einsum_form(quad_measure):
    fam = uq.legendre_family(quad_measure)
    for m in range(1, 65):
        got = uq.analyze(uq.quadratic_reference, fam, m).coefficients
        ref = legendre_einsum_coefficients(uq.quadratic_reference, fam, m)
        assert np.abs(got - ref).max() <= 1e-15, m


def test_analyze_refuses_levels_the_estimator_refuses(leg, halves):
    for m in (0, 1, 3):  # the piecewise family keeps every cell
        with pytest.raises(ValueError, match="all cells"):
            uq.analyze(lambda t: t, halves, m)
    for m in (0, leg.max_level + 1):
        with pytest.raises(ValueError):
            uq.analyze(lambda t: t, leg, m)


def test_analyze_is_one_function_on_the_family_rule():
    # no family carries its own analyze, and each has one rule, with no option
    for cls in (bs.BasisFamily, *bs._FAMILIES.values()):
        assert "analyze" not in vars(cls)
    for cls in bs._FAMILIES.values():
        assert list(inspect.signature(cls.rule).parameters) == ["self"]


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


def test_partition_validation_keeps_python_floats_and_messages():
    p = uq.Partition(np.array([0.25, 0.5]))
    assert p.breakpoints == (0.25, 0.5) and all(type(c) is float for c in p.breakpoints)
    assert repr(uq.Partition([1, 2.5]).breakpoints) == "(1.0, 2.5)"
    assert uq.Partition().breakpoints == () and uq.Partition([]).n_cells == 1
    for bad in ((0.1, np.nan), (np.inf,), (-np.inf, 0.0)):
        with pytest.raises(ValueError, match="^breakpoints must be finite$"):
            uq.Partition(bad)
    for bad in ((0.5, 0.5), (0.5, 0.25), (0.1, 0.3, 0.2)):
        with pytest.raises(ValueError, match="^breakpoints must be strictly increasing and unique$"):
            uq.Partition(bad)
    for bad in (0.5, np.float64(0.5), ((0.1, 0.2),)):  # not a sequence of numbers
        with pytest.raises(TypeError):
            uq.Partition(bad)


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


def add_at_weighted_sum(fam, idx, g):
    """The estimator's per-cell sum as one unbuffered np.add.at: the bitwise
    reference for ``PiecewiseFamily.weighted_sum``."""
    acc = np.zeros((fam.partition.n_cells, g.shape[-1]))
    np.add.at(acc, idx, g)
    return acc


def test_piecewise_weighted_sum_equals_add_at_bitwise(unit_measure):
    fam = uq.piecewise_family(unit_measure, uq.Partition((0.2, 0.5, 0.9)))
    rng = np.random.default_rng(5)
    thetas = rng.uniform(0.0, 0.85, size=200)  # the last cell gets no sample
    idx = fam.design(thetas, fam.partition.n_cells)
    g = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-8, 9, size=(200, 1))
    g[7] = -0.0  # one sample contributes -0.0 to every component
    g[:, 2] = -0.0  # a component whose every contribution is -0.0
    out = fam.weighted_sum(idx, g, fam.partition.n_cells)
    ref = add_at_weighted_sum(fam, idx, g)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    assert not np.signbit(out[:, 2]).any()


def legendre_design_out_of_place(measure, theta, m):
    """The design as ``legvander / norms`` out of place: the reference for the
    in-place division of ``LegendreFamily``, equal in bytes and strides."""
    legvander = np.polynomial.legendre.legvander
    nodes = 2.0 * (measure.nodes - measure.a) / (measure.b - measure.a) - 1.0
    V = legvander(nodes, m - 1)
    norms = np.sqrt(np.einsum("nm,nm,n->m", V, V, measure.weights))
    x = 2.0 * (theta - measure.a) / (measure.b - measure.a) - 1.0
    return legvander(x, m - 1) / norms[:m]


@pytest.mark.parametrize("m", [1, 7, 32])
def test_legendre_design_in_place_equals_out_of_place_bitwise(m, quad_measure):
    rng = np.random.default_rng(60 + m)
    thetas = rng.uniform(quad_measure.a, quad_measure.b, size=(50, 64))
    thetas[0, :2] = quad_measure.a, quad_measure.b
    u = rng.standard_normal((m, 2))
    for theta in (thetas, thetas[3], quad_measure.nodes):
        B = uq.legendre_family(quad_measure).eval_matrix(theta, m)  # fresh norm cache
        ref = legendre_design_out_of_place(quad_measure, theta, m)
        # a length-1 axis has no meaningful stride (m == 1)
        layout = lambda a: [s for s, n in zip(a.strides, a.shape) if n > 1]
        assert B.shape == ref.shape and layout(B) == layout(ref)
        assert B.tobytes() == ref.tobytes()
        for t in range(len(theta) if theta.ndim == 2 else 1):
            row, ref_row = (B[t], ref[t]) if theta.ndim == 2 else (B, ref)
            assert (row @ u).tobytes() == (ref_row @ u).tobytes()


@pytest.mark.parametrize("deg", [0, 1, 7, 31, 63])
def test_legendre_vandermonde_equals_numpy_legvander_bitwise(deg):
    """The package's design repeats numpy's legvander, layout included, on
    the 128 Gauss nodes and on a stage-shaped block holding both ends."""
    block = np.random.default_rng(deg).uniform(-1.0, 1.0, size=(50, 64))
    block[0, :2] = -1.0, 1.0
    for x in (measure._gauss_legendre(128)[0], block):
        V, ref = bs._legvander(x, deg), np.polynomial.legendre.legvander(x, deg)
        assert V.shape == ref.shape == x.shape + (deg + 1,)
        assert V.strides == ref.strides and V.tobytes() == ref.tobytes()


def test_legendre_family_states_its_largest_level(quad_measure):
    for nodes in (128, 33):
        mes = uq.ThetaMeasure(quad_measure.a, quad_measure.b, quadrature_nodes=nodes)
        leg = uq.legendre_family(mes)
        assert leg.max_level == nodes // 2
        assert leg.eval_matrix(mes.nodes, leg.max_level).shape == (nodes, nodes // 2)
        with pytest.raises(ValueError, match="quadrature nodes"):
            leg.eval_matrix(mes.nodes, leg.max_level + 1)
    assert uq.piecewise_family(quad_measure).max_level == np.inf


@pytest.mark.parametrize("nodes", [128, 33])
def test_legendre_rule_table_prefixes_equal_the_design_bitwise(nodes, quad_measure):
    """Every evaluation at the rule nodes reads one table: rule_table(m) is
    design(nodes, m) in bytes and strides, so B @ c agrees to the last bit; a
    gathered block is the design at the drawn nodes, byte for byte; and a
    level above max_level is refused."""
    mes = uq.ThetaMeasure(quad_measure.a, quad_measure.b, quadrature_nodes=nodes)
    leg = uq.legendre_family(mes)
    c = np.random.default_rng(nodes + 1).standard_normal((leg.max_level, 3))
    for m in range(1, leg.max_level + 1):
        table, design = leg.rule_table(m), leg.design(mes.nodes, m)
        assert table.shape == design.shape == (nodes, m) and table.strides == design.strides
        assert not table.flags.writeable
        assert table.tobytes() == design.tobytes()
        assert (table @ c[:m]).tobytes() == (design @ c[:m]).tobytes()
    with pytest.raises(ValueError, match="quadrature nodes"):
        leg.rule_table(leg.max_level + 1)
    idx = np.random.default_rng(nodes).integers(0, nodes, size=(5, 7))
    for m in (1, leg.max_level // 2, leg.max_level):
        block = leg.rule_design(idx, m)
        assert block.shape == (5, 7, m)
        assert block.tobytes() == np.ascontiguousarray(leg.design(mes.nodes[idx], m)).tobytes()


def test_piecewise_rule_design_is_the_cell_of_each_drawn_node(cut_measure):
    fam = uq.piecewise_family(cut_measure, uq.Partition((0.5, 1.0, 3.0)))
    nodes = fam.rule()[0]
    idx = np.random.default_rng(8).integers(0, len(nodes), size=(6, 9))
    assert np.array_equal(fam.rule_table(fam.rows(1)), fam.design(nodes, fam.rows(1)))
    assert np.array_equal(fam.rule_design(idx, fam.rows(1)), fam.design(nodes[idx], fam.rows(1)))


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 10000])
def test_legendre_atoms_are_the_expansion_at_n_midpoints(n, quad_measure):
    rng = np.random.default_rng(n)
    mids = quad_measure.a + (quad_measure.b - quad_measure.a) / n * (np.arange(n) + 0.5)
    leg = uq.legendre_family(quad_measure)
    for q in (1, 2, 16):
        for m in (1, 32):
            e = uq.Expansion(rng.standard_normal((m, q)), leg)
            values, weights = leg.atoms(e, n)
            ref = uq.synthesize(e, mids)
            assert values.shape == (n, q) and np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()
            assert weights.shape == (n,) and (weights == 1.0 / n).all()


def test_piecewise_atoms_are_the_cell_values_and_cell_measures(unit_measure):
    rng = np.random.default_rng(5)
    part = uq.Partition(tuple(np.sort(rng.uniform(size=24))))
    fam = uq.piecewise_family(unit_measure, part)
    e = uq.Expansion(rng.standard_normal((25, 16)), fam)
    for n in (1, 3000):
        values, weights = fam.atoms(e, n)
        assert values is e.coefficients
        assert weights.tobytes() == (np.diff([0.0, *part.breakpoints, 1.0]) / 1.0).tobytes()
