import hashlib

import numpy as np
import pytest

import uqsubgrad as uq
from oracles import chain_relaxation_closed_form, exact_envelope_kinks
from uqsubgrad.submodular import BRUTE_FORCE_CAP, min_cut_value_function, random_cut_graph


def naive_cut(graph, sink_members, theta):
    """Independent edge enumeration: sum the weights of edges leaving the
    source side, with S interpreted as the sink-side non-terminals."""
    sink_side = set(sink_members) | {graph.sink}
    total = 0.0
    for u, v, base, slope in graph.edges:
        if u not in sink_side and v in sink_side:
            total += base + slope * theta
    return total


def all_masks_values(graph, theta):
    ground = graph.ground_set
    vals = {}
    for mask in range(2 ** len(ground)):
        S = frozenset(ground[i] for i in range(len(ground)) if mask >> i & 1)
        vals[mask] = naive_cut(graph, S, theta)
    return vals


def test_cut_value_edge_enumeration(demo_graph):
    cases = [(frozenset(), 3.0), (frozenset({"1", "2"}), 3.0), (frozenset({"2"}), 1.0)]
    for S, theta in cases:
        assert uq.cut_value(demo_graph, S, theta) == naive_cut(demo_graph, S, theta)
    # frozen values from the enumeration oracle
    assert uq.cut_value(demo_graph, frozenset(), 3.0) == 3.0
    assert uq.cut_value(demo_graph, {"1", "2"}, 3.0) == 3.0
    assert uq.cut_value(demo_graph, {"2"}, 1.0) == 2.0


def test_cut_value_errors(demo_graph):
    with pytest.raises(ValueError):
        uq.cut_value(demo_graph, {"2"}, 9.0)  # outside the theta range
    with pytest.raises(ValueError):
        uq.cut_value(demo_graph, {"nope"}, 1.0)


def test_graph_validation():
    with pytest.raises(ValueError):
        uq.CutGraph(("s", "t"), "s", "s", (), (0.0, 1.0))
    with pytest.raises(ValueError):
        uq.CutGraph(("s", "a", "t"), "s", "t", (("a", "a", 1.0, 0.0),), (0.0, 1.0))
    with pytest.raises(ValueError):
        # weight goes negative at theta = 4
        uq.CutGraph(("s", "a", "t"), "s", "t", (("s", "a", 1.0, -1.0),), (0.0, 4.0))
    for base, slope in [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (1e308, 1e308)]:
        with pytest.raises(ValueError, match="non-finite"):
            uq.CutGraph(("s", "a", "t"), "s", "t", (("s", "a", base, slope),), (0.0, 4.0))


def test_lovasz_matches_closed_form_fixture(demo_setfn):
    # value at (0,1), theta=3 equals the closed-form demo objective
    val = uq.lovasz_eval(demo_setfn, [0.0, 1.0], 3.0)
    assert val == 2.0
    assert val == chain_relaxation_closed_form(np.array([0.0, 1.0]), 3.0)
    assert uq.lovasz_eval(demo_setfn, [1.0, 1.0], 1.0) == 1.0


def test_lovasz_agrees_with_set_function_on_vertices():
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        g = random_cut_graph(rng, n)
        spec = uq.set_function(g)
        theta = float(rng.uniform(*g.theta_range))
        for mask in range(2**n):
            x = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
            S = frozenset(spec.ground_set[i] for i in range(n) if mask >> i & 1)
            assert uq.lovasz_eval(spec, x, theta) == spec.evaluator(S, theta)


def test_subgradient_inequality(demo_setfn):
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = rng.random(2)
        y = rng.random(2)
        theta = float(rng.uniform(0.0, 4.0))
        g = uq.lovasz_subgradient(demo_setfn, x, theta)
        lhs = uq.lovasz_eval(demo_setfn, y, theta)
        rhs = uq.lovasz_eval(demo_setfn, x, theta) + g @ (y - x)
        assert lhs - rhs >= -1e-9


def test_greedy_identity(demo_setfn):
    rng = np.random.default_rng(29)
    f_empty = demo_setfn.evaluator(frozenset(), 2.5)
    for _ in range(50):
        x = rng.random(2)
        theta = float(rng.uniform(0.0, 4.0))
        g = uq.lovasz_subgradient(demo_setfn, x, theta)
        f_empty = demo_setfn.evaluator(frozenset(), theta)
        assert g @ x + f_empty == pytest.approx(
            uq.lovasz_eval(demo_setfn, x, theta), abs=1e-12
        )


def test_tie_handling_value_invariant(demo_setfn):
    # permuting tied coordinates changes the chain but not the value
    x = np.array([0.4, 0.4])
    for theta in (0.5, 2.0, 3.5):
        v = uq.lovasz_eval(demo_setfn, x, theta)
        g = uq.lovasz_subgradient(demo_setfn, x, theta)
        assert v == pytest.approx(
            demo_setfn.evaluator(frozenset(), theta) + g @ x, abs=1e-12
        )
        # swapped spec: reverse ground order, same point
        swapped = uq.SetFunctionSpec(
            demo_setfn.ground_set[::-1],
            lambda S, th: demo_setfn.evaluator(S, th),
        )
        assert uq.lovasz_eval(swapped, x[::-1], theta) == pytest.approx(v, abs=1e-12)


def test_threshold_round():
    assert uq.threshold_round([0.99, 0.2], 0.05, ("1", "2")) == frozenset({"1"})
    assert uq.threshold_round([1.0, 1.0], 0.3, ("1", "2")) == frozenset({"1", "2"})
    with pytest.raises(ValueError):
        uq.threshold_round([0.5], 0.0, ("1",))


def test_phi_round_examples(demo_setfn):
    sol = uq.phi_round(demo_setfn, [0.0, 1.0], 3.0)
    assert sol.members == frozenset({"2"}) and sol.value == 2.0
    # thresholding the indicator of the unique min cut returns that cut
    for theta, members in ((1.0, {"1", "2"}), (3.0, {"2"})):
        x = np.array([1.0 if g in members else 0.0 for g in demo_setfn.ground_set])
        sol = uq.phi_round(demo_setfn, x, theta)
        assert sol.members == frozenset(members)
        assert sol.value == uq.brute_force_min(demo_setfn, theta).value


def test_phi_round_dominates_plain_threshold(demo_graph, demo_setfn):
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.random(2)
        theta = float(rng.uniform(0.0, 4.0))
        sol = uq.phi_round(demo_setfn, x, theta)
        plain = uq.threshold_round(x, 0.5, demo_setfn.ground_set)
        assert sol.value <= naive_cut(demo_graph, plain, theta) + 1e-12


def test_brute_force_demo_values(demo_setfn):
    assert uq.brute_force_min(demo_setfn, 3.0).value == 2.0
    assert uq.brute_force_min(demo_setfn, 1.0).value == 1.0
    sol2 = uq.brute_force_min(demo_setfn, 2.0)
    assert sol2.value == 2.0
    # enumeration shows exactly two optimal sets at the switch point
    optima = [
        mask
        for mask, v in all_masks_values(uq.demo_cut_graph(), 2.0).items()
        if v == 2.0
    ]
    assert len(optima) == 2


def test_brute_force_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(41)
    for _ in range(10)    :
        g = random_cut_graph(rng, int(rng.integers(2, 6)))
        spec = uq.set_function(g)
        theta = float(rng.uniform(*g.theta_range))
        table = all_masks_values(g, theta)
        assert uq.brute_force_min(spec, theta).value == min(table.values())


def test_brute_force_capacity():
    ground = tuple(str(i) for i in range(21))
    spec = uq.SetFunctionSpec(ground, lambda S, th: float(len(S)))
    with pytest.raises(ValueError):
        uq.brute_force_min(spec, 0.0)


def test_submodularity_exhaustive_small_instances():
    rng = np.random.default_rng(59)
    for n in (4, 6, 8):
        g = random_cut_graph(rng, n)
        for theta in (g.theta_range[0], 1.7, g.theta_range[1]):
            vals = all_masks_values(g, theta)
            f = np.array([vals[m] for m in range(2**n)])
            m1, m2 = np.meshgrid(np.arange(2**n), np.arange(2**n))
            lhs = f[m1] + f[m2]
            rhs = f[m1 | m2] + f[m1 & m2]
            assert np.all(lhs - rhs >= -1e-9)


def test_box_minimum_of_extension_equals_discrete_minimum(demo_graph):
    # Minimise the extension at an (effectively) fixed theta with the solver:
    # a one-cell piecewise expansion over a tiny interval around theta0 is a
    # single box-constrained point.
    for theta0 in (1.0, 3.0):
        mes = uq.ThetaMeasure(theta0 - 1e-6, theta0 + 1e-6, quadrature_nodes=8)
        p = uq.mincut_problem(uq.demo_cut_graph((0.0, 4.0)), mes)
        fam = uq.piecewise_family(mes)
        # the optimum can sit at a subgradient tie, where iterates oscillate at
        # step-size scale: decay eta well below the 1e-6 target
        cfg = uq.RsgConfig(
            eps0=4.0, eps_target=1e-5, alpha=2.0, t=60, k_stages=20,
            outer_loops=2, m_schedule=lambda j: 1,
            oracle=uq.OracleConfig(8), seed=3, initial_step=0.05,
        )
        e, _ = uq.restarted_outer(p, cfg, fam)
        found = uq.expected_objective(p, e)
        best = uq.brute_force_min(uq.set_function(uq.demo_cut_graph()), theta0).value
        assert found == pytest.approx(best, abs=1e-6)


def test_min_cut_value_function_matches_brute_force():
    rng = np.random.default_rng(67)
    for _ in range(5):
        g = random_cut_graph(rng, 4)
        spec = uq.set_function(g)
        fstar = min_cut_value_function(g)
        thetas = np.linspace(*g.theta_range, 9)
        expected = [uq.brute_force_min(spec, float(t)).value for t in thetas]
        assert np.allclose(fstar(thetas), expected, atol=1e-12)


def full_table_lines(graph):
    """(base, slope) arrays of the cut lines of all 2^n sink-side sets,
    enumerated mask by mask, each summed over the edges in edge order."""
    ground = graph.ground_set
    bases, slopes = [], []
    for mask in range(2 ** len(ground)):
        sink_side = {ground[i] for i in range(len(ground)) if mask >> i & 1} | {graph.sink}
        b = s = 0.0
        for u, v, base, slope in graph.edges:
            if u not in sink_side and v in sink_side:
                b += base
                s += slope
        bases.append(b)
        slopes.append(s)
    return np.asarray(bases), np.asarray(slopes)


def full_table_min(graph):
    """theta -> min over the cut lines of all 2^n sink-side sets: the
    reference that the reduced envelope must match bit for bit on the theta
    range."""
    B, S = full_table_lines(graph)
    return lambda theta: np.min(B + S * np.asarray(theta, dtype=float)[..., None], axis=-1)


def envelope_probes(f, rng, size=400):
    lo, hi = f.theta_range
    return np.concatenate(([lo, hi], f.breakpoints, rng.uniform(lo, hi, size=size)))


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_min_cut_envelope_equals_full_table_bitwise(n):
    rng = np.random.default_rng(500 + n)
    for theta_range in ((0.0, 4.0), (2.0, 30.0)):
        g = random_cut_graph(rng, n, theta_range=theta_range)
        f = min_cut_value_function(g)
        thetas = envelope_probes(f, rng)
        assert np.array_equal(f(thetas), full_table_min(g)(thetas))
        assert len(f.bases) < 2**n or n == 1


def switching_chain():
    """s -> 1 -> 2 -> 3 -> t with cut weights theta, 1.5, 1.5 and 4 - theta:
    the optimal cut moves from s->1 to the middle at theta = 1.5 and on to
    3->t at theta = 2.5, and the two middle cuts tie exactly in between."""
    return uq.CutGraph(
        nodes=("s", "1", "2", "3", "t"), source="s", sink="t",
        edges=(("s", "1", 0.0, 1.0), ("1", "2", 1.5, 0.0),
               ("2", "3", 1.5, 0.0), ("3", "t", 4.0, -1.0)),
        theta_range=(0.0, 4.0),
    )


def test_min_cut_envelope_two_switches_and_exact_tie():
    g = switching_chain()
    f = min_cut_value_function(g)
    assert f.breakpoints == pytest.approx([1.5, 2.5], abs=1e-12)
    # the four single-edge cuts, both tied middle cuts included
    assert sorted(zip(f.bases, f.slopes)) == [(0.0, 1.0), (1.5, 0.0), (1.5, 0.0), (4.0, -1.0)]
    thetas = np.concatenate((envelope_probes(f, np.random.default_rng(7)),
                             np.linspace(0.0, 4.0, 401)))
    assert np.array_equal(f(thetas), full_table_min(g)(thetas))
    assert np.array_equal(f([1.0, 2.0, 3.0]), [1.0, 1.5, 1.0])


@pytest.mark.parametrize("theta", [-0.5, 4.5, np.nan, [1.0, 4.0 + 1e-9]])
def test_min_cut_envelope_rejects_theta_outside_range(theta):
    f = min_cut_value_function(switching_chain())
    with pytest.raises(ValueError, match="outside range"):
        f(theta)


def sweep_graphs(count=40):
    """Seeded random graphs with n <= 10 on the theta ranges (0, 4) and, by
    the substitution theta -> theta + 3, (-3, 1); weights keep their values
    and their signs of slope, negative slopes included."""
    rng = np.random.default_rng(1717)
    for k in range(count):
        g = random_cut_graph(rng, 1 + k % 10, edge_prob=float(rng.uniform(0.3, 0.8)))
        if k % 2:
            edges = tuple((u, v, base + 3.0 * slope, slope) for u, v, base, slope in g.edges)
            g = uq.CutGraph(g.nodes, g.source, g.sink, edges, (-3.0, 1.0))
        yield g


def test_min_cut_envelope_sweep_matches_full_table():
    rng = np.random.default_rng(17)
    graphs = list(sweep_graphs())
    assert any(slope < 0 for g in graphs for *_, slope in g.edges)
    kinked = 0
    for g in graphs:
        f = min_cut_value_function(g)
        thetas = envelope_probes(f, rng)
        assert np.array_equal(f(thetas), full_table_min(g)(thetas))
        exact = [float(x) for x in exact_envelope_kinks(g)]
        assert f.breakpoints == pytest.approx(exact, rel=1e-12, abs=1e-12)
        kinked += len(f.breakpoints) > 0
    assert kinked >= 5


def integer_weight_graphs(count=300):
    """Seeded random topologies on 2-9 nodes with integer bases 0-3 and
    slopes -1..2 on (0, 4); a slope that would take a weight below zero at
    theta = 4 becomes 0. Integer lines tie often: kinks fall on probe points
    and on the range ends."""
    rng = np.random.default_rng(2323)
    for k in range(count):
        g = random_cut_graph(rng, 2 + k % 8)
        edges = []
        for u, v, *_ in g.edges:
            base, slope = int(rng.integers(0, 4)), int(rng.integers(-1, 3))
            edges.append((u, v, float(base), float(slope if base + 4 * slope >= 0 else 0)))
        yield uq.CutGraph(g.nodes, g.source, g.sink, tuple(edges), (0.0, 4.0))


def test_min_cut_envelope_breakpoints_are_exact_on_integer_weights():
    rng = np.random.default_rng(23)
    for g in integer_weight_graphs():
        f = min_cut_value_function(g)
        assert f.breakpoints == tuple(float(x) for x in exact_envelope_kinks(g))
        thetas = envelope_probes(f, rng, size=50)
        assert np.array_equal(f(thetas), full_table_min(g)(thetas))


@pytest.mark.parametrize("seed, n, edge_prob", [(0, 50, 0.3), (4, 60, 0.2)])
def test_min_cut_reference_beyond_brute_force_cap_matches_networkx(seed, n, edge_prob):
    nx = pytest.importorskip("networkx")
    g = random_cut_graph(np.random.default_rng(seed), n, edge_prob=edge_prob)
    assert len(g.ground_set) > BRUTE_FORCE_CAP
    f = min_cut_value_function(g)
    assert len(f.breakpoints) >= 3
    thetas = np.concatenate((f.breakpoints, np.linspace(*g.theta_range, 20 - len(f.breakpoints))))
    for theta in thetas:
        net = nx.DiGraph()
        for u, v, base, slope in g.edges:
            net.add_edge(u, v, capacity=base + slope * theta)
        expected = nx.minimum_cut_value(net, g.source, g.sink)
        assert f(theta) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_parse_cut_graph_round_trip(demo_graph):
    text = """
    # demo chain
    source s
    sink t
    s 1 0 1
    1 2 2 0   # constant weight
    2 t 3 0
    """
    g = uq.parse_cut_graph(text, (0.0, 4.0))
    assert g.ground_set == demo_graph.ground_set
    assert g.source == "s" and g.sink == "t"
    for S in (frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})):
        for theta in (0.0, 2.0, 4.0):
            assert uq.cut_value(g, S, theta) == uq.cut_value(demo_graph, S, theta)
    with pytest.raises(ValueError):
        uq.parse_cut_graph("s 1 0\n", (0.0, 1.0))
    with pytest.raises(ValueError):
        uq.parse_cut_graph("s 1 0 1\n", (0.0, 1.0))  # no source/sink headers


# sha256 of repr((nodes, edges, theta_range)) of random_cut_graph(default_rng(seed), 6)
# on the default (0, 4) range, as built before negative lower ends were repaired
DEFAULT_RANGE_GRAPHS = {
    0: "0de5d880bb2ff78f0d1d6874b8d08c1b1c4bb79e8a933844a7f46027b9ed02e0",
    1: "ad29df30527827d5ad95d70fdf84841971e72cefd9336f0507aa6f8f49688d36",
    2: "ec40c8de25cd17a550ba632f423a8b50b50f7ee0f63b0c86ca3f67d876e23248",
    3: "dbb5b15aa5ae3b493f2bf5294596046d37922cc6e9948382799ae821e40247e8",
    4: "c0224c613e6115bdbdfeedc966f5549fa7e1de4ec4e9c8751c09713edf1601f0",
}


@pytest.mark.parametrize("seed", range(5))
def test_random_cut_graph_builds_on_a_negative_lower_end(seed):
    g = random_cut_graph(np.random.default_rng(seed), 6, theta_range=(-3.0, 1.0))
    assert g.theta_range == (-3.0, 1.0)
    assert min(base + slope * t for *_, base, slope in g.edges for t in (-3.0, 1.0)) >= 0
    # the repair draws nothing: the same stream gives the same topology
    same = random_cut_graph(np.random.default_rng(seed), 6)
    assert [e[:2] for e in g.edges] == [e[:2] for e in same.edges]
    digest = hashlib.sha256(repr((same.nodes, same.edges, same.theta_range)).encode())
    assert digest.hexdigest() == DEFAULT_RANGE_GRAPHS[seed]
