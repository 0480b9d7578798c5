import json
from pathlib import Path

import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad import cli
from uqsubgrad.submodular import random_cut_graph

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def small_quadratic_cfg(tmp_path, **overrides):
    body = {
        "problem": {"kind": "quadratic", "mu": "1.0", "l": "50.0"},
        "measure": {"a": "0.0", "b": "6.283185307179586", "quadrature_nodes": "128"},
        "basis": {"kind": "legendre"},
        "rsg": {
            "eps0": "16.0", "eps_target": "0.0001", "alpha": "1.5", "t": "10",
            "k": "4", "outer_loops": "3", "m_schedule": "linear:start=6,step=1,cap=12",
            "theta_samples": "16", "seed": "99",
        },
        "stats": {"samples": "2000", "quantiles": "0.1,0.5,0.9"},
        "output": {"directory": "out"},
    }
    for section, kv in overrides.items():
        body.setdefault(section, {}).update(kv)
    text = "\n".join(
        f"[{sec}]\n" + "\n".join(f"{k} = {v}" for k, v in kv.items())
        for sec, kv in body.items()
    )
    path = tmp_path / "exp.cfg"
    path.write_text(text + "\n")
    return path


def test_demo_configs_load():
    cfg = cli.load_config(DEMOS / "quadratic.cfg")
    assert cfg.problem_kind == "quadratic" and cfg.basis_kind == "legendre"
    assert cfg.rsg.t == 50 and cfg.rsg.k_stages == 20 and cfg.rsg.outer_loops == 10
    mc = cli.load_config(DEMOS / "mincut.cfg")
    assert mc.problem_kind == "mincut" and mc.rsg.initial_step == 0.01
    assert mc.graph.ground_set == ("1", "2")
    assert [mc.rsg.m_schedule(j) for j in (1, 200)] == [17, 82]


def test_config_errors_name_the_field(tmp_path):
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.load_config(tmp_path / "nope.cfg")
    p = small_quadratic_cfg(tmp_path, rsg={"alpha": "0.5"})
    with pytest.raises(cli.ConfigError, match="rsg"):
        cli.load_config(p)
    p2 = small_quadratic_cfg(tmp_path, problem={"kind": "banana"})
    with pytest.raises(cli.ConfigError, match="problem.kind"):
        cli.load_config(p2)
    p3 = small_quadratic_cfg(tmp_path, rsg={"m_schedule": "fib:1"})
    with pytest.raises(cli.ConfigError, match="m_schedule"):
        cli.load_config(p3)
    p4 = small_quadratic_cfg(tmp_path, basis={"kind": "piecewise"})
    with pytest.raises(cli.ConfigError, match="basis.kind"):
        cli.load_config(p4)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("rsg", "theta_samples", "0"),
        ("rsg", "noise_sigma", "-1"),
        ("rsg", "noise_sigma", "nan"),
        ("rsg", "initial_step", "0"),
        ("rsg", "initial_step", "-1"),
        ("stats", "samples", "0"),
        ("stats", "round_eps", "0"),
        ("stats", "round_eps", "1.5"),
    ],
)
def test_bad_field_exits_2_before_solving(tmp_path, capsys, section, key, value):
    cfg = small_quadratic_cfg(tmp_path, **{section: {key: value}})
    with pytest.raises(cli.ConfigError, match=f"{section}.{key}"):
        cli.load_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_m_schedule_grammar():
    f = cli._parse_m_schedule("constant:7")
    assert [f(1), f(50)] == [7, 7]
    g = cli._parse_m_schedule("linear:start=4,step=2,cap=10")
    assert [g(1), g(2), g(4), g(100)] == [4, 6, 10, 10]
    h = cli._parse_m_schedule("power:shift=10,exponent=0.8,offset=10")
    assert h(1) == round(11**0.8 + 10)


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = cli.load_config(small_quadratic_cfg(tmp_path), out_override=tmp_path / "out")
    paths = cli.run_experiment(cfg)
    assert set(paths) == {"trace", "expansion", "stats"}
    for p in paths.values():
        assert p.is_file()
    trace = uq.trace_from_csv(paths["trace"].read_text())
    assert trace.rows[0].call_index == 1
    e = uq.expansion_from_text(paths["expansion"].read_text())
    assert e.q == 2
    report = json.loads(paths["stats"].read_text())
    assert len(report["mean"]) == 2


def test_run_deterministic_modulo_wall_clock(tmp_path):
    cfg_path = small_quadratic_cfg(tmp_path)
    p1 = cli.run_experiment(cli.load_config(cfg_path, out_override=tmp_path / "a"))
    p2 = cli.run_experiment(cli.load_config(cfg_path, out_override=tmp_path / "b"))
    strip = lambda t: "\n".join(ln.rsplit(",", 1)[0] for ln in t.splitlines())
    assert strip(p1["trace"].read_text()) == strip(p2["trace"].read_text())
    assert p1["expansion"].read_text() == p2["expansion"].read_text()
    assert p1["stats"].read_text() == p2["stats"].read_text()


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no partial outputs
    bad = small_quadratic_cfg(tmp_path, rsg={"eps0": "-3"})
    assert cli.main(["run", str(bad)]) == 2
    p = small_quadratic_cfg(tmp_path)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "ok")]) == 0
    assert cli.main(["curve", str(tmp_path / "ok" / "trace.csv")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].count(",") == 2


def test_run_skips_edges_that_are_never_cut(tmp_path):
    # an edge out of the sink or into the source never crosses a cut
    (tmp_path / "g.edges").write_text("source s\nsink t\ns 1 0 1\n1 t 3 0\nt 1 1 0\n1 s 1 0\n")
    p = small_quadratic_cfg(
        tmp_path, problem={"kind": "mincut:g.edges"}, measure={"b": "4.0"},
        basis={"kind": "piecewise"}, rsg={"m_schedule": "linear:start=2,step=1,cap=6"},
    )
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "stats.json").read_text())["cut_frequencies"]


def test_stats_subcommand_round_trip(tmp_path, capsys):
    p = small_quadratic_cfg(tmp_path)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    code = cli.main([
        "stats", str(tmp_path / "r" / "expansion.txt"), str(p),
        "--out", str(tmp_path / "s"),
    ])
    assert code == 0
    a = json.loads((tmp_path / "r" / "stats.json").read_text())
    b = json.loads((tmp_path / "s" / "stats.json").read_text())
    assert a == b


def _expansion_text(kind, a, b, q, m=3):
    mes = uq.ThetaMeasure(a, b)
    fam = uq.legendre_family(mes) if kind == "legendre" else uq.piecewise_family(
        mes, uq.Partition(tuple(np.linspace(a, b, m + 1)[1:-1])))
    return bs.expansion_to_text(bs.Expansion(np.full((m, q), 0.5), fam))


_PIECEWISE_OK = _expansion_text("piecewise", 0.0, 4.0, 2)


@pytest.mark.parametrize(
    "config, text, field",
    [
        # a quadratic's expansion handed to the cut config
        ("mincut", _expansion_text("legendre", 0.0, 2 * np.pi, 2), "expansion kind"),
        ("mincut", _expansion_text("piecewise", 0.0, 2.0, 2), "expansion support"),
        ("mincut", _expansion_text("piecewise", 0.0, 4.0, 3), "expansion q"),
        ("quadratic", _expansion_text("piecewise", 0.0, 2 * np.pi, 2), "expansion kind"),
        ("quadratic", _expansion_text("legendre", 0.0, 6.0, 2), "expansion support"),
        ("quadratic", _expansion_text("legendre", 0.0, 2 * np.pi, 1), "expansion q"),
        ("mincut", _PIECEWISE_OK.replace("shape: 3 2\n", ""), "shape"),
        ("mincut", _PIECEWISE_OK.replace("shape: 3 2", "shape: 3"), "shape"),
        ("mincut", _PIECEWISE_OK.replace("support: 0.0 4.0", "support: 0.0 x"), "support"),
        ("mincut", _PIECEWISE_OK.replace("shape: 3 2", "shape: 4 2"), "coefficient block"),
        ("mincut", _PIECEWISE_OK.replace("0.5 0.5\n", "0.5\n", 1), "expansion"),
        ("mincut", "not an expansion\n", "not an expansion file"),
    ],
)
def test_stats_refuses_mismatched_or_malformed_expansion(tmp_path, capsys, config, text, field):
    cfg = DEMOS / "mincut.cfg" if config == "mincut" else small_quadratic_cfg(tmp_path)
    exp = tmp_path / "expansion.txt"
    exp.write_text(text)
    out = tmp_path / "stats-out"
    assert cli.main(["stats", str(exp), str(cfg), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_stats_accepts_matching_expansion(tmp_path):
    exp = tmp_path / "expansion.txt"
    exp.write_text(_PIECEWISE_OK)
    out = tmp_path / "stats-out"
    assert cli.main(["stats", str(exp), str(DEMOS / "mincut.cfg"), "--out", str(out)]) == 0
    assert json.loads((out / "stats.json").read_text())["cut_frequencies"] == {"{}": 1.0}


def cut_frequencies_per_sample(e, measure, n, rng, round_eps, graph):
    """Threshold-round every sampled row and tally the sets: the reference
    for the per-cell tally of compute_statistics."""
    counts = {}
    for row in bs.synthesize(e, rng.uniform(measure.a, measure.b, size=n)):
        members = uq.threshold_round(row, round_eps, graph.ground_set)
        key = ",".join(g for g in graph.ground_set if g in members) or "{}"
        counts[key] = counts.get(key, 0) + 1
    return {k: c / n for k, c in sorted(counts.items())}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cut_frequencies_per_cell_equal_per_sample_loop(cut_measure, seed):
    rng = np.random.default_rng(seed)
    g = random_cut_graph(rng, 6)
    part = uq.Partition(tuple(np.sort(rng.uniform(0.0, 4.0, size=40))))
    e_pw = bs.Expansion(rng.integers(0, 5, size=(41, 6)) / 4.0, uq.piecewise_family(cut_measure, part))
    # a Legendre expansion is rounded once per sample
    e_leg = bs.Expansion(rng.normal(0.5, 0.3, size=(4, 6)), uq.legendre_family(cut_measure))
    for e in (e_pw, e_leg):
        rep = cli.compute_statistics(e, cut_measure, 5000, (0.5,), np.random.default_rng(seed),
                                     round_eps=0.3, graph=g)
        ref = cut_frequencies_per_sample(e, cut_measure, 5000, np.random.default_rng(seed), 0.3, g)
        assert len(ref) > 3 and rep.cut_frequencies == ref
        assert rep.to_json() == cli.StatsReport(rep.mean, rep.variance, rep.quantiles, ref).to_json()


def test_statistics_constant_expansion(unit_measure):
    fam = uq.legendre_family(unit_measure)
    e = bs.Expansion(np.array([[2.5, -1.0]]), fam)
    rep = cli.compute_statistics(e, unit_measure, 500, (0.1, 0.9), np.random.default_rng(1))
    assert rep.mean == pytest.approx([2.5, -1.0], abs=1e-12)
    assert rep.variance == pytest.approx([0.0, 0.0], abs=1e-12)
    for q in rep.quantiles.values():
        assert q == pytest.approx([2.5, -1.0], abs=1e-12)


def test_statistics_mean_matches_dense_quadrature_oracle(quad_measure):
    fam = uq.legendre_family(quad_measure)
    converged = uq.analyze(uq.quadratic_reference, fam, 8)
    rep = cli.compute_statistics(
        converged, quad_measure, 1000, (0.5,), np.random.default_rng(2)
    )
    dense = uq.ThetaMeasure(0.0, 2 * np.pi, quadrature_nodes=10_000 // 2)
    oracle_mean = dense.weights @ uq.quadratic_reference(dense.nodes)
    assert np.abs(np.asarray(rep.mean) - oracle_mean).max() < 5e-2


def test_statistics_cut_frequencies(cut_measure, demo_graph):
    # converged piecewise solution: the optimal vertex on each cell; the
    # optimum switches at theta = 2 and the measure splits mass evenly
    spec = uq.set_function(demo_graph)
    rng = np.random.default_rng(83)
    part = uq.Partition()
    while part.n_cells < 128:
        try:
            part = uq.refine_partition(part, rng.uniform(0.0, 4.0))
        except uq.PartitionRejection:
            continue
    fam = uq.piecewise_family(cut_measure, part)
    edges = np.concatenate(([0.0], part.breakpoints, [4.0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    cells = np.array(
        [
            [1.0 if g in uq.brute_force_min(spec, float(t)).members else 0.0
             for g in spec.ground_set]
            for t in mids
        ]
    )
    e = bs.Expansion(cells, fam)
    rep = cli.compute_statistics(
        e, cut_measure, 10_000, (0.5,), np.random.default_rng(4),
        round_eps=0.1, graph=demo_graph,
    )
    assert abs(rep.cut_frequencies["1,2"] - 0.5) < 0.03
    assert abs(rep.cut_frequencies["2"] - 0.5) < 0.03
    assert sum(rep.cut_frequencies.values()) == pytest.approx(1.0, abs=1e-12)


def test_error_curve_shape_and_monotone_index(tmp_path):
    cfg = cli.load_config(small_quadratic_cfg(tmp_path), out_override=tmp_path / "o")
    paths = cli.run_experiment(cfg)
    trace = uq.trace_from_csv(paths["trace"].read_text())
    curve = cli.error_curve(trace)
    lines = curve.strip().splitlines()
    assert lines[0] == "call_index,fn_error_pi,fn_error_pi_sq"
    assert len(lines) == len(trace.rows) + 1
    idx = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert idx == sorted(idx) and len(set(idx)) == len(idx)

    one = uq.RunTrace()
    one.append(uq.rsg.TraceRow(1, 1, 1, 4, 0.1, 0.5, 0.25, 1.0))
    assert len(cli.error_curve(one).strip().splitlines()) == 2
    with pytest.raises(ValueError):
        cli.error_curve(uq.RunTrace())


def test_cusp_pattern_in_quadratic_curve(tmp_path):
    cfg = cli.load_config(
        small_quadratic_cfg(
            tmp_path,
            rsg={"t": "25", "k": "8", "outer_loops": "4", "theta_samples": "32"},
        ),
        out_override=tmp_path / "c",
    )
    paths = cli.run_experiment(cfg)
    trace = uq.trace_from_csv(paths["trace"].read_text())
    errs = np.array([r.fn_error_pi for r in trace.rows])
    loops = np.array([r.outer_i for r in trace.rows])
    # non-monotone overall (restart bumps) ...
    assert np.any(np.diff(errs) > 0)
    # ... while the outer-loop envelope decreases
    ends = [errs[loops == i][-1] for i in range(1, 5)]
    assert ends[-1] < ends[0]
    assert all(b <= a * 1.05 for a, b in zip(ends, ends[1:]))
