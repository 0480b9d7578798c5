import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad import cli, measure
from uqsubgrad.submodular import random_cut_graph

from oracles import trace_rows

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
        ("rsg", "noise_sigma", "1e200"),  # sigma^2 alone overflows
        ("rsg", "noise_sigma", "1e154"),  # sigma^2 does not, sigma^2 * q does
        ("rsg", "initial_step", "0"),
        ("rsg", "initial_step", "-1"),
        ("stats", "samples", "0"),
        ("stats", "samples", str(cli.MAX_STATS_SAMPLES + 1)),
        ("stats", "round_eps", "0"),
        ("stats", "round_eps", "1.5"),
        ("measure", "quadrature_nodes", "0"),
        ("measure", "quadrature_nodes", str(cli.MAX_QUADRATURE_NODES + 1)),
        ("problem", "l", "inf"),
        ("problem", "mu", "inf"),
        ("measure", "a", "nan"),
        ("rsg", "k", "0"),
        ("rsg", "t", "0"),
        ("rsg", "outer_loops", "0"),
        ("rsg", "alpha", "1"),
        ("rsg", "eps_target", "0"),
        ("rsg", "outer_loops", str(cli.MAX_STAGES // 4 + 1)),  # k = 4: the first count past the cap
        ("rsg", "t", str(cli.MAX_STAGE_DOUBLES // (16 * 13) + 1)),  # 16 thetas, m <= 12: the first t past
        ("stats", "quantiles", ""),
        ("stats", "quantiles", "0.5,,0.9"),
        ("stats", "quantiles", "0.5,"),
        ("stats", "quantiles", "0.5,0.50"),
        ("rsg", "noise_sgima", "0.5"),
        ("stat", "samples", "2000"),
        ("rsg", "seed", "5%"),  # a plain character, not interpolation syntax
    ],
)
def test_bad_field_exits_2_before_solving(tmp_path, capsys, monkeypatch, section, key, value):
    def solve(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli, "restarted_outer", solve)
    cfg = small_quadratic_cfg(tmp_path, **{section: {key: value}})
    with pytest.raises(cli.ConfigError, match=f"{section}.{key}"):
        cli.load_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("mu", "-5"), ("l", "x")])
def test_unused_key_of_a_mincut_config_is_still_checked(tmp_path, capsys, key, value):
    text = (DEMOS / "mincut.cfg").read_text().replace("[measure]", f"{key} = {value}\n[measure]")
    cfg = tmp_path / "mincut.cfg"
    cfg.write_text(text)
    (tmp_path / "mincut_chain.edges").write_text((DEMOS / "mincut_chain.edges").read_text())
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"problem.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma, refused", [("9.5e153", True), ("9.4e153", False)])
def test_noise_variance_overflow_counts_the_mincut_ground_set(tmp_path, sigma, refused):
    """q is the ground set's size, 2 on the chain demo: sigma^2 * 2 overflows
    from about 9.48e153 on."""
    text = (DEMOS / "mincut.cfg").read_text().replace("noise_sigma = 0.0", f"noise_sigma = {sigma}")
    cfg = tmp_path / "mincut.cfg"
    cfg.write_text(text)
    (tmp_path / "mincut_chain.edges").write_text((DEMOS / "mincut_chain.edges").read_text())
    if refused:
        with pytest.raises(cli.ConfigError, match="rsg.noise_sigma"):
            cli.load_config(cfg)
    else:
        assert cli.load_config(cfg).rsg.oracle.noise.variance_total(2) < math.inf


def test_stage_cap_itself_loads(tmp_path):
    cfg = small_quadratic_cfg(tmp_path, rsg={"outer_loops": str(cli.MAX_STAGES // 4)})
    rsg = cli.load_config(cfg).rsg
    assert rsg.outer_loops * rsg.k_stages == cli.MAX_STAGES
    # 16 thetas and m = 15: a stage of exactly MAX_STAGE_DOUBLES
    t = cli.MAX_STAGE_DOUBLES // (16 * 16)
    cfg = small_quadratic_cfg(tmp_path, rsg={"t": str(t), "m_schedule": "constant:15"})
    assert cli.load_config(cfg).rsg.t * 16 * 16 == cli.MAX_STAGE_DOUBLES


def test_stats_samples_cap_itself_loads(tmp_path):
    cfg = small_quadratic_cfg(tmp_path, stats={"samples": str(cli.MAX_STATS_SAMPLES)})
    assert cli.load_config(cfg).stats_samples == cli.MAX_STATS_SAMPLES


def test_noise_block_counts_in_the_stage_cap(tmp_path, capsys, monkeypatch):
    """With noise on, a stage also holds t * theta_samples * q noise doubles:
    the loader counts them, q being the edge list's ground set."""
    def solve(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli, "restarted_outer", solve)
    (tmp_path / "g.edges").write_text(
        "source s\nsink t\n" + "".join(f"s {i} 1 0\n{i} t 0 1\n" for i in range(1, 17)))
    for t, code in [(cli.MAX_STAGE_DOUBLES // (16 * 18), 1), (cli.MAX_STAGE_DOUBLES // (16 * 2), 2)]:
        cfg = small_quadratic_cfg(
            tmp_path, problem={"kind": "mincut:g.edges"}, measure={"b": "4.0"},
            basis={"kind": "piecewise"},
            rsg={"m_schedule": "constant:1", "noise_sigma": "0.1", "t": str(t)},
        )
        if code == 1:  # the design and noise counts pass
            assert cli.load_config(cfg).build_problem().dimension == 16
        else:
            with pytest.raises(cli.ConfigError, match="rsg.t.*q=16"):
                cli.load_config(cfg)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert ("must not start" in err) if code == 1 else ("rsg.t" in err and "q=16" in err)
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
    assert trace_rows(paths["trace"].read_text())[0].call_index == 1
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
    with pytest.raises(SystemExit) as exc:  # an unknown subcommand is an argparse error
        cli.main(["curve", str(tmp_path / "ok" / "trace.csv")])
    assert exc.value.code == 2
    assert "invalid choice: 'curve'" in capsys.readouterr().err


def test_readme_commands_are_the_cli_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    listed = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    readme = (DEMOS.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    assert sorted({ln.split()[1] for ln in block.splitlines()}) == sorted(listed)


def test_readme_config_table_names_exactly_the_fields():
    readme = (DEMOS.parent / "README.md").read_text()
    table = re.search(r"\| key \| type \| default \| rule \|\n\|[-|]+\|\n(.*?)\n\n", readme, re.S)
    keys = [key for row in table.group(1).splitlines()
            for key in re.findall(r"`([\w.]+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(cli.FIELDS)


def test_support_whose_width_overflows_exits_2_before_solving(tmp_path, capsys):
    cfg = small_quadratic_cfg(tmp_path, measure={"a": "-1e308", "b": "1e308"})
    with pytest.raises(cli.ConfigError, match="measure.b: need a < b and a finite b - a"):
        cli.load_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert "measure.b" in capsys.readouterr().err
    assert not out.exists()


def test_edge_list_without_internal_node_exits_2_before_solving(tmp_path, capsys):
    (tmp_path / "g.edges").write_text("source s\nsink t\ns t 1 0\n")
    cfg = small_quadratic_cfg(tmp_path, problem={"kind": "mincut:g.edges"}, measure={"b": "4.0"},
                              basis={"kind": "piecewise"})
    with pytest.raises(cli.ConfigError, match="problem.kind: the edge list has no node besides"):
        cli.load_config(cfg)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert "problem.kind" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="no node besides the source and the sink"):
        uq.mincut_problem(uq.parse_cut_graph("source s\nsink t\ns t 1 0\n", (0.0, 4.0)),
                          uq.ThetaMeasure(0.0, 4.0))


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
        # the statistics would build the file's own 3000-node rule
        ("quadratic", _expansion_text("legendre", 0.0, 2 * np.pi, 2).replace(
            "quadrature_nodes: 128", "quadrature_nodes: 3000"), "expansion quadrature_nodes"),
        # 65 Legendre rows need more than the config's 128 nodes
        ("quadratic", _expansion_text("legendre", 0.0, 2 * np.pi, 2, m=65), "expansion shape"),
        ("mincut", _PIECEWISE_OK.replace("quadrature_nodes: 128", "quadrature_nodes: 64"),
         "expansion quadrature_nodes"),
        # rows past the declared shape, and a line of junk after them, are refused
        ("mincut", _PIECEWISE_OK + "0.5 0.5\n", "coefficient block"),
        ("mincut", _expansion_text("piecewise", 0.0, 4.0, 1, m=2) + "0.5\n0.5\njunk\n", "junk"),
        ("mincut", _PIECEWISE_OK.replace("shape: 3 2", "shape2: 9\nshape: 3 2"), "unknown field"),
        ("mincut", _PIECEWISE_OK.replace("kind:", "support: 0.0 9.0\nkind:"), "given twice"),
        # a support whose width overflows
        ("quadratic", _expansion_text("legendre", 0.0, 2 * np.pi, 2).replace(
            "support: 0.0 6.283185307179586", "support: -1e+308 1e+308"), "finite b - a"),
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


@pytest.mark.parametrize("config, text", [
    ("quadratic.cfg", _expansion_text("legendre", 0.0, 2 * np.pi, 2, m=2).replace(
        "0.5 0.5\n0.5 0.5\n", "1e308 1e308\n1e308 -1e308\n")),
    ("mincut.cfg", _PIECEWISE_OK.replace("0.5 0.5\n", "1e200 -1e200\n", 1)),
], ids=["legendre", "piecewise"])
def test_stats_refuses_an_expansion_whose_statistics_overflow(tmp_path, capsys, config, text):
    """Finite coefficients whose synthesis overflows: one config error line
    naming the expansion, no RuntimeWarning, and no stats.json with Infinity
    or NaN in it; no report writes such a token."""
    exp, out = tmp_path / "expansion.txt", tmp_path / "stats-out"
    exp.write_text(text)
    assert cli.main(["stats", str(exp), str(DEMOS / config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: expansion: ")
    assert not out.exists()
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            cli.StatsReport([bad], [0.0], {}).to_json()


def test_stats_accepts_matching_expansion(tmp_path):
    exp = tmp_path / "expansion.txt"
    exp.write_text(_PIECEWISE_OK)
    out = tmp_path / "stats-out"
    assert cli.main(["stats", str(exp), str(DEMOS / "mincut.cfg"), "--out", str(out)]) == 0
    assert json.loads((out / "stats.json").read_text())["cut_frequencies"] == {"{}": 1.0}


def test_stats_takes_no_seed(tmp_path, capsys):
    exp = tmp_path / "expansion.txt"
    exp.write_text(_PIECEWISE_OK)
    out = tmp_path / "stats-out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["stats", str(exp), str(DEMOS / "mincut.cfg"), "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_stats_builds_no_problem(tmp_path, capsys, monkeypatch):
    # stats takes q from the config: it never builds the min-cut problem
    run, config = tmp_path / "run", str(DEMOS / "mincut.cfg")
    assert cli.main(["run", config, "--out", str(run)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("stats built the problem")

    monkeypatch.setattr(cli, "mincut_problem", refuse)
    out = tmp_path / "stats-out"
    assert cli.main(["stats", str(run / "expansion.txt"), config, "--out", str(out)]) == 0
    assert (out / "stats.json").read_bytes() == (run / "stats.json").read_bytes()
    exp = tmp_path / "q3.txt"
    exp.write_text(_expansion_text("piecewise", 0.0, 4.0, 3))
    capsys.readouterr()
    assert cli.main(["stats", str(exp), config, "--out", str(tmp_path / "q3-out")]) == 2
    assert "expansion q" in capsys.readouterr().err


def midpoint_atoms(e, n):
    """e at the midpoints of n equal cells of its support, each weighing 1/n."""
    mes = e.basis.measure
    return bs.synthesize(e, mes.a + (mes.b - mes.a) / n * (np.arange(n) + 0.5)), [1.0 / n] * n


def cut_frequencies_per_atom(values, weights, round_eps, graph):
    """Threshold-round every atom and add its weight to its set: the
    reference for the cut tally of compute_statistics."""
    freqs = {}
    for row, w in zip(values, weights):
        members = uq.threshold_round(row, round_eps, graph.ground_set)
        key = ",".join(g for g in graph.ground_set if g in members) or "{}"
        freqs[key] = freqs.get(key, 0.0) + float(w)
    return dict(sorted(freqs.items()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cut_frequencies_equal_the_cell_measure_and_per_atom_tallies(cut_measure, seed):
    rng = np.random.default_rng(seed)
    g = random_cut_graph(rng, 6)
    part = uq.Partition(tuple(np.sort(rng.uniform(0.0, 4.0, size=40))))
    e_pw = bs.Expansion(rng.integers(0, 5, size=(41, 6)) / 4.0, uq.piecewise_family(cut_measure, part))
    e_leg = bs.Expansion(rng.normal(0.5, 0.3, size=(4, 6)), uq.legendre_family(cut_measure))
    # a piecewise expansion: each cell's value, weighing its cell's measure;
    # a Legendre one: e at 5000 midpoints
    cells = (e_pw.coefficients, bs.cell_measures(part, cut_measure))
    for e, atoms in ((e_pw, cells), (e_leg, midpoint_atoms(e_leg, 5000))):
        rep = cli.compute_statistics(e, 5000, (0.5,), round_eps=0.3, graph=g)
        ref = cut_frequencies_per_atom(*atoms, 0.3, g)
        assert len(ref) > 3 and rep.cut_frequencies == ref
        assert rep.to_json() == cli.StatsReport(rep.mean, rep.variance, rep.quantiles, ref).to_json()


def weighted_inverse_cdf(values, weights, quantiles):
    """Plain-Python quantiles of one component's atoms: the first value, in a
    stable sort of the (value, weight) pairs, whose running weight sum
    reaches p times the total; NaN at every quantile if a value is NaN."""
    if any(math.isnan(v) for v in values):
        return [math.nan] * len(quantiles)
    pairs = sorted(zip(values, weights), key=lambda pair: pair[0])
    running, sums = 0.0, []
    for _, w in pairs:
        running += w
        sums.append(running)
    return [next(v for (v, _), s in zip(pairs, sums) if s >= p * running) for p in quantiles]


def test_per_component_quantiles_equal_a_weighted_inverse_cdf_bitwise(cut_measure):
    rng = np.random.default_rng(18)
    cases = []
    for case in range(60):
        part = uq.Partition(tuple(np.sort(rng.uniform(0.0, 4.0, size=int(rng.integers(0, 30))))))
        q = int(rng.integers(1, 5))
        # few distinct values: ties everywhere, and signed zeros side by side
        cells = rng.choice([-0.0, 0.0, 0.25, -1.5, 2.0], size=(part.n_cells, q))
        e = bs.Expansion(cells, uq.piecewise_family(cut_measure, part))
        if case % 3 == 0:
            e = bs.Expansion(rng.standard_normal((5, q)), uq.legendre_family(cut_measure))
        quantiles = tuple(rng.choice([0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 0.333], size=3))
        cases.append((e, quantiles, int(rng.integers(1, 3000))))
    # one and two atoms, the end quantiles, an all-equal column (one cell),
    # columns of -0.0 and 0.0 only, Legendre sums that overflow to +-inf, and
    # a NaN atom, set after the expansion's finiteness check
    ends = (0.0, 1.0, 0.5, 0.1, 0.9)
    one_cell = bs.Expansion([[1.5, -0.0, 0.0]], uq.piecewise_family(cut_measure, uq.Partition(())))
    part = uq.Partition((0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5))
    zeros = bs.Expansion(rng.choice([-0.0, 0.0], size=(8, 3)), uq.piecewise_family(cut_measure, part))
    two_cells = bs.Expansion([[1.0, 0.0], [-2.0, 0.0]],
                             uq.piecewise_family(cut_measure, uq.Partition((1.0,))))
    huge = bs.Expansion([[0.0, 1.0], [1.5e308, -1.5e308], [1.5e308, 1.5e308]],
                        uq.legendre_family(cut_measure))
    with_nan = bs.Expansion(np.ones((8, 2)), uq.piecewise_family(cut_measure, part))
    with_nan.coefficients[3, 1] = np.nan
    cases += [(e, ends, n) for n in (1, 2, 3, 50) for e in (one_cell, zeros, two_cells, huge, with_nan)]
    for e, quantiles, n in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            rep = cli.compute_statistics(e, n, quantiles)
            values, weights = e.basis.atoms(e, n)
        got = np.array([rep.quantiles[repr(float(x))] for x in quantiles])
        ref = [weighted_inverse_cdf(values[:, j].tolist(), weights.tolist(), quantiles)
               for j in range(e.q)]
        assert got.tobytes() == np.array(ref).T.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(cli.compute_statistics(with_nan, 1, ends).quantiles["0.5"][1])
        assert np.isinf(cli.compute_statistics(huge, 50, ends).quantiles["1.0"]).all()


def test_legendre_quantiles_are_within_1e_3_of_a_20_times_finer_rule(quad_measure):
    e = uq.analyze(uq.quadratic_reference, uq.legendre_family(quad_measure), 32)
    quantiles = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    rep = cli.compute_statistics(e, 10_000, quantiles)
    fine = np.vstack([bs.synthesize(e, thetas) for thetas in np.array_split(
        quad_measure.a + (quad_measure.b - quad_measure.a) / 200_000 * (np.arange(200_000) + 0.5),
        200)])
    ref = np.quantile(fine, quantiles, axis=0, method="inverted_cdf")
    got = np.array([rep.quantiles[repr(q)] for q in quantiles])
    assert np.abs(got - ref).max() < 1e-3


# a fresh interpreter: which of the numpy modules a run can do without are
# imported once cli.main returns
UNUSED_NUMPY_MODULES = ("numpy.ma", "numpy.polynomial")
RUN_AND_LIST_NUMPY_MODULES = """
import sys
sys.path[:0] = sys.argv[1:2]
from uqsubgrad import cli
code = cli.main(["run", sys.argv[2], "--out", sys.argv[3]])
print(sorted(set(sys.argv[4:]) & set(sys.modules)))
sys.exit(code)
"""


@pytest.mark.parametrize("demo", ["quadratic.cfg", "mincut.cfg"])
def test_run_does_not_import_numpy_ma(tmp_path, demo):
    """numpy.ma (np.quantile imports it through np.unique) would be the
    statistics phase's largest share of a run's resident memory, and
    numpy.polynomial (leggauss, legvander) the next one."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST_NUMPY_MODULES, str(src), str(DEMOS / demo),
         str(tmp_path), *UNUSED_NUMPY_MODULES],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


LAPACK_CALLS = ("eigvalsh", "eigh", "eig", "svd", "solve", "lstsq", "qr", "cholesky")


@pytest.mark.parametrize("demo", ["quadratic.cfg", "mincut.cfg"])
def test_run_makes_no_lapack_call(tmp_path, monkeypatch, demo):
    """The Gauss-Legendre rule is built by Newton's method, and nothing else
    in a run factors or solves a matrix: OpenBLAS's LAPACK pages stay out of
    the resident set."""

    def refuse(*args, **kwargs):
        raise AssertionError("a run called LAPACK")

    measure._gauss_legendre.cache_clear()
    for name in LAPACK_CALLS:
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "out"
    assert cli.main(["run", str(DEMOS / demo), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["expansion.txt", "stats.json", "trace.csv"]


def test_overflowing_step_prints_no_warning(tmp_path):
    """At eps0 = 1e300 the first steps' squared norms overflow; the ball
    projection's overflow branch projects them, and numpy stays silent."""
    text = (DEMOS / "quadratic.cfg").read_text()
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(re.sub(r"(?m)^eps0 = .*$", "eps0 = 1e300", text))
    assert "eps0 = 1e300" in cfg.read_text()
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "uqsubgrad.cli", "run", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0 and done.stderr == ""


@pytest.mark.parametrize("family", ["legendre", "piecewise"])
def test_statistics_memory_is_linear_in_samples(cut_measure, family):
    """The tracemalloc peak at n = 200,000 stays below 8 doubles per sample,
    whatever m and q: no (n, m) design and no (n, q) copy per piecewise run."""
    n, rng = 200_000, np.random.default_rng(3)
    graph = None
    if family == "legendre":
        e = bs.Expansion(rng.standard_normal((32, 2)), uq.legendre_family(cut_measure))
    else:
        part = uq.Partition(tuple(np.sort(rng.uniform(0.0, 4.0, size=24))))
        graph = random_cut_graph(rng, 16)
        e = bs.Expansion(rng.uniform(size=(25, 16)), uq.piecewise_family(cut_measure, part))
    e.basis.rule()  # the measure's Gauss rule is built once and cached: keep it outside
    tracemalloc.start()
    try:
        cli.compute_statistics(e, n, (0.1, 0.5, 0.9), graph=graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * n


def test_statistics_constant_expansion(unit_measure):
    fam = uq.legendre_family(unit_measure)
    e = bs.Expansion(np.array([[2.5, -1.0]]), fam)
    rep = cli.compute_statistics(e, 500, (0.1, 0.9))
    assert rep.mean == pytest.approx([2.5, -1.0], abs=1e-12)
    assert rep.variance == pytest.approx([0.0, 0.0], abs=1e-12)
    for q in rep.quantiles.values():
        assert q == pytest.approx([2.5, -1.0], abs=1e-12)


def test_statistics_mean_matches_dense_quadrature_oracle(quad_measure):
    fam = uq.legendre_family(quad_measure)
    converged = uq.analyze(uq.quadratic_reference, fam, 8)
    rep = cli.compute_statistics(converged, 1000, (0.5,))
    # 1000 equal cells of 8 Gauss nodes: 3.3e-9 from a 5000-node Gauss rule
    cells = tuple(np.linspace(quad_measure.a, quad_measure.b, 1001)[1:-1])
    nodes, weights = quad_measure.composite_rule(cells, 8)
    oracle_mean = weights @ uq.quadratic_reference(nodes)
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
    rep = cli.compute_statistics(e, 10_000, (0.5,), round_eps=0.1, graph=demo_graph)
    assert abs(rep.cut_frequencies["1,2"] - 0.5) < 0.03
    assert abs(rep.cut_frequencies["2"] - 0.5) < 0.03
    assert sum(rep.cut_frequencies.values()) == pytest.approx(1.0, abs=1e-12)


def test_cusp_pattern_in_quadratic_curve(tmp_path):
    cfg = cli.load_config(
        small_quadratic_cfg(
            tmp_path,
            rsg={"t": "25", "k": "8", "outer_loops": "4", "theta_samples": "32"},
        ),
        out_override=tmp_path / "c",
    )
    paths = cli.run_experiment(cfg)
    rows = trace_rows(paths["trace"].read_text())
    errs = np.array([r.fn_error_pi for r in rows])
    loops = np.array([r.outer_i for r in rows])
    # non-monotone overall (restart bumps) ...
    assert np.any(np.diff(errs) > 0)
    # ... while the outer-loop envelope decreases
    ends = [errs[loops == i][-1] for i in range(1, 5)]
    assert ends[-1] < ends[0]
    assert all(b <= a * 1.05 for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize(
    "key, value",
    [
        ("alpha", "inf"),
        ("alpha", "nan"),
        ("eps0", "inf"),
        ("eps_target", "nan"),
        ("m_schedule", "linear:start=8,step=1,cap=32,extra=1"),
        ("m_schedule", "linear:start=8,step=1,cap=32,cap=12"),
        ("m_schedule", "power:shift=-5,exponent=0.5,offset=10"),
        ("m_schedule", "power:shift=1,exponent=1000,offset=10"),
    ],
)
def test_bad_step_or_schedule_exits_2_before_solving(tmp_path, capsys, monkeypatch, key, value):
    def solve(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli, "restarted_outer", solve)
    cfg = small_quadratic_cfg(tmp_path, rsg={key: value})
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"rsg.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config_seed, override", [("-1", None), ("99", "-3")])
def test_negative_seed_exits_2_before_solving(tmp_path, capsys, monkeypatch, config_seed, override):
    def solve(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli, "restarted_outer", solve)
    cfg = small_quadratic_cfg(tmp_path, rsg={"seed": config_seed})
    seed = None if override is None else int(override)
    with pytest.raises(cli.ConfigError, match="rsg.seed"):
        cli.load_config(cfg, seed)
    out = tmp_path / "out"
    args = ["run", str(cfg), "--out", str(out)] + ([] if override is None else ["--seed", override])
    assert cli.main(args) == 2
    assert "rsg.seed" in capsys.readouterr().err
    assert not out.exists()


def test_problem_table_pairs_each_problem_with_its_projection(tmp_path):
    for name in ("quadratic.cfg", "mincut.cfg"):
        cfg = cli.load_config(DEMOS / name)
        kind = cfg.build_problem().projection.kind
        assert cli.PROBLEMS[cfg.problem_kind][0] == kind
        assert cfg.build_family().projection == kind
    mc = (DEMOS / "mincut.cfg").read_text().replace("kind = piecewise", "kind = legendre")
    assert "kind = legendre" in mc
    path = tmp_path / "mincut.cfg"
    path.write_text(mc)
    (tmp_path / "mincut_chain.edges").write_text((DEMOS / "mincut_chain.edges").read_text())
    with pytest.raises(cli.ConfigError, match="basis.kind: .*piecewise"):
        cli.load_config(path)


@pytest.mark.parametrize(
    "nodes, m_schedule, ok",
    [
        (128, "linear:start=6,step=10,cap=64", True),
        (128, "linear:start=6,step=10,cap=65", False),
        (33, "constant:16", True),
        (33, "constant:17", False),
        (cli.MAX_QUADRATURE_NODES, "constant:8", True),  # the node cap itself loads
        (128, "power:shift=0,exponent=2,offset=0", False),  # m reaches 144 at stage 12
    ],
)
def test_legendre_schedule_past_the_quadrature_exits_2_before_solving(
    tmp_path, capsys, monkeypatch, nodes, m_schedule, ok
):
    def solve(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli, "restarted_outer", solve)
    cfg = small_quadratic_cfg(
        tmp_path, measure={"quadrature_nodes": str(nodes)}, rsg={"m_schedule": m_schedule}
    )
    if ok:
        assert cli.load_config(cfg).build_family().max_level == nodes // 2
        return
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"above the legendre basis's largest level {nodes // 2}" in capsys.readouterr().err
    assert not out.exists()


def test_demo_schedule_past_the_quadrature_exits_2_before_solving(tmp_path, capsys):
    text = (DEMOS / "quadratic.cfg").read_text()
    assert "cap=32" in text
    cfg = tmp_path / "quadratic.cfg"
    cfg.write_text(text.replace("cap=32", "cap=100000"))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert "rsg.m_schedule: reaches m=207" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["trace.csv", "expansion.txt", "stats.json"])
def test_failed_run_writes_no_artifact_and_no_temp_file(tmp_path, capsys, blocked):
    # a directory in an artifact's place, which no file can replace
    cfg = small_quadratic_cfg(tmp_path, rsg={"outer_loops": "1"})
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [blocked]
    assert (out / blocked).is_dir() and not any((out / blocked).iterdir())


@pytest.mark.parametrize("blocked", ["trace.csv", "expansion.txt", "stats.json"])
def test_failed_run_leaves_earlier_artifacts_byte_identical(tmp_path, capsys, blocked):
    cfg = small_quadratic_cfg(tmp_path, rsg={"outer_loops": "1"})
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    (out / blocked).unlink()
    (out / blocked).mkdir()
    earlier = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert len(earlier) == 2
    # another seed: every artifact it would write differs from the earlier ones
    assert cli.main(["run", str(cfg), "--out", str(out), "--seed", "6"]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == earlier
    assert sorted(p.name for p in out.iterdir()) == sorted([*earlier, blocked])


def without_k(path):
    text = path.read_text()
    assert text.count("\nk = 4\n") == 1
    path.write_text(text.replace("\nk = 4\n", "\n"))
    return path


def test_omitted_k_is_derived_from_eps_target(tmp_path):
    # k = ceil(log_1.5(16 / 0.01) - 1e-12) = ceil(18.19) = 19: the same
    # artifacts as the same config with k = 19 written out
    rsg = {"eps_target": "0.01", "outer_loops": "1"}
    for sub in ("derived", "written"):
        (tmp_path / sub).mkdir()
    derived = without_k(small_quadratic_cfg(tmp_path / "derived", rsg=rsg))
    written = small_quadratic_cfg(tmp_path / "written", rsg={**rsg, "k": "19"})
    assert cli.load_config(derived).rsg.k_stages == 19
    arts = [cli.run_experiment(cli.load_config(path)) for path in (derived, written)]
    strip = lambda t: "\n".join(ln.rsplit(",", 1)[0] for ln in t.splitlines())
    assert strip(arts[0]["trace"].read_text()) == strip(arts[1]["trace"].read_text())
    assert len(arts[0]["trace"].read_text().splitlines()) == 1 + 19
    for name in ("expansion", "stats"):
        assert arts[0][name].read_bytes() == arts[1][name].read_bytes()


@pytest.mark.parametrize(
    "rsg, field",
    [
        ({"alpha": "1.0001"}, "rsg.outer_loops"),  # k = 119,836 stages: past the stage cap
        ({"eps0": "1e300", "eps_target": "1e-300"}, "rsg.k"),  # eps0 / eps_target overflows
        ({"eps0": "1.0000000000000002", "eps_target": "1.0"}, "rsg.k"),  # k = 0
    ],
)
def test_derived_k_takes_the_checks_of_a_written_k(tmp_path, capsys, monkeypatch, rsg, field):
    def solve(*args, **kwargs):
        raise AssertionError("the solver must not start")

    monkeypatch.setattr(cli, "restarted_outer", solve)
    cfg = without_k(small_quadratic_cfg(tmp_path, rsg=rsg))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_zero_probe_exits_2_naming_the_initial_step(tmp_path, capsys):
    # every weight vanishes on the support: the G^2/V^2 probe reads 0, so the
    # run needs rsg.initial_step, and says so before any stage runs
    text = (DEMOS / "mincut.cfg").read_text()
    assert text.count("initial_step = 0.01\n") == 1
    cfg = tmp_path / "mincut.cfg"
    cfg.write_text(text.replace("initial_step = 0.01\n", ""))
    (tmp_path / "mincut_chain.edges").write_text("source s\nsink t\ns a 0 0\na t 0 0\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rsg.initial_step:") and "probe read 0.0" in err
    assert not out.exists()


# perfbench/instance.py's DENSE_CONFIG: no initial_step, two outer loops
DENSE_CONFIG = """\
[problem]
kind = mincut:dense16.edges

[measure]
a = 0.0
b = 4.0
quadrature_nodes = 128

[basis]
kind = piecewise

[rsg]
eps0 = 4.0
eps_target = 0.0001
alpha = 1.2
t = 50
k = 20
outer_loops = 2
m_schedule = power:shift=10,exponent=0.8,offset=10
theta_samples = 64
noise_sigma = 0.0
seed = 20240502

[stats]
samples = 10000
quantiles = 0.1,0.5,0.9
round_eps = 0.1

[output]
directory = out-dense16
"""


def dense16_cfg(tmp_path) -> Path:
    """DENSE_CONFIG on a 16-node random_cut_graph."""
    g = random_cut_graph(np.random.default_rng(0), 16)
    lines = [f"source {g.source}", f"sink {g.sink}"]
    lines += [f"{u} {v} {base!r} {slope!r}" for u, v, base, slope in g.edges]
    (tmp_path / "dense16.edges").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "dense16.cfg"
    cfg.write_text(DENSE_CONFIG)
    return cfg


def test_derived_first_step_reaches_a_dense_graph_within_two_loops(tmp_path):
    """On a 16-node random_cut_graph G^2 is about 1,600, and the paper's
    eps0 / (alpha G^2) leaves the run at an error of 4.01 after 40 stages;
    the step fitted to the stage length, D / sqrt(G^2 t), ends below 0.5."""
    cfg = dense16_cfg(tmp_path)
    paths = cli.run_experiment(cli.load_config(cfg, out_override=tmp_path / "out"))
    rows = trace_rows(paths["trace"].read_text())
    assert len(rows) == 40 and rows[-1].fn_error_pi < 0.5


def test_loaded_dimension_is_the_built_problems(tmp_path):
    """The loader states q without building the problem: it is the built
    problem's q, for both demos and a dense16 config."""
    for path in (DEMOS / "quadratic.cfg", DEMOS / "mincut.cfg", dense16_cfg(tmp_path)):
        c = cli.load_config(path)
        assert c.dimension == c.build_problem().dimension
