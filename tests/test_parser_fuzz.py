"""Property-based fuzzing of the three text parsers: the config loader, the
edge-list reader and the expansion reader.

A config either loads, so that the run reaches the solver (patched here to
stop at once), or exits 2 naming the problem and writing nothing. An edge
list or an expansion either parses to a valid object or raises ValueError.
Every generated size stays small: the run is stopped before the solve, and
no bound exists yet on t * theta_samples.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from uqsubgrad import basis as bs  # noqa: E402
from uqsubgrad import cli  # noqa: E402
from uqsubgrad.submodular import CutGraph, parse_cut_graph  # noqa: E402

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)

JUNK = st.sampled_from(["", "abc", "1,2", "50%", "0x10", "1e", "-", "true", "1 2"]) | st.text(
    max_size=6
)
FLOATS = st.sampled_from(
    ["0", "0.5", "1", "1.5", "4", "16", "1e-4", "-1", "nan", "inf", "-inf", "1e400"]
)
INTS = st.integers(-2, 6).map(str) | st.sampled_from(["25001", "1025", "9" * 30])

# values for each config key, by its parser unless named here
CONFIG_VALUES = {
    "problem.kind": st.sampled_from(
        ["quadratic", "mincut:chain.edges", "mincut:missing.edges", "mincut:", "mincut:.", "banana"]
    ),
    "basis.kind": st.sampled_from(["legendre", "piecewise"]),
    "measure.quadrature_nodes": st.sampled_from(["1", "2", "8", "33", "64", "0", "-1", "1025"]),
    "rsg.m_schedule": st.sampled_from([
        "constant:4", "constant:0", "constant:x", "linear:start=2,step=1,cap=8",
        "linear:start=8,step=-1,cap=8", "linear:start=1", "linear:",
        "power:shift=1,exponent=0.8,offset=2", "power:shift=-2,exponent=1,offset=0",
        "power:shift=1,exponent=1000,offset=0", "power:shift=nan,exponent=1,offset=0",
        "fib:3",
    ]),
    "stats.quantiles": st.sampled_from(["0.1,0.5,0.9", "0.5", "", "1.5", "nan", "0.1,,0.2"]),
}
BY_PARSER = {float: FLOATS, int: INTS, str: st.sampled_from(["out", ""])}

QUADRATIC = {
    "problem": {"kind": "quadratic", "mu": "1.0", "l": "50.0"},
    "measure": {"a": "0.0", "b": "6.283185307179586", "quadrature_nodes": "16"},
    "basis": {"kind": "legendre"},
    "rsg": {
        "eps0": "16.0", "eps_target": "0.0001", "alpha": "1.5", "t": "2", "k": "2",
        "outer_loops": "2", "m_schedule": "linear:start=2,step=1,cap=6",
        "theta_samples": "2", "seed": "3",
    },
    "stats": {"samples": "20"},
}
MINCUT = {
    **QUADRATIC,
    "problem": {"kind": "mincut:chain.edges"},
    "measure": {"a": "0.0", "b": "4.0", "quadrature_nodes": "16"},
    "basis": {"kind": "piecewise"},
}


MISSPELLED = ["rsg.noise_sgima", "stat.samples", "output.dir"]


def _value(name):
    if name in CONFIG_VALUES:
        return CONFIG_VALUES[name]
    return BY_PARSER[cli.FIELDS[name][0]] if name in cli.FIELDS else FLOATS


# one edit: set a key (None deletes it); a few names are misspelled
EDITS = st.sampled_from(sorted(cli.FIELDS) + MISSPELLED).flatmap(
    lambda name: st.tuples(st.just(name), st.none() | _value(name) | JUNK)
)


def _config_text(base, edits):
    body = {section: dict(keys) for section, keys in base.items()}
    for name, value in edits:
        section, key = name.split(".")
        if value is None:
            body.get(section, {}).pop(key, None)
        else:
            body.setdefault(section, {})[key] = value
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in body.items()
    )


class SolverReached(Exception):
    pass


@FUZZ
@given(st.sampled_from([QUADRATIC, MINCUT]), st.lists(EDITS, max_size=3))
def test_config_loads_or_exits_2_writing_nothing(base, edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "exp.cfg"
        cfg.write_text(_config_text(base, edits))
        (tmp / "chain.edges").write_text((DEMOS / "mincut_chain.edges").read_text())
        out = tmp / "out"
        err = io.StringIO()
        with mock.patch.object(cli, "restarted_outer", side_effect=SolverReached), \
                contextlib.redirect_stderr(err):
            code = cli.main(["run", str(cfg), "--out", str(out)])
        if code == 2:
            assert err.getvalue().startswith("config error: ") and not out.exists()
        else:
            assert code == 1 and "SolverReached" in err.getvalue(), err.getvalue()


NODES = st.sampled_from(["s", "t", "a", "b"])
EDGE_LINES = st.one_of(
    st.tuples(st.sampled_from(["source", "sink"]), NODES),
    st.tuples(NODES, NODES, FLOATS | JUNK, FLOATS | JUNK),
    st.lists(st.sampled_from(["source", "sink", "s", "#", "x#y", "2.5"]) | st.text(max_size=4),
             max_size=5),
).map(" ".join)


@FUZZ
@given(st.booleans(), st.lists(EDGE_LINES, max_size=6), st.sampled_from([(0.0, 4.0), (-3.0, 1.0)]))
def test_edge_list_parses_to_a_valid_graph_or_raises_value_error(headed, lines, theta_range):
    text = "\n".join((["source s", "sink t"] if headed else []) + lines)
    try:
        graph = parse_cut_graph(text, theta_range)
    except ValueError:
        return
    assert isinstance(graph, CutGraph)
    lo, hi = theta_range
    for _, _, base, slope in graph.edges:
        ends = [base + slope * lo, base + slope * hi]
        assert all(math.isfinite(w) and w >= 0 for w in ends), (base, slope)


EXPANSION_HEADERS = {
    "kind": st.sampled_from(["legendre_orthonormal", "piecewise_constant", "legendre", ""]),
    "support": st.sampled_from(["0.0 1.0", "1.0 0.0", "nan 1", "0", "0 1 2", "a b", "-inf 0"]),
    "quadrature_nodes": st.sampled_from(["8", "1", "0", "-1", "x", "1 2"]),
    "breakpoints": st.sampled_from(["", "0.5", "0.25 0.5", "2", "0.5 0.5", "0.5 0.25", "nan"]),
    "shape": st.sampled_from(["1 1", "2 1", "3 2", "0 1", "-1 1", "2", "x y", "2 0"]),
}
EXPANSION_ROWS = st.lists(st.lists(FLOATS | JUNK, min_size=0, max_size=3).map(" ".join), max_size=4)


@FUZZ
@given(st.sampled_from([bs._MAGIC, "not an expansion"]),
       st.fixed_dictionaries({}, optional=EXPANSION_HEADERS), EXPANSION_ROWS)
def test_expansion_parses_to_a_valid_expansion_or_raises_value_error(magic, header, rows):
    text = "\n".join([magic, *(f"{k}: {v}" for k, v in header.items()), *rows]) + "\n"
    try:
        e = bs.expansion_from_text(text)
    except ValueError:
        return
    assert np.isfinite(e.coefficients).all() and e.coefficients.shape == (e.m, e.q)
    assert e.basis.measure.a < e.basis.measure.b
    assert bs.expansion_from_text(bs.expansion_to_text(e)).coefficients.tobytes() == \
        e.coefficients.tobytes()
