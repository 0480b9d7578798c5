"""End-to-end bytes: the seeded artifacts of the dense16 benchmark instance
(the greedy kernel), of the chain demo (the reference's tied switch) and of
the quadratic demo (the Legendre solve and statistics) against the digests
of BENCH_29.json, whose G^2/V^2 probe summed over the rule moved the quadratic
and dense16 digests and kept the chain demo's."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "tools" / "artifact_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def recorded(name: str) -> dict:
    """BENCH_29.json's config-seed digests of ``name``."""
    bench = json.loads((ROOT / "BENCH_29.json").read_text())
    return bench["artifact_digests"]["config_seed"]["change"][name]


def test_dense16_config_seed_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    tool = load_tool()
    # dense16_config registers perfbench/instance.py as sys.modules["instance"];
    # setitem puts the entry back as it was afterwards
    monkeypatch.setitem(sys.modules, "instance", None)
    work = tmp_path / "work"
    work.mkdir()
    got = tool.digests(tool.dense16_config(work), None, tmp_path / "out")
    assert got == recorded("mincut-dense16")


def test_chain_demo_config_seed_artifacts_match_recorded_digests(tmp_path):
    """demos/mincut.cfg's optimal cut switches at theta = 2 with the two cuts
    tied there: the seeded artifacts pin which cut the reference keeps."""
    tool = load_tool()
    got = tool.digests(ROOT / "demos" / "mincut.cfg", None, tmp_path / "out")
    assert got == recorded("demos/mincut.cfg")


def test_quadratic_demo_config_seed_artifacts_match_recorded_digests(tmp_path):
    tool = load_tool()
    got = tool.digests(ROOT / "demos" / "quadratic.cfg", None, tmp_path / "out")
    assert got == recorded("demos/quadratic.cfg")
