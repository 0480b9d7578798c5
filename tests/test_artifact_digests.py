"""End-to-end bytes of the min-cut greedy kernel: the dense16 benchmark
instance's seeded artifacts against the digests recorded in BENCH_15.json."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_dense16_config_seed_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "tools" / "artifact_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # dense16_config registers perfbench/instance.py as sys.modules["instance"];
    # setitem puts the entry back as it was afterwards
    monkeypatch.setitem(sys.modules, "instance", None)
    work = tmp_path / "work"
    work.mkdir()
    got = tool.digests(tool.dense16_config(work), None, tmp_path / "out")
    recorded = json.loads((ROOT / "BENCH_15.json").read_text())["artifact_digests"]
    assert got == recorded["config_seed"]["change"]["mincut-dense16"]
