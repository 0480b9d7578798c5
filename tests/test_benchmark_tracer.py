"""The benchmark's per-layer tracer must find every function it hooks: a
hook whose target is gone drops that layer's metrics from the traced result."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# per_layer metrics that perfbench/run.py derives from the trace and timings
# rather than reading from the tracer
RUN_METRICS = {
    "rsg.stages", "rsg.steps", "rsg.outer_loops_used", "rsg.stopped_on_stagnation",
    "rsg.final_error_pi", "trace.overhead_s", "trace.missing_hooks",
}

# a fresh interpreter, so the tracer's patches stay out of the test process
INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.report()))
"""


def test_benchmark_tracer_hooks_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["missing"] == []
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert RUN_METRICS <= names
    assert sorted(names - RUN_METRICS - report.keys()) == []
