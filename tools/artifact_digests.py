"""Recompute the 27 seeded-artifact digests and compare them with a BENCH file.

    python3 tools/artifact_digests.py BENCH_<n>.json

Runs ``uqsubgrad run`` on demos/quadratic.cfg, demos/mincut.cfg and the
mincut-dense16 instance (config and edge list from perfbench/instance.py's
``prepare``), each at the config's own seed and at ``--seed 1`` and
``--seed 2``, one process at a time with one BLAS thread. For each run it
takes the sha256 of trace.csv without its elapsed_ms column, of expansion.txt
and of stats.json.

The recomputed digests are printed as JSON on stdout, keyed like the BENCH
file's ``artifact_digests`` (``config_seed``, ``seed_1``, ``seed_2``, then the
input, then the file). Each is compared with the BENCH file's ``change``
entry; every mismatch is named on stderr and the exit code is 1.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("expansion.txt", "stats.json", "trace.csv")
SEEDS = {"config_seed": None, "seed_1": 1, "seed_2": 2}
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def dense16_config(work: Path) -> Path:
    """The dense16 config (and its edge list) as the benchmark writes them."""
    spec = importlib.util.spec_from_file_location("instance", ROOT / "perfbench" / "instance.py")
    instance = importlib.util.module_from_spec(spec)
    sys.modules["instance"] = instance  # dataclasses looks its module up there
    spec.loader.exec_module(instance)
    return instance.prepare("mincut-dense16", ROOT, work).config


def without_elapsed(trace: bytes) -> bytes:
    """trace.csv with its last column, elapsed_ms, dropped from every line."""
    lines = trace.decode().splitlines()
    return ("\n".join(ln.rsplit(",", 1)[0] for ln in lines) + "\n").encode()


def digests(config: Path, seed, out: Path) -> dict:
    args = [sys.executable, "-m", "uqsubgrad.cli", "run", str(config), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    subprocess.run(args, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    result = {}
    for name in ARTIFACTS:
        data = (out / name).read_bytes()
        if name == "trace.csv":
            data = without_elapsed(data)
        result[name] = hashlib.sha256(data).hexdigest()
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/artifact_digests.py BENCH_<n>.json", file=sys.stderr)
        return 2
    expected = json.loads(Path(argv[0]).read_text())["artifact_digests"]
    got: dict = {}
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = {
            "demos/mincut.cfg": ROOT / "demos" / "mincut.cfg",
            "demos/quadratic.cfg": ROOT / "demos" / "quadratic.cfg",
            "mincut-dense16": dense16_config(work),
        }
        for seed_key, seed in SEEDS.items():
            for name, config in configs.items():
                out = work / f"{seed_key}-{name.replace('/', '_')}"
                got.setdefault(seed_key, {})[name] = digests(config, seed, out)
                want = expected[seed_key]["change"][name]
                for artifact, digest in got[seed_key][name].items():
                    if want.get(artifact) != digest:
                        mismatches.append(f"{seed_key} {name} {artifact}")
    print(json.dumps(got, indent=2, sort_keys=True))
    for m in mismatches:
        print(f"digest mismatch: {m}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
