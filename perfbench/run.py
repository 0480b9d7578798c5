"""End-to-end and per-layer benchmark of `uqsubgrad run`.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a uqsubgrad checkout; the package is imported from
the checkout's ``src/`` directory and nothing is installed. The loop is
closed: one `run` process at a time, each started after the previous one
exited, each with one BLAS/OpenMP thread. ``--seed`` and the seeds derived
from it (``solver_seed``) are handed to ``uqsubgrad run --seed`` and set only
the solver's random stream; the program sees only config and edge-list files.

With ``--trace 0`` each workload runs the plain CLI repeatedly for about
``--seconds`` seconds and reports medians of the end-to-end metrics. With
``--trace 1`` plain runs alternate with traced ones (``tracer.py``), all at
solver seed ``--seed``; the per-layer metrics come from the traced runs, and
``trace.overhead_s`` is the traced minus the plain median solve time.
``--workload all`` interleaves the three workloads run by run and prefixes
each metric with its workload.

A run fails when it exits non-zero, misses an artifact, writes artifacts that
differ from the first run's at the same solver seed (``elapsed_ms`` excepted;
traced runs included), never reaches the workload's time tolerance, ends above its final tolerance,
or, when traced, contradicts a call-count prediction. The last stdout line is
the JSON result. The exit code is 1 when any run failed and 2 when this is
not a uqsubgrad checkout.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = ("quadratic-demo", "mincut-chain-demo", "mincut-dense16")
ARTIFACTS = ("trace.csv", "expansion.txt", "stats.json")
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
MIN_RUNS = 3  # per kind of run (plain, traced), even past --seconds
CHILD_TIMEOUT_S = 120.0
STAGNATION_RTOL = 1e-4  # RsgConfig.stagnation_rtol default
SEED_STRIDE = 100_003

# layer -> workloads on which it must run; on the others it must not
PREDICTIONS = {
    "basis.eval_matrix.calls": {"quadratic-demo"},
    "submodular.reference_values.calls": {"mincut-chain-demo", "mincut-dense16"},
    "oracle.estimate_G_V.calls": {"quadratic-demo", "mincut-dense16"},
}

UNITS = {
    "run_s": "s", "setup_s": "s", "solve_s": "s", "steps_per_s": "1/s",
    "time_to_tol_s": "s", "stats_s": "s", "peak_rss_mb": "MB",
}
# Metrics of the JSON result. stats_s is printed but not gated: one ~0.1 s
# interval per run varies 2.5x within a run on a shared host, and its layer
# is reported as cli.compute_statistics in traced runs.
END_TO_END = ("run_s", "setup_s", "solve_s", "steps_per_s", "time_to_tol_s", "peak_rss_mb")


def solver_seed(seed: int, index: int) -> int:
    """Solver seed of the index-th plain run.

    Runs 0 and 1 both use ``seed``, so every benchmark run checks that a seed
    reproduces its artifacts; every later run uses a new seed. Medians over
    many solver seeds describe the solver rather than one random stream: the
    stage that reaches a tolerance moves by whole outer loops between seeds,
    and about a quarter of the chain demo's seeds stop on stagnation before
    stage 200.
    """
    return seed + max(index - 1, 0) * SEED_STRIDE


@dataclass
class Run:
    seed: int
    traced: bool
    wall_s: float
    rss_mb: float
    record: dict
    artifacts: dict
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


def environment() -> dict:
    def git_rev():
        if not (ROOT / ".git").exists():
            return None  # an exported tree; do not let git search parent directories
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    import numpy

    return {
        "git_revision": git_rev(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "child_threads": THREAD_ENV,
    }


def spawn(args: list[str], out_dir: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds from spawn to exit, and the child's own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        tic = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - tic
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def comparable(artifacts: dict) -> dict:
    """Artifacts with the wall-clock elapsed_ms trace column dropped."""
    out = dict(artifacts)
    lines = artifacts["trace.csv"].decode().splitlines() or [""]
    header = lines[0].split(",")
    if "elapsed_ms" in header:
        col = header.index("elapsed_ms")
        out["trace.csv"] = "\n".join(
            ",".join(c for i, c in enumerate(ln.split(",")) if i != col) for ln in lines)
    return out


def trace_rows(artifacts: dict) -> list[dict]:
    lines = artifacts["trace.csv"].decode().splitlines() or [""]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def crossing_time(errors: list[float], ends: list[float], tol: float):
    """Seconds until the error first reaches ``tol``, interpolated log-linearly
    between the ends of the stage before and the stage that reaches it."""
    for k, err in enumerate(errors):
        if err <= tol:
            if k == 0 or err <= 0:
                return ends[k]
            prev = math.log(errors[k - 1])
            frac = (prev - math.log(tol)) / (prev - math.log(err))
            return ends[k - 1] + frac * (ends[k] - ends[k - 1])
    return None


def steps_per_stage(config: Path) -> int:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(config)
    return cp.getint("rsg", "t")


class WorkloadRuns:
    """The runs of one workload."""

    def __init__(self, workload: str, args, work: Path):
        from instance import prepare

        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work / workload
        self.work.mkdir()
        self.inst = prepare(workload, ROOT, self.work)
        self.t = steps_per_stage(self.inst.config)
        self.runs: list[Run] = []
        self.busy_s = 0.0

    def next_kind(self) -> bool:
        return self.trace and len(self.runs) % 2 == 1

    def pending(self) -> bool:
        traced = self.next_kind()
        same = [r.wall_s for r in self.runs if r.traced == traced]
        if len(same) < MIN_RUNS:
            return True
        return self.busy_s + statistics.median(same) <= self.seconds

    def step(self):
        traced = self.next_kind()
        seed = self.seed if self.trace else solver_seed(self.seed, len(self.runs))
        out = self.work / f"run-{len(self.runs):03d}"
        out.mkdir()
        record = out / "record.json"
        code, wall, rss = spawn(
            [str(CHILD), str(self.inst.config), str(out / "artifacts"), str(seed),
             str(record), "1" if traced else "0"], out)
        run = Run(seed, traced, wall, rss, {}, {})
        self.busy_s += wall
        self.runs.append(run)
        if code != 0:
            tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            run.errors.append(f"exit code {code}: {' | '.join(tail)}")
        if record.is_file():
            run.record = json.loads(record.read_text())
        for name in ARTIFACTS:
            path = out / "artifacts" / name
            if path.is_file():
                run.artifacts[name] = path.read_bytes()
            else:
                run.errors.append(f"missing artifact {name}")
        if len(run.artifacts) == len(ARTIFACTS):
            self.check(run)

    def check(self, run: Run):
        first = next(r for r in self.runs
                     if r.seed == run.seed and len(r.artifacts) == len(ARTIFACTS))
        mine, theirs = comparable(run.artifacts), comparable(first.artifacts)
        differ = [n for n in ARTIFACTS if mine[n] != theirs[n]]
        if differ:
            run.errors.append(f"artifacts differ from the first run at seed {run.seed}: {differ}")

        rec, rows = run.record, trace_rows(run.artifacts)
        needed = ("solve_start", "solve_end", "stats_start", "stats_end")
        if any(k not in rec for k in needed) or len(rec.get("stage_s", [])) != len(rows):
            run.errors.append("phase timestamps missing from the run record")
            return
        if not rows:
            run.errors.append("trace.csv holds no stages")
            return
        errors = [float(r["fn_error_pi"]) for r in rows]
        ends = [s - rec["solve_start"] for s in rec["stage_s"]]
        to_tol = crossing_time(errors, ends, self.inst.time_tol)
        if to_tol is None:
            run.errors.append(f"error never reached {self.inst.time_tol:.4g}")
        if not errors[-1] <= self.inst.final_tol:
            run.errors.append(f"final error {errors[-1]:.4g} above {self.inst.final_tol:.4g}")
        if run.traced:
            self.check_predictions(run)
        if run.errors:
            return
        solve_s = rec["solve_end"] - rec["solve_start"]
        run.metrics = {
            "run_s": run.wall_s,
            "setup_s": rec["solve_start"],
            "solve_s": solve_s,
            "steps_per_s": len(rows) * self.t / solve_s,
            "time_to_tol_s": to_tol,
            "stats_s": rec["stats_end"] - rec["stats_start"],
            "peak_rss_mb": run.rss_mb,
        }

    def check_predictions(self, run: Run):
        layers = run.record.get("layers", {})
        for metric, runs_on in PREDICTIONS.items():
            if metric not in layers:
                continue  # hook missing: reported, not checked
            expected = self.workload in runs_on
            if (layers[metric] > 0) != expected:
                run.errors.append(f"{metric} = {layers[metric]}, predicted "
                                  f"{'> 0' if expected else '0'} on {self.workload}")

    def report(self) -> tuple[int, dict]:
        """Failed-run count and the metrics, after printing a summary."""
        failed = [r for r in self.runs if r.errors]
        for i, run in enumerate(self.runs):
            for err in run.errors:
                kind = "traced" if run.traced else "plain"
                print(f"{self.workload} run {i} ({kind}, seed {run.seed}): {err}",
                      file=sys.stderr)
        print("instance " + json.dumps({
            "workload": self.workload, "time_tol": self.inst.time_tol,
            "final_tol": self.inst.final_tol, **self.inst.digests}, sort_keys=True))
        seeds = sorted({r.seed for r in self.runs})
        print(f"{self.workload}: {len(self.runs)} runs at {len(seeds)} solver seeds from "
              f"{seeds[0]}, {len(failed)} failed")
        plain = [r for r in self.runs if r.metrics and not r.traced]
        if not plain:
            return len(failed), {}
        if self.trace:
            traced = [r for r in self.runs if r.metrics and r.traced]
            return len(failed), self.layer_metrics(traced, plain) if traced else {}
        metrics = {}
        for name, unit in UNITS.items():
            values = [r.metrics[name] for r in plain]
            median = statistics.median(values)
            print(f"  {name:<14} median {median:<12.6g} {unit:<4} min {min(values):<12.6g}"
                  f" max {max(values):<12.6g} n={len(values)}")
            if name in END_TO_END:
                metrics[name] = {"value": median, "unit": unit}
        return len(failed), metrics

    def layer_metrics(self, traced: list[Run], plain: list[Run]) -> dict:
        layers = [r.record["layers"] for r in traced]
        missing = layers[0]["missing"]
        for hook in missing:
            print(f"  missing layer hook: {hook}", file=sys.stderr)
        metrics: dict = {}
        for name in layers[0]:
            if name == "missing":
                continue
            unit = ("count" if name.endswith((".calls", ".rows", ".thetas"))
                    else "ratio" if name.endswith("_ratio") else "s")
            metrics[name] = {"value": statistics.median(lay[name] for lay in layers),
                             "unit": unit}
        rows = trace_rows(traced[0].artifacts)
        last_per_loop: dict[str, float] = {}
        for r in rows:
            last_per_loop[r["outer_i"]] = float(r["fn_error_pi"])
        errs = list(last_per_loop.values())
        stagnated = (len(errs) >= 2 and errs[-2] > 0
                     and (errs[-2] - errs[-1]) / errs[-2] < STAGNATION_RTOL)
        metrics.update({
            "rsg.stages": {"value": len(rows), "unit": "count"},
            "rsg.steps": {"value": len(rows) * self.t, "unit": "count"},
            "rsg.outer_loops_used": {"value": len(errs), "unit": "count"},
            "rsg.stopped_on_stagnation": {"value": int(stagnated), "unit": "flag"},
            "rsg.final_error_pi": {"value": errs[-1], "unit": "pi-norm"},
        })
        solve = statistics.median(r.metrics["solve_s"] for r in traced)
        overhead = solve - statistics.median(r.metrics["solve_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.missing_hooks"] = {"value": len(missing), "unit": "count"}

        print(f"  traced solve {solve:.4g} s, tracing overhead {overhead:.4g} s; top self time:")
        top = sorted(((v["value"], k) for k, v in metrics.items() if k.endswith(".self_s")),
                     reverse=True)[:6]
        for value, name in top:
            print(f"    {name:<44} {value:8.4f} s  {100 * value / solve:4.0f}% of solve")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not (ROOT / "src" / "uqsubgrad" / "cli.py").is_file() or not (ROOT / "demos").is_dir():
        print(f"error: {ROOT} is not a uqsubgrad checkout (no src/uqsubgrad or demos/)",
              file=sys.stderr)
        return 2

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                 dir=ROOT / ".perfbench_work"))
    try:
        print("environment " + json.dumps(environment(), sort_keys=True))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        benches = [WorkloadRuns(name, args, work) for name in names]
        # compile the package's bytecode and warm the file cache, untimed
        spawn(["-c", "import uqsubgrad.cli"], work)
        while any(b.pending() for b in benches):
            for b in benches:  # one run each in turn, so host drift hits all alike
                if b.pending():
                    b.step()
        failed = attempted = 0
        metrics: dict = {}
        for b in benches:
            n_failed, found = b.report()
            failed += n_failed
            attempted += len(b.runs)
            prefix = f"{b.workload}." if len(benches) > 1 else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other benchmark run is using it
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
