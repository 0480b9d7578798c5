"""One `uqsubgrad run` in a fresh process, with phase timestamps.

Usage: python3 child.py <config> <out-dir> <seed> <record.json> <trace 0|1>

The run itself is the CLI entry point, ``uqsubgrad.cli.main(["run", ...])``.
Two call sites are wrapped to take timestamps, each called once per run:
``cli.restarted_outer`` (solve start and end, plus an ``on_stage`` callback
that records when each stage finished) and ``cli.compute_statistics``. With
trace 1 the per-layer hooks of ``tracer.py`` are installed as well.

The record written at exit holds seconds relative to the moment before
``import uqsubgrad``.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    config, out_dir, seed, record_path, traced = argv
    t0 = time.perf_counter()
    from uqsubgrad import cli

    rec: dict = {"stage_s": []}
    layers = None
    if traced == "1":
        from tracer import Tracer

        layers = Tracer()
        layers.install()

    def now() -> float:
        return time.perf_counter() - t0

    solve = cli.restarted_outer
    stats = cli.compute_statistics

    def timed_solve(*args, **kwargs):
        user_cb = kwargs.get("on_stage")

        def on_stage(e, row):
            rec["stage_s"].append(now())
            if user_cb is not None:
                user_cb(e, row)

        kwargs["on_stage"] = on_stage
        rec["solve_start"] = now()
        result = solve(*args, **kwargs)
        rec["solve_end"] = now()
        return result

    def timed_stats(*args, **kwargs):
        rec["stats_start"] = now()
        result = stats(*args, **kwargs)
        rec["stats_end"] = now()
        return result

    cli.restarted_outer = timed_solve
    cli.compute_statistics = timed_stats
    code = cli.main(["run", config, "--seed", seed, "--out", out_dir])
    if layers is not None:
        rec["layers"] = layers.report()
    with open(record_path, "w") as fh:
        json.dump(rec, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
