"""Walkthrough: min s-t cut with an uncertain edge weight.

The chain graph s ->(theta) 1 ->(2) 2 ->(3) t switches its optimal cut at
theta = 2: below it the cheapest cut removes the s->1 edge, above it the
1->2 edge. We relax the cut function to its convex extension on [0,1]^2 with
a sink-side indicator convention (x_i = 1 puts node i with the sink), expand
x*(theta) as a piecewise-constant function of theta, and round the result
back to discrete cuts.
"""

import numpy as np

import uqsubgrad as uq
from uqsubgrad.submodular import min_cut_value_function

# ---------------------------------------------------------------
# The instance, theta ~ uniform[0, 4]
# ---------------------------------------------------------------
measure = uq.ThetaMeasure(0.0, 4.0)
graph = uq.demo_cut_graph((0.0, 4.0))
spec = uq.set_function(graph)
problem = uq.mincut_problem(graph, measure)

print("discrete optima by exhaustive search:")
for theta in (1.0, 2.0, 3.0):
    sol = uq.brute_force_min(spec, theta)
    print(f"  theta={theta}: sink side {set(sol.members) or '{}'}  value {sol.value}")

# ---------------------------------------------------------------
# Solve: piecewise-constant expansion over a sampled partition that
# grows with the stage index; the box projection is a per-cell clamp.
# The explicit initial step (0.01) takes the place of the derived one.
# ---------------------------------------------------------------
family = uq.piecewise_family(measure)
config = uq.RsgConfig(
    eps0=4.0,
    eps_target=1e-4,
    alpha=1.2,
    t=50,
    k_stages=20,
    outer_loops=10,
    m_schedule=lambda j: round((j + 10) ** 0.8 + 10),
    oracle=uq.OracleConfig(theta_samples_per_call=64),
    seed=20240502,
    initial_step=0.01,
)
fstar = min_cut_value_function(graph)
final, trace = uq.restarted_outer(problem, config, family, reference_values=fstar)

print(f"\ncells in the final partition: {final.m}")
print("squared pi-error ||f - f*||^2 at each restart boundary:")
for r in trace.rows:
    if r.stage_k == config.k_stages:
        print(f"  loop {r.outer_i:2d}  m={r.m:3d}  err^2={r.fn_error_pi_sq:.3e}")

# ---------------------------------------------------------------
# Round back to discrete cuts: threshold at 1 - eps at a few sampled
# thetas, then per cell, tallying each cut by the measure of its cells.
# ---------------------------------------------------------------
rng = np.random.default_rng(7)
thetas = np.sort(rng.uniform(0.0, 4.0, size=8))
print("\nrounded cuts at sampled thetas (eps = 0.1):")
for theta in thetas:
    x = uq.synthesize(final, float(theta))
    S = uq.threshold_round(x, 0.1, graph.ground_set)
    val = uq.cut_value(graph, S, float(theta))
    best = uq.brute_force_min(spec, float(theta)).value
    print(f"  theta={theta:.3f}: x={np.round(x, 3)} -> {set(S) or '{}'} "
          f"value {val:.3f} (opt {best:.3f})")

from uqsubgrad.cli import compute_statistics

report = compute_statistics(final, 10_000, (0.5,), round_eps=0.1, graph=graph)
print("\ndistribution of the rounded cut over theta ~ pi:")
for cut, freq in report.cut_frequencies.items():
    print(f"  sink side {{{cut}}}: {freq:.3f}")
