"""Walkthrough: tracking the theta-dependent optimum of a piecewise quadratic.

The objective has branch curvatures (mu/4, mu/2) x (L/4, L/2) around an
oscillatory optimum x*(theta) = y*(theta) that is known in closed form, so we
can watch the expansion converge to it. Feasible set: a ball of radius 1.5 on
the coefficient matrix, which matches a pi-norm ball on the function.
"""

import numpy as np

import uqsubgrad as uq

# ---------------------------------------------------------------
# Problem: mu = 1, L = 50, theta ~ uniform[0, 2*pi]
# ---------------------------------------------------------------
measure = uq.ThetaMeasure(0.0, 2.0 * np.pi)
problem = uq.quadratic_problem(1.0, 50.0, measure)
family = uq.legendre_family(measure)

ref = uq.quadratic_reference(measure.nodes)
ref_norm = np.sqrt(measure.weights @ ref[:, 0] ** 2)
print(f"per-component pi-norm of the true optimum: {ref_norm:.4f} (< 0.52)")

# ---------------------------------------------------------------
# Solver: 10 restart loops of K = 20 stages x t = 50 steps, basis
# growing from 8 to 32 polynomials. eta_1 is derived from eps0 and
# the estimated subgradient second moment, then decays by alpha
# within each loop and resets at each restart.
# ---------------------------------------------------------------
config = uq.RsgConfig(
    eps0=16.0,
    eps_target=1e-4,
    alpha=1.5,
    t=50,
    k_stages=20,
    outer_loops=10,
    m_schedule=lambda j: min(8 + j, 32),
    oracle=uq.OracleConfig(theta_samples_per_call=64),
    seed=20240500,
)
final, trace = uq.restarted_outer(problem, config, family)

loop_end = [r for r in trace.rows if r.stage_k == config.k_stages]
print("\nsquared pi-error at the end of each restart loop:")
for r in loop_end:
    print(f"  loop {r.outer_i:2d}  m={r.m:2d}  eta={r.eta:.2e}  err^2={r.fn_error_pi_sq:.3e}")
ratio = trace.rows[-1].fn_error_pi_sq / trace.rows[0].fn_error_pi_sq
print(f"final / initial squared error: {ratio:.2e}")

# ---------------------------------------------------------------
# Statistics of the solved x*(theta): mean and variance by
# quadrature, quantiles from the expansion at 10^4 midpoints.
# ---------------------------------------------------------------
from uqsubgrad.cli import compute_statistics

report = compute_statistics(final, 10_000, (0.1, 0.5, 0.9))
true_mean = measure.weights @ ref
print(f"\nsolved mean:  {np.round(report.mean, 4)}")
print(f"true mean:    {np.round(true_mean, 4)}")
print(f"variance:     {np.round(report.variance, 4)}")

# the remainder bound: the function gap at a fixed truncation level is
# controlled by the Lipschitz constant times the basis tail of the optimum
for m in (4, 8, 16):
    e_m = uq.analyze(uq.quadratic_reference, family, m)
    lhs, rhs = uq.measure_remainder_gap(problem, e_m, uq.quadratic_reference, m)
    print(f"level {m:2d}: gap norm {lhs:.3f} <= L * tail {rhs:.3f}")
