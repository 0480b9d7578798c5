"""Uncertainty quantification for convex nonsmooth optimisation.

The optimum of an objective with an uncertain parameter theta is itself a
function of theta; this package expands it over a basis of L2(pi) and finds
the coefficients with restarted projected subgradient descent on a growing
basis. Includes the min s-t cut application via the Lovasz extension, with
rounding back to discrete cuts.
"""

from .measure import ScalarField, ThetaMeasure, inner_product, pi_norm
from .basis import (
    BasisFamily,
    Expansion,
    Partition,
    PartitionRejection,
    analyze,
    expansion_from_text,
    expansion_pi_norm,
    expansion_to_text,
    legendre_family,
    max_gap_measure,
    piecewise_family,
    refine_partition,
    synthesize,
    transfer_coefficients,
    truncate,
    zero_expansion,
)
from .submodular import (
    CutGraph,
    DiscreteSolution,
    SetFunctionSpec,
    brute_force_min,
    cut_value,
    demo_cut_graph,
    lovasz_eval,
    lovasz_subgradient,
    min_cut_value_function,
    parse_cut_graph,
    phi_round,
    set_function,
    threshold_round,
)
from .problems import (
    NoiseModel,
    ProblemSpec,
    ProjectionSpec,
    expected_objective,
    l2_ball,
    mincut_problem,
    no_projection,
    objective_gap_norm,
    per_cell_box,
    project,
    quadratic_problem,
    quadratic_reference,
)
from .oracle import GVEstimate, OracleConfig, estimate_G_V, estimate_truncated_subgradient
from .rsg import (
    RsgConfig,
    RunTrace,
    derive_stage_params,
    measure_remainder_gap,
    restarted_outer,
    rsg_loop,
    sg_subroutine,
    trace_to_csv,
)

__version__ = "0.1.0"
