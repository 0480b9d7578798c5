"""Problem abstraction (per-theta objective, subgradient, projection) and the
two concrete instances: a four-branch piecewise quadratic with a closed-form
optimum, and the min s-t cut relaxation driven by the Lovasz extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import basis as bs
from .measure import ThetaMeasure
from .submodular import CutGraph, set_function, verify_submodular


@dataclass(frozen=True)
class ProjectionSpec:
    """Feasible-set projection: none, an L2 ball in coefficient space
    (orthonormal family), or a per-cell box (piecewise family)."""

    kind: str = "none"
    radius: float = 0.0
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "l2_ball", "per_cell_box"):
            raise ValueError(f"unknown projection kind: {self.kind!r}")
        if self.kind == "l2_ball" and self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if self.kind == "per_cell_box" and self.lo >= self.hi:
            raise ValueError("box must satisfy lo < hi")


def l2_ball(radius: float) -> ProjectionSpec:
    return ProjectionSpec("l2_ball", radius=radius)


def per_cell_box(lo: float, hi: float) -> ProjectionSpec:
    return ProjectionSpec("per_cell_box", lo=lo, hi=hi)


def no_projection() -> ProjectionSpec:
    return ProjectionSpec("none")


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean noise added to subgradient outputs (per component)."""

    kind: str = "none"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "additive_gaussian"):
            raise ValueError(f"unknown noise kind: {self.kind!r}")
        if self.kind == "additive_gaussian" and self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    def draw(self, rng: np.random.Generator, shape) -> Optional[np.ndarray]:
        if self.kind == "none" or self.sigma == 0.0:
            return None
        return self.sigma * rng.standard_normal(shape)

    def variance_total(self, q: int) -> float:
        """Exact total variance contribution per subgradient draw (sigma^2 * q)."""
        return 0.0 if self.kind == "none" else self.sigma**2 * q


@dataclass(frozen=True)
class ProblemSpec:
    """Per-theta objective and subgradient oracle with a feasible set.

    objective(x, theta): x of shape (..., q), theta (...,) -> values (...,).
    subgradient(x, theta, noise=None): same shapes -> (..., q); ``noise`` is an
    optional pre-drawn (..., q) array added to the clean subgradient.
    lipschitz bounds subgradient fields in the pi-norm over the feasible set
    (the constant consumed by the remainder bound L * ||R_m||).
    """

    dimension: int
    objective: Callable[..., np.ndarray]
    subgradient: Callable[..., np.ndarray]
    projection: ProjectionSpec
    lipschitz: float
    reference_optimum: Optional[Callable[[np.ndarray], np.ndarray]] = None


# -- Projections ---------------------------------------------------------------


def project_coefficients(u: np.ndarray, p: ProjectionSpec) -> np.ndarray:
    """Project a coefficient matrix. Idempotent; nonexpansive in Frobenius
    norm; returns the input array untouched when already feasible."""
    if p.kind == "none":
        return u
    if p.kind == "l2_ball":
        nrm = float(np.linalg.norm(u))
        # ulp-level slack keeps repeated application an exact no-op
        return u if nrm <= p.radius * (1.0 + 4e-16) else u * (p.radius / nrm)
    lo_ok = u >= p.lo
    hi_ok = u <= p.hi
    if lo_ok.all() and hi_ok.all():
        return u
    return np.clip(u, p.lo, p.hi)


def project(e: bs.Expansion, p: ProjectionSpec) -> bs.Expansion:
    """Project an expansion onto ``p``: none, or its family's projection."""
    if p.kind not in ("none", e.basis.projection):
        raise ValueError(f"{p.kind} projection does not fit the {e.basis.kind} family")
    u = project_coefficients(e.coefficients, p)
    return e if u is e.coefficients else bs.Expansion(u, e.basis)


def random_feasible_like(
    e: bs.Expansion, p: ProjectionSpec, rng: np.random.Generator
) -> bs.Expansion:
    """A random feasible expansion over e's family (a G^2/V^2 probe)."""
    if p.kind == "per_cell_box":
        u = rng.uniform(p.lo, p.hi, size=e.coefficients.shape)
    else:
        u = rng.standard_normal(e.coefficients.shape)
    if p.kind == "l2_ball":
        u *= p.radius / max(np.linalg.norm(u), 1e-30)
    return bs.Expansion(project_coefficients(u, p), e.basis)


def is_feasible(e: bs.Expansion, p: ProjectionSpec, tol: float = 1e-9) -> bool:
    if p.kind == "none":
        return True
    if p.kind == "l2_ball":
        return float(np.linalg.norm(e.coefficients)) <= p.radius + tol
    return bool(
        np.all(e.coefficients >= p.lo) and np.all(e.coefficients <= p.hi)
    )


# -- Quadratic instance ----------------------------------------------------------


def quadratic_reference(theta: np.ndarray) -> np.ndarray:
    """Closed-form optimum, identical in both components; its basis
    representation decays slowly because of the absolute value."""
    t = np.asarray(theta, dtype=float)
    core = np.abs(0.8 + 0.25 * np.exp(np.sin(t)) - np.cosh(np.sin(t) ** 2))
    vals = core * (1.0 + np.sin(2.0 * t))
    return np.stack([vals, vals], axis=-1)


def quadratic_problem(
    mu: float, L: float, measure: ThetaMeasure, radius: float = 1.5
) -> ProblemSpec:
    """Two-component piecewise quadratic with branch curvatures mu/4, mu/2 in
    the first coordinate and L/2, L/4 in the second, all centred on the same
    closed-form optimum. Branch ties resolve to the smaller curvature.
    Feasible set: coefficient-space L2 ball of the given radius.
    """
    if not 0 < mu <= L:
        raise ValueError("need 0 < mu <= L")

    def branch_coeffs(dx: np.ndarray, dy: np.ndarray):
        cx = np.where(dx >= 0, mu / 4.0, mu / 2.0)
        cy = np.where(dy > 0, L / 2.0, L / 4.0)
        return cx, cy

    def objective(x, theta):
        ref = quadratic_reference(theta)
        dx = np.asarray(x, float)[..., 0] - ref[..., 0]
        dy = np.asarray(x, float)[..., 1] - ref[..., 1]
        cx, cy = branch_coeffs(dx, dy)
        return cx * dx**2 + cy * dy**2

    def subgradient(x, theta, noise=None):
        ref = quadratic_reference(theta)
        dx = np.asarray(x, float)[..., 0] - ref[..., 0]
        dy = np.asarray(x, float)[..., 1] - ref[..., 1]
        cx, cy = branch_coeffs(dx, dy)
        g = np.stack([2.0 * cx * dx, 2.0 * cy * dy], axis=-1)
        return g if noise is None else g + noise

    # pi-norm Lipschitz bound over the ball: ||g(w)||_pi <= max(mu, L) *
    # (radius + ||w*||_pi), with ||w*||_pi evaluated on the measure's rule.
    ref_norm = float(
        np.sqrt(
            np.einsum(
                "nq,n->", quadratic_reference(measure.nodes) ** 2, measure.weights
            )
        )
    )
    lip = max(mu, L) * (radius + ref_norm)

    return ProblemSpec(
        dimension=2,
        objective=objective,
        subgradient=subgradient,
        projection=l2_ball(radius),
        lipschitz=lip,
        reference_optimum=quadratic_reference,
    )


# -- Min-cut instance -------------------------------------------------------------


def chain_relaxation_closed_form(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Closed-form relaxation objective for the demo chain graph:
    2|x1 - x2| + theta*x1 + 3|1 - x2|. Kept as a regression fixture; it equals
    the greedy extension of the chain's cut function exactly on {x1 <= x2} and
    exceeds it by 2*max(x1 - x2, 0) elsewhere."""
    xv = np.asarray(x, dtype=float)
    t = np.asarray(theta, dtype=float)
    x1, x2 = xv[..., 0], xv[..., 1]
    return 2.0 * np.abs(x1 - x2) + t * x1 + 3.0 * np.abs(1.0 - x2)


@dataclass(frozen=True, eq=False)
class _CutEdges:
    """Index arrays of a cut graph's edges for the batched greedy chain.

    A contribution adds sign * w_edge to one column: a ground-set node's
    subgradient entry, or column q, the value of the empty set. Contributions
    of an edge between two internal nodes count only when ``rank_u > rank_v``
    holds for its pair; the others use the always-true gate 0. They are listed
    in edge order, so each column sums in the same order as an edge loop.
    """

    q: int
    base: np.ndarray      # (E,) edge weights base + slope * theta
    slope: np.ndarray
    rank_u: np.ndarray    # (P,) node pairs compared by greedy rank
    rank_v: np.ndarray
    column: np.ndarray    # (C,) per contribution
    edge: np.ndarray
    sign: np.ndarray
    gate: np.ndarray      # 0, or 1 + the index of its pair

    @classmethod
    def of(cls, g: CutGraph) -> _CutEdges:
        pos = {name: i for i, name in enumerate(g.ground_set)}
        q = len(pos)
        pairs: list[tuple[int, int]] = []
        contrib: list[tuple[int, int, float, int]] = []
        for e, (u, v, _, _) in enumerate(g.edges):
            if v == g.source or u == g.sink:
                continue  # never cut: s is always on the source side, t on the sink side
            if v == g.sink:
                contrib.append((q, e, 1.0, 0))
                if u != g.source:
                    contrib.append((pos[u], e, -1.0, 0))
            elif u == g.source:
                contrib.append((pos[v], e, 1.0, 0))
            else:
                # moving the later-ranked node to the sink side toggles this edge
                pairs.append((pos[u], pos[v]))
                contrib += [(pos[v], e, 1.0, len(pairs)), (pos[u], e, -1.0, len(pairs))]
        c = np.array(contrib, dtype=float).reshape(-1, 4)
        p = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        w = np.array([(base, slope) for _, _, base, slope in g.edges]).reshape(-1, 2)
        column, edge, gate = (c[:, i].astype(np.intp) for i in (0, 1, 3))
        return cls(q, w[:, 0], w[:, 1], p[:, 0], p[:, 1], column, edge, c[:, 2], gate)


def _greedy_batch(edges: _CutEdges, X: np.ndarray, theta: np.ndarray):
    """Vectorized greedy chain over a batch: values and subgradients of the
    Lovasz extension of the sink-side cut function.

    Ranks come from a stable descending sort, so ties break by ascending
    index, matching the scalar path in :mod:`uqsubgrad.submodular`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.broadcast_to(np.asarray(theta, dtype=float), X.shape[:-1]).reshape(-1)
    X2 = X.reshape(-1, edges.q)
    order = np.argsort(-X2, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(edges.q)[None, :], axis=-1)

    w = edges.base + edges.slope * t[:, None]
    toggled = np.ones((len(t), len(edges.rank_u) + 1), dtype=bool)
    toggled[:, 1:] = ranks[:, edges.rank_u] > ranks[:, edges.rank_v]
    acc = np.zeros((len(t), edges.q + 1))
    rows = np.arange(len(t))[:, None]
    np.add.at(acc, (rows, edges.column), edges.sign * (w[:, edges.edge] * toggled[:, edges.gate]))

    grad = np.zeros_like(X)  # X's memory layout, which einsum's summation order may follow
    grad[...] = acc[:, :-1].reshape(X.shape)
    f_empty = acc[:, -1].reshape(X.shape[:-1])
    vals = f_empty + np.einsum("...q,...q->...", grad, X)
    return vals, grad


def mincut_problem(g: CutGraph, measure: ThetaMeasure) -> ProblemSpec:
    """Lovasz-extension relaxation of the min s-t cut of ``g``.

    q = number of non-terminal nodes; objective/subgradient are the greedy
    chain evaluated in batch; feasible set is the unit box per cell. The
    Lipschitz field is a sampled bound on greedy-vertex norms at the support
    endpoints (affine weights peak there), with a 1.25 safety factor.
    """
    lo, hi = g.theta_range
    if not (lo <= measure.a and measure.b <= hi):
        raise ValueError("measure support must sit inside the graph's theta range")
    spot = np.random.default_rng(0)
    for th in (measure.a, 0.5 * (measure.a + measure.b), measure.b):
        if not verify_submodular(set_function(g), th, spot):
            raise ValueError("cut function failed the submodularity spot-check")

    q = len(g.ground_set)
    edges = _CutEdges.of(g)

    def objective(x, theta):
        squeeze = np.ndim(x) == 1
        vals, _ = _greedy_batch(edges, x, theta)
        return vals[0] if squeeze else vals

    def subgradient(x, theta, noise=None):
        squeeze = np.ndim(x) == 1
        _, grad = _greedy_batch(edges, x, theta)
        out = grad[0] if squeeze else grad
        return out if noise is None else out + noise

    probe_rng = np.random.default_rng(1234)
    worst = 0.0
    for th in (measure.a, measure.b):
        xs = probe_rng.random((256, q))
        _, grads = _greedy_batch(edges, xs, np.full(256, th))
        worst = max(worst, float(np.linalg.norm(grads, axis=-1).max()))
    lip = 1.25 * worst

    return ProblemSpec(
        dimension=q,
        objective=objective,
        subgradient=subgradient,
        projection=per_cell_box(0.0, 1.0),
        lipschitz=lip,
        reference_optimum=None,
    )


# -- Objective integrals -------------------------------------------------------


def expected_objective(p: ProblemSpec, e: bs.Expansion) -> float:
    """E_pi f(x(theta), theta) for the synthesized expansion."""
    nodes, weights = e.basis.rule()
    vals = p.objective(bs.synthesize(e, nodes), nodes)
    return float(np.dot(weights, vals))


def objective_gap_norm(
    p: ProblemSpec,
    e: bs.Expansion,
    reference_values: Callable[[np.ndarray], np.ndarray],
) -> float:
    """pi-norm of f(x(theta), theta) - f_ref(theta).

    ``reference_values`` maps theta arrays to reference objective values
    (e.g. the optimal value function).
    """
    nodes, weights = e.basis.rule()
    gap = p.objective(bs.synthesize(e, nodes), nodes) - reference_values(nodes)
    return float(np.sqrt(max(np.dot(weights, gap**2), 0.0)))
