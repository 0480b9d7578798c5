"""Problem abstraction (per-theta objective, subgradient, projection) and the
two concrete instances: a four-branch piecewise quadratic with a closed-form
optimum, and the min s-t cut relaxation driven by the Lovasz extension.
"""

from __future__ import annotations

import math
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
    stage(nodes, idx), when given, binds a solver stage's (T, n) block of
    indices into the rule nodes once and returns step(x, t, noise=None), which
    must equal subgradient(x, nodes[idx[t]], noise) bit for bit; it lets a
    problem do its theta-only work once per stage or node, not once per step.
    """

    dimension: int
    objective: Callable[..., np.ndarray]
    subgradient: Callable[..., np.ndarray]
    projection: ProjectionSpec
    lipschitz: float
    reference_optimum: Optional[Callable[[np.ndarray], np.ndarray]] = None
    stage: Optional[Callable[[np.ndarray, np.ndarray], Callable[..., np.ndarray]]] = None


# -- Projections ---------------------------------------------------------------


def project_coefficients(u: np.ndarray, p: ProjectionSpec) -> np.ndarray:
    """Project a coefficient matrix. Idempotent; nonexpansive in Frobenius
    norm; returns the input array untouched when already feasible."""
    if p.kind == "none":
        return u
    if p.kind == "l2_ball":
        # np.linalg.norm's own arithmetic, without its dispatch
        flat = u.ravel(order="K")
        nrm = math.sqrt(flat.dot(flat))
        if nrm == math.inf:  # a finite u whose squared norm overflows: scale it first
            top = float(np.abs(flat).max())
            nrm = float(np.linalg.norm(u / top))
            return u if top * nrm <= p.radius else (u / top) * (p.radius / nrm)
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


def farthest_feasible_distance(e: bs.Expansion, p: ProjectionSpec) -> Optional[float]:
    """The largest pi-distance from feasible ``e`` to a feasible point: ||u|| + r
    for a ball, the pi-norm of the farthest box corner's offsets for a box,
    and None (unbounded) without a projection."""
    u = e.coefficients
    if p.kind == "l2_ball":
        return float(np.linalg.norm(u)) + p.radius
    if p.kind == "per_cell_box":
        return e.basis.tail_norm(np.maximum(u - p.lo, p.hi - u), 0)
    return None


# -- Quadratic instance ----------------------------------------------------------


def quadratic_reference(theta: np.ndarray) -> np.ndarray:
    """Closed-form optimum, identical in both components; its basis
    representation decays slowly because of the absolute value."""
    t = np.asarray(theta, dtype=float)
    s = np.sin(t)
    core = np.abs(0.8 + 0.25 * np.exp(s) - np.cosh(s**2))
    vals = core * (1.0 + np.sin(2.0 * t))
    out = np.empty(vals.shape + (2,))
    out[...] = vals[..., None]
    return out


def quadratic_problem(
    mu: float, L: float, measure: ThetaMeasure, radius: float = 1.5
) -> ProblemSpec:
    """Two-component piecewise quadratic with branch curvatures mu/4, mu/2 in
    the first coordinate and L/2, L/4 in the second, all centred on the same
    closed-form optimum. At the optimum itself a coordinate's gradient is a
    zero and its objective term vanishes, whichever curvature applies.
    Feasible set: coefficient-space L2 ball of the given radius.
    """
    if not 0 < mu <= L:
        raise ValueError("need 0 < mu <= L")

    # curvature of each coordinate at or above its optimum, and below it; the
    # gradient reads the doubled table, which doubling leaves exact
    up = np.array([mu / 4.0, L / 2.0])
    down = np.array([mu / 2.0, L / 4.0])
    up2, down2 = 2.0 * up, 2.0 * down

    def branch(x, ref, above, below):  # offsets from the optimum and their branch's entry
        d = np.asarray(x, float) - ref
        return d, np.where(d >= 0, above, below)

    def gradient(x, ref, noise):
        d, c2 = branch(x, ref, up2, down2)
        g = c2 * d
        return g if noise is None else g + noise

    def objective(x, theta):
        d, c = branch(x, quadratic_reference(theta), up, down)
        terms = c * d**2
        return terms[..., 0] + terms[..., 1]

    def subgradient(x, theta, noise=None):
        return gradient(x, quadratic_reference(theta), noise)

    def stage(nodes, idx):
        ref = quadratic_reference(nodes).take(idx, axis=0)
        return lambda x, t, noise=None: gradient(x, ref[t], noise)

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
        stage=stage,
    )


# -- Min-cut instance -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _CutEdges:
    """Index arrays of a cut graph's edges for the batched greedy chain.

    A contribution adds sign * w_edge = sign * base + sign * slope * theta to
    one column: a ground-set node's subgradient entry, or column q, the value
    of the empty set. Contributions of an edge between two internal nodes
    count only when node u of its pair ranks after node v; the others use the
    always-true gate 0. Pairs with u > v come first (the first ``descending``
    of them), the rest after, each group in edge order; contributions stay in
    edge order, so each column sums in the same order as an edge loop.
    """

    q: int
    u: np.ndarray         # (P,) node pairs compared by greedy rank
    v: np.ndarray
    descending: int       # how many pairs, from the first, have u > v
    column: np.ndarray    # (C,) per contribution
    base: np.ndarray      # sign * the edge's base weight
    slope: np.ndarray     # sign * the edge's slope
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
        lines = c[:, 2, None] * w[edge]  # sign * (base, slope)
        order = np.argsort(p[:, 0] <= p[:, 1], kind="stable")  # pairs with u > v first
        gate = np.concatenate(([0], 1 + np.argsort(order)))[gate]  # each pair's new place
        u, v = p[order, 0], p[order, 1]
        return cls(q, u, v, int((u > v).sum()), column, lines[:, 0], lines[:, 1], gate)

    def bins(self, n: int) -> np.ndarray:
        """Flat (column, theta) accumulator index of every contribution at n thetas."""
        return (self.column[:, None] * n + np.arange(n)).ravel()


def _greedy_sums(edges: _CutEdges, X2: np.ndarray, t: np.ndarray, bins: np.ndarray):
    """Greedy chain over rows X2 (N, q) at thetas t (N,): an (N, q + 1) array
    of the subgradient entries, then the value of the empty set (a transposed
    view of the (q + 1, N) sums).

    Ranks are those of a stable descending sort, so ties break by ascending
    index, matching the scalar path in :mod:`uqsubgrad.submodular`: u ranks
    after v exactly when x_u < x_v, or x_u == x_v and u > v. The arrays are
    contribution-major, one row per pair or contribution and one column per
    theta. Each (column, theta) bin sums its contributions in edge order,
    starting from +0.0; a signed line can differ from sign * w_edge only in
    the sign of a zero, which that sum cannot see.
    """
    n, k = len(t), edges.descending
    xt = X2.T
    toggled = np.empty((len(edges.u) + 1, n), dtype=bool)
    toggled[0] = True
    np.less_equal(xt[edges.u[:k]], xt[edges.v[:k]], out=toggled[1:k + 1])
    np.less(xt[edges.u[k:]], xt[edges.v[k:]], out=toggled[k + 1:])
    vals = edges.slope[:, None] * t  # in place from here: one (C, N) array
    vals += edges.base[:, None]
    vals *= toggled[edges.gate]
    acc = np.bincount(bins, weights=vals.ravel(), minlength=(edges.q + 1) * n)
    return acc.reshape(edges.q + 1, n).T


def _greedy_batch(edges: _CutEdges, X: np.ndarray, theta: np.ndarray):
    """Vectorized greedy chain over a batch: values and subgradients of the
    Lovasz extension of the sink-side cut function."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.broadcast_to(np.asarray(theta, dtype=float), X.shape[:-1]).reshape(-1)
    acc = _greedy_sums(edges, X.reshape(-1, edges.q), t, edges.bins(len(t)))

    grad = np.zeros_like(X)  # X's memory layout, which einsum's summation order may follow
    grad[...] = acc[:, :-1].reshape(X.shape)
    f_empty = acc[:, -1].reshape(X.shape[:-1])
    vals = f_empty + np.einsum("...q,...q->...", grad, X)
    return vals, grad


def mincut_problem(g: CutGraph, measure: ThetaMeasure) -> ProblemSpec:
    """Lovasz-extension relaxation of the min s-t cut of ``g``.

    q = number of non-terminal nodes; objective/subgradient are the greedy
    chain evaluated in batch; feasible set is the unit box per cell. The
    Lipschitz field bounds every greedy vertex: |g_i| is at most the weight
    incident to node i, whose absolute value is convex in theta, so the norm
    of those weights peaks at a support end.
    """
    if not g.ground_set:
        raise ValueError("the graph has no node besides the source and the sink")
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

    def stage(nodes, idx):
        thetas, bins = nodes.take(idx), edges.bins(idx.shape[-1])

        def step(x, t, noise=None):
            grad = _greedy_sums(edges, x, thetas[t], bins)[:, :-1]
            return grad if noise is None else grad + noise

        return step

    incident = [np.bincount(edges.column, np.abs(edges.base + edges.slope * th))[:q]
                for th in (measure.a, measure.b)]
    lip = float(max(np.linalg.norm(w) for w in incident))

    return ProblemSpec(
        dimension=q,
        objective=objective,
        subgradient=subgradient,
        projection=per_cell_box(0.0, 1.0),
        lipschitz=lip,
        reference_optimum=None,
        stage=stage,
    )


# -- Objective integrals -------------------------------------------------------


def expected_objective(p: ProblemSpec, e: bs.Expansion) -> float:
    """E_pi f(x(theta), theta) for the synthesized expansion."""
    nodes, weights = e.basis.rule()
    vals = p.objective(bs.synthesize(e, nodes), nodes)
    return float(np.dot(weights, vals))


class GapNorm:
    """pi-norm of f(x(theta), theta) - f_ref(theta) for a run's expansions.

    The family's quadrature rule and the reference values on its nodes
    depend only on the family, and the design on those nodes on the family
    and the level. One entry keyed by (family, level) keeps them, so a call
    at the current key costs one ``apply``, one objective and one dot
    product; an expansion over another family or level replaces the entry.
    ``reference_values`` maps theta arrays to reference objective values
    (e.g. the optimal value function).
    """

    def __init__(
        self, p: ProblemSpec, reference_values: Callable[[np.ndarray], np.ndarray]
    ):
        self.p = p
        self.reference_values = reference_values
        self._family = self._level = None

    def __call__(self, e: bs.Expansion) -> float:
        fam = e.basis
        if fam != self._family:
            self._nodes, self._weights = fam.rule()
            self._ref = self.reference_values(self._nodes)
            self._family, self._level = fam, None
        if e.m != self._level:
            self._design, self._level = fam.design(self._nodes, e.m), e.m
        x = fam.apply(self._design, e.coefficients)
        gap = self.p.objective(x, self._nodes) - self._ref
        return float(np.sqrt(max(np.dot(self._weights, gap**2), 0.0)))


def objective_gap_norm(
    p: ProblemSpec,
    e: bs.Expansion,
    reference_values: Callable[[np.ndarray], np.ndarray],
) -> float:
    """pi-norm of f(x(theta), theta) - f_ref(theta): :class:`GapNorm` used once."""
    return GapNorm(p, reference_values)(e)
