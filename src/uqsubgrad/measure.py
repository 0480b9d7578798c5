"""Distribution of the uncertain parameter theta and the L2 geometry it induces.

Every inner product, norm and error trace in the package is computed against
the fixed Gauss-Legendre rule owned by a :class:`ThetaMeasure`, so results are
deterministic for a given node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

# A scalar field is any pure callable theta -> value. It must accept a 1-d
# array of thetas and return shape (n,) for scalar fields or (n, q) for
# q-vector fields. Evaluating twice at the same theta must give the same value.
ScalarField = Callable[[np.ndarray], np.ndarray]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ThetaMeasure:
    """Uniform distribution on the interval [a, b].

    Parameters
    ----------
    a, b : float
        Support endpoints, a < b.
    quadrature_nodes : int
        Node count of the Gauss-Legendre rule used for deterministic
        integration against the measure. 128 nodes integrate polynomials up
        to degree 255 exactly, which keeps orthonormality checks of the
        polynomial basis exact to rounding.
    """

    a: float
    b: float
    quadrature_nodes: int = 128

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"support must satisfy a < b, got [{self.a}, {self.b}]")
        if self.quadrature_nodes < 1:
            raise ValueError("quadrature_nodes must be positive")

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(self.quadrature_nodes)
        nodes = 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * x
        # Probability normalisation: Gauss-Legendre weights sum to 2 on [-1, 1].
        return nodes, w / 2.0

    @property
    def nodes(self) -> np.ndarray:
        return self._rule[0]

    @property
    def weights(self) -> np.ndarray:
        return self._rule[1]

    def contains(self, theta: ArrayLike, tol: float = 1e-12) -> bool:
        t = np.asarray(theta, dtype=float)
        return bool(np.all(t >= self.a - tol) and np.all(t <= self.b + tol))

    def composite_rule(
        self, breakpoints: tuple[float, ...], nodes_per_cell: int = 8
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre rule composited over the cells cut by ``breakpoints``.

        Aligning panels with cell edges keeps integrals of piecewise-smooth
        integrands (indicator expansions, cut-value gaps) accurate where the
        global rule would smear the jumps. Weights are again normalised to
        sum to one.
        """
        edges = np.concatenate(([self.a], np.asarray(breakpoints, float), [self.b]))
        if np.any(np.diff(edges) <= 0):
            raise ValueError("breakpoints must be strictly increasing and interior")
        x, w = np.polynomial.legendre.leggauss(nodes_per_cell)
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel() / (self.b - self.a)
        return nodes, weights


def _eval_field(f: ScalarField, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape[0] != nodes.shape[0]:
        raise ValueError(
            f"field returned shape {vals.shape} for {nodes.shape[0]} nodes"
        )
    return vals.reshape(nodes.shape[0], -1)


def inner_product(f: ScalarField, g: ScalarField, m: ThetaMeasure) -> float:
    """Integral of f·g against the measure, via the measure's fixed rule.

    Vector-valued fields are contracted componentwise, i.e. this is the
    L2(pi; R^q) inner product. Deterministic for a fixed node count.
    """
    fv = _eval_field(f, m.nodes)
    gv = _eval_field(g, m.nodes)
    if fv.shape != gv.shape:
        raise ValueError(f"field shapes differ: {fv.shape} vs {gv.shape}")
    return float(np.einsum("nq,nq,n->", fv, gv, m.weights))


def pi_norm(f: ScalarField, m: ThetaMeasure) -> float:
    """L2(pi) norm of a field; zero exactly for the quadrature-zero field."""
    return float(np.sqrt(max(inner_product(f, f, m), 0.0)))


def sample_theta(
    m: ThetaMeasure,
    rng: np.random.Generator,
    size: Optional[int] = None,
) -> Union[float, np.ndarray]:
    """Draw theta ~ pi. Reproducible: the sequence is a pure function of ``rng``."""
    draw = rng.uniform(m.a, m.b, size=size)
    return float(draw) if size is None else draw
