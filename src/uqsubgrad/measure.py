"""Distribution of the uncertain parameter theta and the L2 geometry it induces.

Every inner product, norm and error trace in the package is computed against
the fixed Gauss-Legendre rule owned by a :class:`ThetaMeasure`, so results are
deterministic for a given node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Union

import numpy as np

# A scalar field is any pure callable theta -> value. It must accept a 1-d
# array of thetas and return shape (n,) for scalar fields or (n, q) for
# q-vector fields. Evaluating twice at the same theta must give the same value.
ScalarField = Callable[[np.ndarray], np.ndarray]

ArrayLike = Union[float, np.ndarray]


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series c at x by numpy's ``legval`` Clenshaw loop."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1, nd = c[-2], c[-1], len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``leggauss(n)`` by the same floating-point operations, so that
    no run imports numpy.polynomial: the eigenvalues of the symmetric Jacobi
    matrix (Golub & Welsch 1969), one Newton step, then the weights
    1 / (L_{n-1} L_n') symmetrised and scaled to sum to 2."""
    c = np.zeros(n + 1)
    c[-1] = 1.0
    # legcompanion's matrix: its last-column update subtracts +0.0 for this c,
    # and the -0.0 of its 1x1 branch loses its sign in x - x[::-1] below
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # legder(c) for c = L_n: 2k + 1 where n - 1 - k is even, else +0.0, the
    # exact small integers its coefficient loop produces
    k = np.arange(n)
    df = _legval(x, (2 * k + 1.0) * ((n - 1 - k) % 2 == 0))
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


# n -> the n-node Gauss-Legendre rule on [-1, 1], computed once; read only
_gauss_legendre = cache(_leggauss)


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
        x, w = _gauss_legendre(self.quadrature_nodes)
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
        x, w = _gauss_legendre(nodes_per_cell)
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

