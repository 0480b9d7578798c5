"""Basis families for L2(pi): orthonormal Legendre polynomials on the support,
and piecewise-constant indicator families over an adaptively refined partition.

Coefficient conventions
-----------------------
* ``legendre_orthonormal``: rows of an :class:`Expansion` are coefficients
  against numerically orthonormalised shifted Legendre polynomials, so the
  pi-norm of the synthesized function is the Frobenius norm of the matrix.
* ``piecewise_constant``: rows are the *raw* cell values of the function (the
  value the function takes on that cell). Measure weighting enters only inside
  inner products and norms. This keeps cell-splitting value-preserving and
  makes per-cell box projections exact clamps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .measure import ScalarField, ThetaMeasure

LEGENDRE = "legendre_orthonormal"
PIECEWISE = "piecewise_constant"


class PartitionRejection(ValueError):
    """Raised when a refinement point duplicates a breakpoint or hits the
    boundary; callers resample."""


@dataclass(frozen=True)
class Partition:
    """Strictly increasing interior breakpoints (c_1, ..., c_n) of a support
    interval, inducing n+1 cells. Each breakpoint belongs to the cell on its
    right."""

    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        bp = tuple(float(c) for c in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if any(not np.isfinite(c) for c in bp):
            raise ValueError("breakpoints must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing and unique")

    @property
    def n_cells(self) -> int:
        return len(self.breakpoints) + 1


def cell_edges(p: Partition, m: ThetaMeasure) -> np.ndarray:
    return np.concatenate(([m.a], np.asarray(p.breakpoints, float), [m.b]))


def cell_measures(p: Partition, m: ThetaMeasure) -> np.ndarray:
    """pi-measure of each induced cell (uniform: normalised lengths)."""
    return np.diff(cell_edges(p, m)) / (m.b - m.a)


def max_gap_measure(p: Partition, m: ThetaMeasure) -> float:
    """Largest pi-measure among the induced cells."""
    return float(cell_measures(p, m).max())


def cell_index(p: Partition, m: ThetaMeasure, theta: np.ndarray) -> np.ndarray:
    if not m.contains(theta):
        raise ValueError("theta outside the measure support")
    return np.searchsorted(np.asarray(p.breakpoints), theta, side="right")


def refine_partition(
    p: Partition, theta_prime: float, support: Optional[tuple[float, float]] = None
) -> Partition:
    """Insert a breakpoint, splitting the cell containing it in two.

    Existing breakpoints, and boundary points when ``support`` is given, are
    rejected with :class:`PartitionRejection` so the caller can resample the
    split point.
    """
    t = float(theta_prime)
    if t in p.breakpoints:
        raise PartitionRejection(f"{t} is already a breakpoint")
    if support is not None and not support[0] < t < support[1]:
        raise PartitionRejection(f"{t} is not strictly inside {support}")
    bp = list(p.breakpoints)
    bisect.insort(bp, t)
    return Partition(tuple(bp))


@dataclass(frozen=True)
class BasisFamily:
    """A basis of L2(pi): either orthonormal Legendre polynomials or the
    indicator family of a partition."""

    kind: str
    measure: ThetaMeasure
    partition: Optional[Partition] = None
    _norm_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (LEGENDRE, PIECEWISE):
            raise ValueError(f"unknown basis kind: {self.kind!r}")
        if self.kind == PIECEWISE and self.partition is None:
            object.__setattr__(self, "partition", Partition())
        if self.kind == LEGENDRE and self.partition is not None:
            raise ValueError("a polynomial family carries no partition")
        if self.kind == PIECEWISE:
            bp = self.partition.breakpoints
            if bp and (bp[0] <= self.measure.a or bp[-1] >= self.measure.b):
                raise ValueError("breakpoints must lie strictly inside the support")

    # -- Legendre evaluation ------------------------------------------------

    def _legendre_norms(self, m: int) -> np.ndarray:
        # Normalised against the measure's own quadrature rule so that the
        # family is orthonormal under the exact inner product used everywhere.
        if m > self.measure.quadrature_nodes // 2:
            raise ValueError(
                f"m={m} polynomials need more quadrature nodes "
                f"({self.measure.quadrature_nodes} available)"
            )
        cached = self._norm_cache.get("norms")
        if cached is None or cached.shape[0] < m:
            mes = self.measure
            x = 2.0 * (mes.nodes - mes.a) / (mes.b - mes.a) - 1.0
            V = np.polynomial.legendre.legvander(x, m - 1)
            norms = np.sqrt(np.einsum("nm,nm,n->m", V, V, mes.weights))
            self._norm_cache["norms"] = norms
            cached = norms
        return cached[:m]

    def eval_matrix(self, theta: np.ndarray, m: int) -> np.ndarray:
        """(n, m) matrix of the first m orthonormal polynomials at theta."""
        if self.kind != LEGENDRE:
            raise ValueError("eval_matrix is defined for the polynomial family")
        mes = self.measure
        x = 2.0 * (np.asarray(theta, float) - mes.a) / (mes.b - mes.a) - 1.0
        V = np.polynomial.legendre.legvander(x, m - 1)
        return V / self._legendre_norms(m)


def legendre_family(measure: ThetaMeasure) -> BasisFamily:
    return BasisFamily(LEGENDRE, measure)


def piecewise_family(measure: ThetaMeasure, partition: Partition = Partition()) -> BasisFamily:
    return BasisFamily(PIECEWISE, measure, partition)


@dataclass(frozen=True)
class Expansion:
    """Coefficient matrix of shape (m, q) over a basis family.

    q output components; entries are orthonormal coefficients for the
    polynomial family and raw cell values for the piecewise family.
    """

    coefficients: np.ndarray
    basis: BasisFamily

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", c)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("coefficients must be a (m, q) matrix with m >= 1")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if self.basis.kind == PIECEWISE and c.shape[0] != self.basis.partition.n_cells:
            raise ValueError(
                f"{c.shape[0]} rows for a partition with "
                f"{self.basis.partition.n_cells} cells"
            )

    @property
    def m(self) -> int:
        return self.coefficients.shape[0]

    @property
    def q(self) -> int:
        return self.coefficients.shape[1]


def zero_expansion(basis: BasisFamily, m: int, q: int) -> Expansion:
    if basis.kind == PIECEWISE:
        m = basis.partition.n_cells
    return Expansion(np.zeros((m, q)), basis)


def synthesize(e: Expansion, theta: Union[float, np.ndarray]) -> np.ndarray:
    """Evaluate the expansion: sum_i u_i B_i(theta), componentwise.

    Returns shape (q,) for scalar theta and (n, q) for an array.
    """
    scalar = np.isscalar(theta) or np.ndim(theta) == 0
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if not e.basis.measure.contains(t):
        raise ValueError("theta outside the measure support")
    if e.basis.kind == LEGENDRE:
        vals = e.basis.eval_matrix(t, e.m) @ e.coefficients
    else:
        idx = cell_index(e.basis.partition, e.basis.measure, t)
        vals = e.coefficients[idx]
    return vals[0] if scalar else vals


def analyze(f: ScalarField, b: BasisFamily, m: int) -> Expansion:
    """Project a field onto the first m basis functions.

    Polynomial family: quadrature coefficients <f, B_i>. Piecewise family:
    per-cell averages (computed with a cell-aligned composite rule), i.e. the
    raw-value coordinates used everywhere else. Inverse of synthesize on the
    span of the family.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    mes = b.measure
    if b.kind == LEGENDRE:
        vals = np.asarray(f(mes.nodes), dtype=float).reshape(len(mes.nodes), -1)
        B = b.eval_matrix(mes.nodes, m)
        coeffs = np.einsum("nm,n,nq->mq", B, mes.weights, vals)
        return Expansion(coeffs, b)
    part = b.partition
    if m != part.n_cells:
        raise ValueError(f"piecewise analysis needs m == n_cells ({part.n_cells})")
    nodes, weights = mes.composite_rule(part.breakpoints, nodes_per_cell=16)
    vals = np.asarray(f(nodes), dtype=float).reshape(len(nodes), -1)
    idx = cell_index(part, mes, nodes)
    q = vals.shape[1]
    acc = np.zeros((part.n_cells, q))
    np.add.at(acc, idx, weights[:, None] * vals)
    return Expansion(acc / cell_measures(part, mes)[:, None], b)


def expansion_pi_norm(e: Expansion) -> float:
    """pi-norm of the synthesized function, from coefficients (Parseval)."""
    if e.basis.kind == LEGENDRE:
        return float(np.linalg.norm(e.coefficients))
    w = cell_measures(e.basis.partition, e.basis.measure)
    return float(np.sqrt(np.sum(w[:, None] * e.coefficients**2)))


def truncate(e: Expansion, m_new: int) -> tuple[Expansion, float]:
    """Keep the projection onto the first m_new basis functions.

    Returns the truncated expansion and the pi-norm of the dropped tail. For
    the orthonormal family this is a row slice and the root-sum-square of the
    dropped coefficients; for the piecewise family the later rows are zeroed
    (the matrix keeps one row per cell) and the remainder is measure-weighted.
    """
    if not 1 <= m_new <= e.m:
        raise ValueError(f"m_new must be in [1, {e.m}], got {m_new}")
    if e.basis.kind == LEGENDRE:
        kept = e.coefficients[:m_new]
        rem = float(np.linalg.norm(e.coefficients[m_new:]))
        return Expansion(kept, e.basis), rem
    w = cell_measures(e.basis.partition, e.basis.measure)
    kept = e.coefficients.copy()
    kept[m_new:] = 0.0
    rem = float(np.sqrt(np.sum(w[m_new:, None] * e.coefficients[m_new:] ** 2)))
    return Expansion(kept, e.basis), rem


def is_finer(fine: Partition, coarse: Partition) -> bool:
    return set(coarse.breakpoints).issubset(fine.breakpoints)


def transfer_coefficients(e: Expansion, p_new: Partition) -> Expansion:
    """Re-express a piecewise expansion over a finer partition.

    Each new cell inherits the value of the old cell containing it, so the
    synthesized function is unchanged away from breakpoints.
    """
    if e.basis.kind != PIECEWISE:
        raise ValueError("coefficient transfer applies to the piecewise family")
    old = e.basis.partition
    if not is_finer(p_new, old):
        raise ValueError("target partition is not finer than the source")
    mes = e.basis.measure
    mids = 0.5 * (cell_edges(p_new, mes)[:-1] + cell_edges(p_new, mes)[1:])
    idx = cell_index(old, mes, mids)
    new_basis = piecewise_family(mes, p_new)
    return Expansion(e.coefficients[idx], new_basis)


# -- Serialization -----------------------------------------------------------
#
# Structured text, stable across versions:
#
#   uqsubgrad-expansion v1
#   kind: legendre_orthonormal | piecewise_constant
#   support: <a> <b>
#   quadrature_nodes: <n>
#   breakpoints: <c1> <c2> ...        (piecewise only; may be empty)
#   shape: <m> <q>
#   <m lines of q whitespace-separated floats (repr precision)>

_MAGIC = "uqsubgrad-expansion v1"


def expansion_to_text(e: Expansion) -> str:
    mes = e.basis.measure
    lines = [
        _MAGIC,
        f"kind: {e.basis.kind}",
        f"support: {mes.a!r} {mes.b!r}",
        f"quadrature_nodes: {mes.quadrature_nodes}",
    ]
    if e.basis.kind == PIECEWISE:
        lines.append(
            "breakpoints: " + " ".join(repr(c) for c in e.basis.partition.breakpoints)
        )
    lines.append(f"shape: {e.m} {e.q}")
    for row in e.coefficients:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def expansion_from_text(text: str) -> Expansion:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _MAGIC:
        raise ValueError("not an expansion file")

    fields = {}
    body_at = 1
    for ln in lines[1:]:
        if ":" not in ln:
            break
        key, _, val = ln.partition(":")
        fields[key.strip()] = val.strip()
        body_at += 1

    missing = {"kind", "support", "quadrature_nodes", "shape"} - fields.keys()
    if missing:
        raise ValueError(f"missing field(s) {sorted(missing)}")

    def numbers(key: str, cast, count: int) -> list:
        parts = fields[key].split()
        try:
            if len(parts) != count:
                raise ValueError
            return [cast(v) for v in parts]
        except ValueError:
            raise ValueError(f"{key}: need {count} value(s), got {fields[key]!r}") from None

    kind = fields["kind"]
    a, b = numbers("support", float, 2)
    mes = ThetaMeasure(a, b, quadrature_nodes=numbers("quadrature_nodes", int, 1)[0])
    if kind == PIECEWISE:
        bps = tuple(float(v) for v in fields.get("breakpoints", "").split())
        fam = piecewise_family(mes, Partition(bps))
    elif kind == LEGENDRE:
        fam = legendre_family(mes)
    else:
        raise ValueError(f"unknown basis kind in file: {kind!r}")

    m, q = numbers("shape", int, 2)
    rows = [[float(v) for v in ln.split()] for ln in lines[body_at : body_at + m]]
    coeffs = np.asarray(rows, dtype=float)
    if coeffs.shape != (m, q):
        raise ValueError(f"expected a {m}x{q} coefficient block, got {coeffs.shape}")
    return Expansion(coeffs, fam)
