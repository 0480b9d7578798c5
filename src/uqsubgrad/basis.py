"""Basis families for L2(pi): orthonormal Legendre polynomials on the support,
and piecewise-constant indicator families over an adaptively refined partition.

Every fact that depends on which basis is in use lives on the family classes
(interface on :class:`BasisFamily`); the functions below and the other modules
call their methods and never branch on the family.

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
from typing import ClassVar, Optional, Union

import numpy as np

from .measure import ScalarField, ThetaMeasure

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
    """A basis of L2(pi). ``kind`` is its serialized tag, ``projection`` the
    ProjectionSpec kind its coefficients pair with. Subclasses provide
    ``rows(m)`` (coefficient rows at level m), ``check_level`` (the
    estimator's levels), ``design``/``apply`` (evaluation at thetas),
    ``weighted_sum``/``sample_scale`` (the estimator's sum and divisor),
    ``rule``, ``analyze``, ``tail_norm`` (pi-norm of rows m onward),
    ``kept_rows`` (truncation), ``grow`` and ``reference_tail_norm``. The
    defaults below suit any family: a header of kind, support and rule only,
    and one row per sample to threshold-round (``cut_rows``).
    """

    measure: ThetaMeasure
    kind: ClassVar[str]
    projection: ClassVar[str]

    def eval_matrix(self, theta: np.ndarray, m: int) -> np.ndarray:
        """(n, m) matrix of the first m orthonormal polynomials at theta."""
        # Defined on this class only: perfbench's tracer wraps
        # BasisFamily.eval_matrix, which a subclass override would bypass.
        return self._matrix(np.asarray(theta, float), m)

    def _matrix(self, theta: np.ndarray, m: int) -> np.ndarray:
        raise ValueError("eval_matrix is defined for the polynomial family")

    def header(self) -> list[str]:
        return []

    @classmethod
    def from_header(cls, measure: ThetaMeasure, fields: dict) -> BasisFamily:
        return cls(measure)

    def cut_rows(self, c: np.ndarray, samples: np.ndarray, thetas: np.ndarray):
        return samples, np.ones(len(samples), dtype=int)


@dataclass(frozen=True)
class LegendreFamily(BasisFamily):
    """Orthonormal shifted Legendre polynomials; level m keeps the first m."""

    kind = "legendre_orthonormal"
    projection = "l2_ball"
    _norm_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _matrix(self, theta: np.ndarray, m: int) -> np.ndarray:
        mes = self.measure
        if m > mes.quadrature_nodes // 2:
            raise ValueError(
                f"m={m} polynomials need more quadrature nodes "
                f"({mes.quadrature_nodes} available)"
            )
        norms = self._norm_cache.get("norms")
        if norms is None or norms.shape[0] < m:
            # Normalised against the measure's own quadrature rule so that the
            # family is orthonormal under the exact inner product used everywhere.
            x = 2.0 * (mes.nodes - mes.a) / (mes.b - mes.a) - 1.0
            V = np.polynomial.legendre.legvander(x, m - 1)
            norms = np.sqrt(np.einsum("nm,nm,n->m", V, V, mes.weights))
            self._norm_cache["norms"] = norms
        x = 2.0 * (theta - mes.a) / (mes.b - mes.a) - 1.0
        return np.polynomial.legendre.legvander(x, m - 1) / norms[:m]

    def rows(self, m: int) -> int:
        return m

    def check_level(self, m: int, m_e: int):
        if not 1 <= m <= m_e:
            raise ValueError(f"m must be in [1, {m_e}]")

    def design(self, theta: np.ndarray, m: int) -> np.ndarray:
        return self.eval_matrix(theta, m)

    def apply(self, B: np.ndarray, c: np.ndarray) -> np.ndarray:
        return B @ c

    def weighted_sum(self, B: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
        return B[:, :m].T @ g

    def sample_scale(self, n: int) -> int:
        return n

    def rule(self, nodes_per_cell: int = 8) -> tuple[np.ndarray, np.ndarray]:
        return self.measure.nodes, self.measure.weights

    def analyze(self, f: ScalarField, m: int) -> Expansion:
        mes = self.measure
        vals = np.asarray(f(mes.nodes), dtype=float).reshape(len(mes.nodes), -1)
        coeffs = np.einsum("nm,n,nq->mq", self.eval_matrix(mes.nodes, m), mes.weights, vals)
        return Expansion(coeffs, self)

    def tail_norm(self, c: np.ndarray, m: int) -> float:
        return float(np.linalg.norm(c[m:]))

    def kept_rows(self, c: np.ndarray, m: int) -> np.ndarray:
        return c[:m]

    def grow(self, e: Expansion, m: int, rng: np.random.Generator) -> Expansion:
        """Zero-pad new coefficients: the exact embedding of the smaller span."""
        if m < e.m:
            raise ValueError("basis growth must be monotone")
        pad = np.zeros((m - e.m, e.q))
        return e if m == e.m else Expansion(np.vstack([e.coefficients, pad]), self)

    def reference_tail_norm(self, f: ScalarField, m: int) -> float:
        big = min(max(4 * m, m + 32), self.measure.quadrature_nodes // 2)
        return self.tail_norm(analyze(f, self, big).coefficients, m)


@dataclass(frozen=True)
class PiecewiseFamily(BasisFamily):
    """Indicators of the cells of ``partition``. Every level keeps all cells;
    the family grows by refining the partition."""

    kind = "piecewise_constant"
    projection = "per_cell_box"
    partition: Partition = Partition()

    def __post_init__(self):
        bp = self.partition.breakpoints
        if bp and (bp[0] <= self.measure.a or bp[-1] >= self.measure.b):
            raise ValueError("breakpoints must lie strictly inside the support")

    def rows(self, m: int) -> int:
        return self.partition.n_cells

    def check_level(self, m: int, m_e: int):
        if m != m_e:
            raise ValueError("piecewise estimation uses all cells (m == e.m)")

    def design(self, theta: np.ndarray, m: int) -> np.ndarray:
        return cell_index(self.partition, self.measure, theta)

    def apply(self, idx: np.ndarray, c: np.ndarray) -> np.ndarray:
        return c[idx]

    def weighted_sum(self, idx: np.ndarray, g: np.ndarray, m: int) -> np.ndarray:
        acc = np.zeros((self.partition.n_cells, g.shape[-1]))
        np.add.at(acc, idx, g)
        return acc

    def sample_scale(self, n: int) -> np.ndarray:
        return n * cell_measures(self.partition, self.measure)[:, None]

    def rule(self, nodes_per_cell: int = 8) -> tuple[np.ndarray, np.ndarray]:
        return self.measure.composite_rule(self.partition.breakpoints, nodes_per_cell)

    def analyze(self, f: ScalarField, m: int) -> Expansion:
        """Per-cell averages on a cell-aligned composite rule."""
        part, mes = self.partition, self.measure
        if m != part.n_cells:
            raise ValueError(f"piecewise analysis needs m == n_cells ({part.n_cells})")
        nodes, weights = self.rule(16)
        vals = np.asarray(f(nodes), dtype=float).reshape(len(nodes), -1)
        acc = np.zeros((part.n_cells, vals.shape[1]))
        np.add.at(acc, cell_index(part, mes, nodes), weights[:, None] * vals)
        return Expansion(acc / cell_measures(part, mes)[:, None], self)

    def tail_norm(self, c: np.ndarray, m: int) -> float:
        w = cell_measures(self.partition, self.measure)
        return float(np.sqrt(np.sum(w[m:, None] * c[m:] ** 2)))

    def kept_rows(self, c: np.ndarray, m: int) -> np.ndarray:
        kept = c.copy()
        kept[m:] = 0.0
        return kept

    def grow(self, e: Expansion, m: int, rng: np.random.Generator) -> Expansion:
        """Sampled cell splits, copying the cell value to both halves."""
        part, support = self.partition, (self.measure.a, self.measure.b)
        if m < part.n_cells:
            raise ValueError("basis growth must be monotone")
        while part.n_cells < m:
            try:
                part = refine_partition(part, rng.uniform(*support), support=support)
            except PartitionRejection:
                continue
        return transfer_coefficients(e, part) if part is not self.partition else e

    def reference_tail_norm(self, f: ScalarField, m: int) -> float:
        """Distance of f from its cell averages: the partition is the level."""
        proj = analyze(f, self, self.partition.n_cells)
        nodes, weights = self.rule(16)
        diff = np.asarray(f(nodes), float).reshape(len(nodes), -1) - synthesize(proj, nodes)
        return float(np.sqrt(max(np.einsum("nq,nq,n->", diff, diff, weights), 0.0)))

    def header(self) -> list[str]:
        return ["breakpoints: " + " ".join(repr(c) for c in self.partition.breakpoints)]

    @classmethod
    def from_header(cls, measure: ThetaMeasure, fields: dict) -> PiecewiseFamily:
        bps = tuple(float(v) for v in fields.get("breakpoints", "").split())
        return cls(measure, Partition(bps))

    def cut_rows(self, c: np.ndarray, samples: np.ndarray, thetas: np.ndarray):
        # one value per cell: round each cell once, counting its samples
        return c, np.bincount(cell_index(self.partition, self.measure, thetas), minlength=len(c))


legendre_family = LegendreFamily
piecewise_family = PiecewiseFamily


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
        rows = self.basis.rows(c.shape[0])
        if c.shape[0] != rows:
            raise ValueError(f"{c.shape[0]} rows for a family with {rows} rows")

    @property
    def m(self) -> int:
        return self.coefficients.shape[0]

    @property
    def q(self) -> int:
        return self.coefficients.shape[1]


def zero_expansion(basis: BasisFamily, m: int, q: int) -> Expansion:
    return Expansion(np.zeros((basis.rows(m), q)), basis)


def synthesize(e: Expansion, theta: Union[float, np.ndarray]) -> np.ndarray:
    """Evaluate the expansion: sum_i u_i B_i(theta), componentwise.

    Returns shape (q,) for scalar theta and (n, q) for an array.
    """
    scalar = np.isscalar(theta) or np.ndim(theta) == 0
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if not e.basis.measure.contains(t):
        raise ValueError("theta outside the measure support")
    vals = e.basis.apply(e.basis.design(t, e.m), e.coefficients)
    return vals[0] if scalar else vals


def analyze(f: ScalarField, b: BasisFamily, m: int) -> Expansion:
    """Project a field onto the first m basis functions, in the family's
    coordinates. Inverse of synthesize on the span of the family."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return b.analyze(f, m)


def expansion_pi_norm(e: Expansion) -> float:
    """pi-norm of the synthesized function, from coefficients (Parseval)."""
    return e.basis.tail_norm(e.coefficients, 0)


def truncate(e: Expansion, m_new: int) -> tuple[Expansion, float]:
    """Keep the projection onto the first m_new basis functions.

    Returns the truncated expansion and the pi-norm of the dropped tail (the
    piecewise family zeroes the later rows, keeping one row per cell).
    """
    if not 1 <= m_new <= e.m:
        raise ValueError(f"m_new must be in [1, {e.m}], got {m_new}")
    c = e.coefficients
    return Expansion(e.basis.kept_rows(c, m_new), e.basis), e.basis.tail_norm(c, m_new)


def is_finer(fine: Partition, coarse: Partition) -> bool:
    return set(coarse.breakpoints).issubset(fine.breakpoints)


def transfer_coefficients(e: Expansion, p_new: Partition) -> Expansion:
    """Re-express a piecewise expansion over a finer partition.

    Each new cell inherits the value of the old cell containing it, so the
    synthesized function is unchanged away from breakpoints.
    """
    if not isinstance(e.basis, PiecewiseFamily):
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
_FAMILIES = {f.kind: f for f in (LegendreFamily, PiecewiseFamily)}


def expansion_to_text(e: Expansion) -> str:
    mes = e.basis.measure
    lines = [
        _MAGIC,
        f"kind: {e.basis.kind}",
        f"support: {mes.a!r} {mes.b!r}",
        f"quadrature_nodes: {mes.quadrature_nodes}",
        *e.basis.header(),
        f"shape: {e.m} {e.q}",
    ]
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

    a, b = numbers("support", float, 2)
    mes = ThetaMeasure(a, b, quadrature_nodes=numbers("quadrature_nodes", int, 1)[0])
    if fields["kind"] not in _FAMILIES:
        raise ValueError(f"unknown basis kind in file: {fields['kind']!r}")
    fam = _FAMILIES[fields["kind"]].from_header(mes, fields)

    m, q = numbers("shape", int, 2)
    rows = [[float(v) for v in ln.split()] for ln in lines[body_at : body_at + m]]
    coeffs = np.asarray(rows, dtype=float)
    if coeffs.shape != (m, q):
        raise ValueError(f"expected a {m}x{q} coefficient block, got {coeffs.shape}")
    return Expansion(coeffs, fam)
