"""Test-only helpers: closed forms, samplers and the formulas the package
replaced with faster ones, kept as references for the tests."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Union

import numpy as np

import uqsubgrad as uq
from uqsubgrad import basis as bs
from uqsubgrad import rsg


def chain_relaxation_closed_form(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Closed-form relaxation objective for the demo chain graph:
    2|x1 - x2| + theta*x1 + 3|1 - x2|. It equals the greedy extension of the
    chain's cut function exactly on {x1 <= x2} and exceeds it by
    2*max(x1 - x2, 0) elsewhere."""
    xv = np.asarray(x, dtype=float)
    t = np.asarray(theta, dtype=float)
    x1, x2 = xv[..., 0], xv[..., 1]
    return 2.0 * np.abs(x1 - x2) + t * x1 + 3.0 * np.abs(1.0 - x2)


def sample_theta(
    m: uq.ThetaMeasure,
    rng: np.random.Generator,
    size: Optional[int] = None,
) -> Union[float, np.ndarray]:
    """Draw theta ~ pi. Reproducible: the sequence is a pure function of ``rng``."""
    draw = rng.uniform(m.a, m.b, size=size)
    return float(draw) if size is None else draw


def quadratic_reference_two_sines(theta: np.ndarray) -> np.ndarray:
    """The quadratic's optimum as first written, evaluating sin(theta) twice."""
    t = np.asarray(theta, dtype=float)
    core = np.abs(0.8 + 0.25 * np.exp(np.sin(t)) - np.cosh(np.sin(t) ** 2))
    vals = core * (1.0 + np.sin(2.0 * t))
    out = np.empty(vals.shape + (2,))
    out[...] = vals[..., None]
    return out


def gap_norm_uncached(p, e: bs.Expansion, reference_values) -> float:
    """The objective gap's pi-norm from scratch: the expansion's rule, its
    synthesis on the nodes and the reference values, all recomputed."""
    nodes, weights = e.basis.rule()
    gap = p.objective(bs.synthesize(e, nodes), nodes) - reference_values(nodes)
    return float(np.sqrt(max(np.dot(weights, gap**2), 0.0)))


def piecewise_cell_averages(f, fam: bs.PiecewiseFamily, nodes, weights) -> np.ndarray:
    """The piecewise family's own analyze as first written: each node's
    weighted value added into its cell by ``np.add.at``, over the cell
    measures."""
    part, mes = fam.partition, fam.measure
    vals = np.asarray(f(nodes), dtype=float).reshape(len(nodes), -1)
    acc = np.zeros((part.n_cells, vals.shape[1]))
    np.add.at(acc, bs.cell_index(part, mes, nodes), weights[:, None] * vals)
    return acc / bs.cell_measures(part, mes)[:, None]


def legendre_einsum_coefficients(f, fam: bs.LegendreFamily, m: int) -> np.ndarray:
    """The Legendre family's own analyze as first written: one einsum of the
    design, the measure's weights and f on the measure's nodes."""
    mes = fam.measure
    vals = np.asarray(f(mes.nodes), dtype=float).reshape(len(mes.nodes), -1)
    return np.einsum("nm,n,nq->mq", fam.eval_matrix(mes.nodes, m), mes.weights, vals)


def trace_rows(text: str) -> list[rsg.TraceRow]:
    """The rows of a trace CSV, its header checked against
    ``rsg.TRACE_COLUMNS``; ``coeff_hash``, which the CSV leaves out, stays empty."""
    header, *lines = text.splitlines()
    assert tuple(header.split(",")) == rsg.TRACE_COLUMNS
    return [rsg.TraceRow(*map(int, c[:4]), *map(float, c[4:]))
            for c in (ln.split(",") for ln in lines)]


def exact_envelope_kinks(graph) -> list[Fraction]:
    """Kinks strictly inside the theta range of the lower envelope of all 2^n
    cut lines, in exact rational arithmetic on the weights: from the flattest
    optimal line at the left end, hop to the line that overtakes it first,
    the flattest one on a tie."""
    ground = graph.ground_set
    lines = set()
    for mask in range(2 ** len(ground)):
        sink_side = {ground[i] for i in range(len(ground)) if mask >> i & 1} | {graph.sink}
        cut = [(Fraction(b), Fraction(s)) for u, v, b, s in graph.edges
               if u not in sink_side and v in sink_side]
        lines.add((sum(b for b, _ in cut), sum(s for _, s in cut)))
    lo, hi = map(Fraction, graph.theta_range)
    base, slope = min(lines, key=lambda line: (line[0] + line[1] * lo, line[1]))
    kinks = []
    while flatter := [(b, s) for b, s in lines if s < slope]:
        x = min((b - base) / (slope - s) for b, s in flatter)
        if x >= hi:
            break
        kinks.append(x)
        base, slope = min(((b, s) for b, s in flatter if (b - base) / (slope - s) == x),
                          key=lambda line: line[1])
    return kinks


def gauss_legendre_decimal(n: int, digits: int = 40) -> tuple[list, list]:
    """The n-node Gauss-Legendre rule in ``digits``-digit decimal arithmetic:
    Newton's method on L_n by the three-term recurrence from Tricomi's
    guesses, each root iterated until its step falls below 10^-(digits - 5),
    and the weights 2 / ((1 - x^2) L_n'(x)^2). Nodes increasing."""
    with localcontext() as ctx:
        ctx.prec = digits
        tol = Decimal(10) ** (5 - digits)

        def legendre(x):
            """L_{n-1}(x), L_n(x) and L_n'(x) = n (L_{n-1} - x L_n) / (1 - x^2)."""
            p0, p1 = Decimal(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            return p1, n * (p0 - x * p1) / (1 - x * x)

        nodes, weights = [], []
        for k in range(1, n + 1):
            x = Decimal(math.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
            for _ in range(100):
                value, slope = legendre(x)
                step = value / slope
                x -= step
                if abs(step) < tol:
                    break
            else:
                raise ArithmeticError(f"root {k} of L_{n} did not converge")
            slope = legendre(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes[::-1], weights[::-1]
