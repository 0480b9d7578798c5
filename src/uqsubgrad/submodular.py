"""Theta-parametrized submodular set functions (s-t cut), the Lovasz extension,
rounding of continuous optima back to discrete cuts, and a brute-force oracle.

Set convention
--------------
All subsets of the ground set (the non-terminal nodes) denote the nodes that
are grouped with the *sink*: the cut induced by S puts S ∪ {t} on the sink
side and everything else with the source. Continuous relaxation variables
inherit this meaning, so x_i = 1 cuts node i away from the source. This is the
convention under which the chain demo graph's closed-form relaxation and its
optimal-set switch at theta = 2 come out right.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

BRUTE_FORCE_CAP = 20
_THETA_SLACK = 1e-12  # tolerance of the theta range checks


@dataclass(frozen=True)
class CutGraph:
    """Weighted digraph with distinguished source and sink.

    Edge weights are affine in theta: w(theta) = base + slope * theta.
    Nonnegativity over ``theta_range`` is checked at construction (affine
    weights attain extremes at the endpoints).
    """

    nodes: tuple[str, ...]
    source: str
    sink: str
    edges: tuple[tuple[str, str, float, float], ...]
    theta_range: tuple[float, float]

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if self.source not in self.nodes or self.sink not in self.nodes:
            raise ValueError("source and sink must be listed among the nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        lo, hi = self.theta_range
        for u, v, base, slope in self.edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            ends = [base + slope * lo, base + slope * hi]
            if not (np.isfinite(ends).all() and min(ends) >= 0):
                raise ValueError(
                    f"edge ({u!r}, {v!r}) weight goes negative or non-finite on the support"
                )

    @property
    def ground_set(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n not in (self.source, self.sink))


def cut_value(g: CutGraph, S: Iterable[str], theta: float) -> float:
    """Value of the s-t cut whose sink side is S ∪ {sink}.

    Sums w(theta) over directed edges leaving the source side.
    """
    lo, hi = g.theta_range
    if not (lo - _THETA_SLACK <= theta <= hi + _THETA_SLACK):
        raise ValueError(f"theta={theta} outside range [{lo}, {hi}]")
    members = frozenset(S)
    unknown = members - set(g.ground_set)
    if unknown:
        raise ValueError(f"not in the ground set: {sorted(unknown)}")
    sink_side = members | {g.sink}
    total = 0.0
    for u, v, base, slope in g.edges:
        if u not in sink_side and v in sink_side:
            total += base + slope * theta
    return total


@dataclass(frozen=True)
class SetFunctionSpec:
    """A theta-parametrized set function on an ordered ground set."""

    ground_set: tuple[str, ...]
    evaluator: Callable[[frozenset, float], float]

    @property
    def n(self) -> int:
        return len(self.ground_set)


def set_function(g: CutGraph) -> SetFunctionSpec:
    """The cut function of ``g`` under the sink-side convention (submodular)."""
    return SetFunctionSpec(g.ground_set, lambda S, theta: cut_value(g, S, theta))


@dataclass(frozen=True)
class DiscreteSolution:
    members: frozenset
    value: float


def _chain_sets(spec: SetFunctionSpec, order: np.ndarray) -> list[frozenset]:
    sets = [frozenset()]
    acc: set = set()
    for i in order:
        acc.add(spec.ground_set[int(i)])
        sets.append(frozenset(acc))
    return sets


def _check_unit_box(x: np.ndarray):
    if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
        raise ValueError("coordinates must lie in [0, 1]")


def lovasz_eval(spec: SetFunctionSpec, x: Sequence[float], theta: float) -> float:
    """Lovasz extension by the greedy chain: sort coordinates descending
    (ties by ascending index), evaluate the set function along the induced
    chain and combine with the chain weights. Agrees with the set function
    exactly on hypercube vertices.
    """
    xv = np.asarray(x, dtype=float)
    _check_unit_box(xv)
    order = np.argsort(-xv, kind="stable")
    sets = _chain_sets(spec, order)
    xs = xv[order]
    # Chain weights: lambda_0 = 1 - x_(1), lambda_i = x_(i) - x_(i+1),
    # lambda_n = x_(n); they are >= 0 and sum to 1.
    lams = np.empty(len(xs) + 1)
    lams[0] = 1.0 - xs[0]
    lams[1:-1] = xs[:-1] - xs[1:]
    lams[-1] = xs[-1]
    total = 0.0
    for lam, S in zip(lams, sets):
        if lam != 0.0:
            total += lam * spec.evaluator(S, theta)
    return total


def lovasz_subgradient(
    spec: SetFunctionSpec, x: Sequence[float], theta: float
) -> np.ndarray:
    """Greedy vertex of the base polytope at x: g_i = f(S_i) - f(S_{i-1})
    along the descending-sort chain. A subgradient of the extension at x."""
    xv = np.asarray(x, dtype=float)
    _check_unit_box(xv)
    order = np.argsort(-xv, kind="stable")
    sets = _chain_sets(spec, order)
    fvals = [spec.evaluator(S, theta) for S in sets]
    g = np.empty(len(xv))
    for i, node_idx in enumerate(order):
        g[int(node_idx)] = fvals[i + 1] - fvals[i]
    return g


def threshold_round(
    x: Sequence[float], eps: float, ground: Sequence[str]
) -> frozenset:
    """{e_i : x_i >= 1 - eps}: the elements confidently on the sink side."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    xv = np.asarray(x, dtype=float)
    return frozenset(g for g, v in zip(ground, xv) if v >= 1.0 - eps)


def _lex_key(spec: SetFunctionSpec, S: frozenset) -> tuple:
    return tuple(sorted(spec.ground_set.index(e) for e in S))


def phi_round(
    spec: SetFunctionSpec, x: Sequence[float], theta: float
) -> DiscreteSolution:
    """Sweep thresholds phi over {0} ∪ {x_i} ∪ {1} and return the superlevel
    set {e_i : x_i >= phi} with the smallest set-function value (ties broken
    by lexicographically smallest index set)."""
    xv = np.asarray(x, dtype=float)
    _check_unit_box(xv)
    best = None
    for phi in sorted({0.0, 1.0, *map(float, xv)}):
        S = frozenset(g for g, v in zip(spec.ground_set, xv) if v >= phi)
        val = spec.evaluator(S, theta)
        key = (val, _lex_key(spec, S))
        if best is None or key < best[0]:
            best = (key, S, val)
    return DiscreteSolution(best[1], best[2])


def brute_force_min(spec: SetFunctionSpec, theta: float) -> DiscreteSolution:
    """Exhaustive minimum over all subsets of the ground set. Deterministic
    tie-break: lexicographically smallest index set."""
    if spec.n > BRUTE_FORCE_CAP:
        raise ValueError(f"ground set too large for brute force ({spec.n} > {BRUTE_FORCE_CAP})")
    best = None
    for r in range(spec.n + 1):
        for combo in combinations(range(spec.n), r):
            S = frozenset(spec.ground_set[i] for i in combo)
            val = spec.evaluator(S, theta)
            key = (val, combo)
            if best is None or key < best[0]:
                best = (key, S, val)
    return DiscreteSolution(best[1], best[2])


# The search splits an interval when a cut lies lower than both end lines at
# their intersection by more than _SPLIT_RTOL * scale; scale bounds every cut's
# |base| + |slope * theta| on the range, and rounding moves a value ~1e-16 * scale.
_SPLIT_RTOL = 1e-12


def _extreme_min_cuts(g: CutGraph, theta: float) -> tuple[frozenset, frozenset]:
    """Sink sides of the largest and the smallest minimum cut at theta: what
    the source cannot reach, and what reaches the sink, in the residual graph
    of a shortest-augmenting-path max-flow (weights clipped at 0). Each
    augmentation empties its bottleneck arc exactly."""
    index = {name: i for i, name in enumerate(g.nodes)}
    head, cap, arcs = [], [], [[] for _ in g.nodes]  # arc a ^ 1 reverses arc a
    for u, v, base, slope in g.edges:
        for a, b, c in ((u, v, max(base + slope * theta, 0.0)), (v, u, 0.0)):
            arcs[index[a]].append(len(head))
            head.append(index[b])
            cap.append(c)

    def reach(root: int, forward: bool) -> dict:  # node -> arc it was met by
        found = {root: None}
        for x in (queue := [root]):
            for a in arcs[x]:
                if head[a] not in found and cap[a if forward else a ^ 1] > 0:
                    found[head[a]] = a
                    queue.append(head[a])
        return found

    s, t = index[g.source], index[g.sink]
    while t in (tree := reach(s, True)):
        path, x = [], t
        while x != s:
            path.append(tree[x])
            x = head[tree[x] ^ 1]
        flow = min(cap[a] for a in path)
        for a in path:
            cap[a] -= flow
            cap[a ^ 1] += flow
    to_sink = reach(t, False)
    return (frozenset(n for n in g.nodes if index[n] not in tree),
            frozenset(n for n in g.nodes if index[n] in to_sink))


def _cut_line(g: CutGraph, sink_side: frozenset) -> tuple[float, float]:
    """(base, slope) of a cut, summed over the edges in edge order."""
    base = slope = 0.0
    for u, v, b, s in g.edges:
        if u not in sink_side and v in sink_side:
            base, slope = base + b, slope + s
    return base, slope


def _envelope_breakpoints(argmin_at, lo: float, hi: float, tol: float) -> list[float]:
    """Breakpoints of the min-cut value function inside (lo, hi), by the
    Eisner-Severance recursion: intersect the optimal lines at the two ends of
    an interval; if some cut lies lower there, split the interval at that
    point, otherwise the intersection is a breakpoint. ``argmin_at(theta)`` is
    the (base, slope) of a minimum cut at theta."""
    found = set()
    pending = [(lo, argmin_at(lo), hi, argmin_at(hi))]
    while pending:
        left, (ba, sa), right, (bb, sb) = pending.pop()
        if sa == sb:
            continue  # one line on the whole interval
        x = (bb - ba) / (sa - sb)
        if not left <= x <= right:  # a kink can sit exactly on a probe point
            continue
        c = argmin_at(x)
        if c[0] + c[1] * x < min(ba + sa * x, bb + sb * x) - tol:
            pending += [(left, (ba, sa), x, c), (x, c, right, (bb, sb))]
        else:
            found.add(float(x))
    return sorted(x for x in found if lo < x < hi)


@dataclass(frozen=True, eq=False)
class MinCutEnvelope:
    """theta -> min-cut value on the graph's theta range.

    Holds only the cut lines that can attain the minimum somewhere on the
    range, so evaluation costs O(lines kept) instead of O(2^n), and returns
    the same floats as the minimum over all 2^n cut lines.
    """

    bases: np.ndarray
    slopes: np.ndarray
    breakpoints: tuple[float, ...]
    theta_range: tuple[float, float]

    def __call__(self, theta) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        lo, hi = self.theta_range
        if not np.all((lo - _THETA_SLACK <= t) & (t <= hi + _THETA_SLACK)):
            raise ValueError(f"theta outside range [{lo}, {hi}]")
        return np.min(self.bases + self.slopes * t[..., None], axis=-1)


def min_cut_value_function(g: CutGraph) -> MinCutEnvelope:
    """Vectorized theta -> min-cut value, exact on ``g.theta_range``.

    Every cut's value is affine in theta, so the optimal value is the lower
    envelope of the cut lines. Its breakpoints inside the range are found by
    recursive intersection, each probe answered by one max-flow's two extreme
    minimum cuts, and the line of every distinct cut found is kept. The range
    ends are probed as they are: no weight is negative there. No 2^n table is
    built; the floats match the minimum over all 2^n cut lines.
    """
    lo, hi = g.theta_range
    scale = sum(abs(base) + abs(slope) * max(abs(lo), abs(hi)) for _, _, base, slope in g.edges)
    lines: dict[frozenset, tuple[float, float]] = {}

    def argmin_at(theta: float) -> tuple[float, float]:
        cuts = [lines.setdefault(c, _cut_line(g, c)) for c in _extreme_min_cuts(g, theta)]
        return min(cuts, key=lambda line: line[0] + line[1] * theta)

    breakpoints = _envelope_breakpoints(argmin_at, lo, hi, _SPLIT_RTOL * scale)
    bases, slopes = np.array(list(lines.values())).T
    return MinCutEnvelope(bases, slopes, tuple(breakpoints), g.theta_range)


def verify_submodular(
    spec: SetFunctionSpec,
    theta: float,
    rng: np.random.Generator,
    trials: int = 16,
    tol: float = 1e-9,
) -> bool:
    """Spot-check f(X) + f(Y) >= f(X ∪ Y) + f(X ∩ Y) on random pairs."""
    ground = list(spec.ground_set)
    for _ in range(trials):
        X = frozenset(g for g in ground if rng.random() < 0.5)
        Y = frozenset(g for g in ground if rng.random() < 0.5)
        lhs = spec.evaluator(X, theta) + spec.evaluator(Y, theta)
        rhs = spec.evaluator(X | Y, theta) + spec.evaluator(X & Y, theta)
        if lhs < rhs - tol:
            return False
    return True


def demo_cut_graph(theta_range: tuple[float, float] = (0.0, 4.0)) -> CutGraph:
    """Three-edge chain s -> 1 -> 2 -> t with one uncertain weight:
    w(s,1) = theta, w(1,2) = 2, w(2,t) = 3. The optimal cut switches at
    theta = 2 (cut s->1 below, cut 1->2 above)."""
    return CutGraph(
        nodes=("s", "1", "2", "t"),
        source="s",
        sink="t",
        edges=(("s", "1", 0.0, 1.0), ("1", "2", 2.0, 0.0), ("2", "t", 3.0, 0.0)),
        theta_range=theta_range,
    )


# -- Edge-list ingestion -------------------------------------------------------
#
# Grammar (whitespace separated, '#' starts a comment):
#   source <name>
#   sink <name>
#   <from> <to> <base> <slope>     one line per edge, w(theta) = base + slope*theta


def parse_cut_graph(text: str, theta_range: tuple[float, float]) -> CutGraph:
    source = sink = None
    edges = []
    nodes: list[str] = []

    def note(name: str):
        if name not in nodes:
            nodes.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "source" and len(parts) == 2:
            source = parts[1]
            note(source)
        elif parts[0] == "sink" and len(parts) == 2:
            sink = parts[1]
            note(sink)
        elif len(parts) == 4:
            u, v, base, slope = parts[0], parts[1], float(parts[2]), float(parts[3])
            note(u)
            note(v)
            edges.append((u, v, base, slope))
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    if source is None or sink is None:
        raise ValueError("edge list must name a source and a sink")
    return CutGraph(tuple(nodes), source, sink, tuple(edges), theta_range)


def random_cut_graph(
    rng: np.random.Generator,
    n_internal: int,
    theta_range: tuple[float, float] = (0.0, 4.0),
    edge_prob: float = 0.5,
) -> CutGraph:
    """Random layered digraph for property tests: every internal node is
    reachable-ish between s and t, weights affine and nonnegative on the range."""
    names = tuple(str(i + 1) for i in range(n_internal))
    nodes = ("s",) + names + ("t",)
    lo, hi = theta_range
    edges = []

    def weight():
        base = rng.uniform(0.0, 3.0)
        slope = rng.uniform(-0.2, 0.5)
        # keep w(theta) >= 0 over the range: flip the slope, and where a
        # negative lower end still pulls w(lo) below zero, take the slope
        # that puts w(lo) at base / 2
        if base + slope * lo < 0 or base + slope * hi < 0:
            slope = abs(slope)
            if base + slope * lo < 0:
                slope = base / (-2.0 * lo)
        return base, slope

    for i, u in enumerate(nodes[:-1]):
        for v in nodes[i + 1 :]:
            if u == "s" and v == "t":
                continue
            if rng.random() < edge_prob:
                base, slope = weight()
                edges.append((u, v, base, slope))
    # guarantee connectivity of the chain
    for u, v in zip(nodes[:-1], nodes[1:]):
        if not any(e[0] == u and e[1] == v for e in edges):
            base, slope = weight()
            edges.append((u, v, base, slope))
    return CutGraph(nodes, "s", "t", tuple(edges), theta_range)
