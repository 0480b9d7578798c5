"""Workload inputs: the shipped demo configs and the generated dense min-cut graph.

The dense instance is generated here rather than by the package, so that the
benchmark's input does not move when library helpers move or change. Its edge
list and config are pinned by sha256; a generator that drifts (for instance a
numpy random-stream change) fails loudly instead of silently benchmarking a
different graph.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DENSE_GENERATOR_SEED = 1616
DENSE_INTERNAL_NODES = 16
DENSE_EDGE_PROB = 0.5
DENSE_THETA_RANGE = (0.0, 4.0)
DENSE_QUADRATURE_NODES = 128

# demos/mincut.cfg without initial_step, so the G^2/V^2 probe runs, and with
# two outer loops instead of ten: 40 stages keep one run near 7 s, where ten
# loops take about 45 s because every stage's error evaluation enumerates all
# 2^16 cuts on a quadrature grid that grows with the partition.
DENSE_CONFIG = """\
# Generated dense min-cut benchmark instance (see perfbench/instance.py).

[problem]
kind = mincut:dense16.edges

[measure]
a = 0.0
b = 4.0
quadrature_nodes = 128

[basis]
kind = piecewise

[rsg]
eps0 = 4.0
eps_target = 0.0001
alpha = 1.2
t = 50
k = 20
outer_loops = 2
m_schedule = power:shift=10,exponent=0.8,offset=10
theta_samples = 64
noise_sigma = 0.0
seed = 20240502

[stats]
samples = 10000
quantiles = 0.1,0.5,0.9
round_eps = 0.1

[output]
directory = out-dense16
"""

DENSE_EDGE_COUNT = 86
DENSE_EDGES_SHA256 = "63a179924ef10646f4bfbad09589bfa1f27dd27fc2fd525165dffd95b90486ca"
DENSE_CONFIG_SHA256 = "b7edc6e3d31d6f8cd0b75c87b1359e573753a4c6fc17dc75a218077587468c7f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dense_edges(seed: int = DENSE_GENERATOR_SEED) -> list[tuple[str, str, float, float]]:
    """Layered DAG s -> 1 -> ... -> n -> t over the node order.

    Chain edges are always present; every other forward pair except s -> t
    appears with probability DENSE_EDGE_PROB. Weights are base + slope*theta
    with base ~ U[0, 3] and slope ~ U[0, 0.5], so they stay nonnegative on
    the support.
    """
    rng = np.random.default_rng(seed)
    nodes = ["s"] + [str(i) for i in range(1, DENSE_INTERNAL_NODES + 1)] + ["t"]
    edges = []
    for i, u in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            v = nodes[j]
            if (u, v) == ("s", "t"):
                continue
            if j != i + 1 and rng.random() >= DENSE_EDGE_PROB:
                continue
            edges.append((u, v, float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 0.5))))
    return edges


def edge_list_text(edges) -> str:
    lines = ["source s", "sink t"]
    lines += [f"{u} {v} {base!r} {slope!r}" for u, v, base, slope in edges]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    """A workload's config and its two error tolerances (pi-norm of the
    objective gap, the trace's fn_error_pi column).

    ``time_tol`` is what time_to_tol_s waits for. It lies in the first outer
    loop's steep descent, which every solver seed follows closely; a tighter
    tolerance is reached in whichever outer loop the seed's noise decides.
    ``final_tol`` bounds the error of the last stage.
    """

    config: Path
    time_tol: float
    final_tol: float
    digests: dict


def _gauss_rule(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, w / 2.0


def min_cut_norm(edges, n_internal: int, a: float, b: float, n_nodes: int) -> float:
    """pi-norm of theta -> min-cut value on the Gauss-Legendre rule, by
    enumerating every sink-side set (independent of the package's reference)."""
    masks = np.arange(2**n_internal)

    def in_sink(name):
        if name == "t":
            return np.ones_like(masks, dtype=bool)
        if name == "s":
            return np.zeros_like(masks, dtype=bool)
        return (masks >> (int(name) - 1)) & 1 == 1

    base = np.zeros(masks.shape)
    slope = np.zeros(masks.shape)
    for u, v, w0, w1 in edges:
        cut = ~in_sink(u) & in_sink(v)
        base += w0 * cut
        slope += w1 * cut
    nodes, weights = _gauss_rule(a, b, n_nodes)
    fstar = np.array([np.min(base + slope * th) for th in nodes])
    return float(np.sqrt(weights @ fstar**2))


def prepare(workload: str, root: Path, work: Path) -> Instance:
    """Config and tolerances of a workload; dense16 files are written to ``work``."""
    if workload == "quadratic-demo":
        cfg = root / "demos" / "quadratic.cfg"
        return Instance(cfg, 2.5e-1, 3e-2, {"config_sha256": sha256(cfg.read_bytes())})
    if workload == "mincut-chain-demo":
        cfg = root / "demos" / "mincut.cfg"
        edges = root / "demos" / "mincut_chain.edges"
        return Instance(cfg, 1.2e-1, 5e-2, {
            "config_sha256": sha256(cfg.read_bytes()),
            "edges_sha256": sha256(edges.read_bytes()),
        })
    if workload == "mincut-dense16":
        edges = dense_edges()
        edge_text = edge_list_text(edges).encode()
        cfg_text = DENSE_CONFIG.encode()
        digests = {
            "generator_seed": DENSE_GENERATOR_SEED,
            "edge_count": len(edges),
            "edges_sha256": sha256(edge_text),
            "config_sha256": sha256(cfg_text),
        }
        expected = (DENSE_EDGE_COUNT, DENSE_EDGES_SHA256, DENSE_CONFIG_SHA256)
        got = (len(edges), digests["edges_sha256"], digests["config_sha256"])
        if got != expected:
            raise RuntimeError(f"dense16 instance drifted: expected {expected}, got {got}")
        (work / "dense16.edges").write_bytes(edge_text)
        cfg = work / "dense16.cfg"
        cfg.write_bytes(cfg_text)
        a, b = DENSE_THETA_RANGE
        norm = min_cut_norm(edges, DENSE_INTERNAL_NODES, a, b, DENSE_QUADRATURE_NODES)
        digests["fstar_pi_norm"] = norm
        return Instance(cfg, 1.8e-1 * norm, 1.5e-1 * norm, digests)
    raise ValueError(f"unknown workload {workload!r}")
