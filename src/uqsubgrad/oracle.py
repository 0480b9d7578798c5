"""Stochastic truncated-subgradient estimation in coefficient space, and the
step-size schedule's second-moment constants, as exact sums over the same rule.

The estimator draws theta samples from the family's quadrature rule, each
node with probability its weight, queries the problem's per-theta subgradient
(optionally noised), and averages against the basis: the result is unbiased
for the coefficients of the level-m truncated subgradient under the rule's
inner product, in the coordinates an Expansion of the matching family uses.

Draws come in blocks: a :class:`ThetaBlock` holds T rows of n rule-node
indices, their noise, the basis at the drawn nodes gathered once (Legendre
rows from one table at the rule nodes, or each node's cell) and the problem's
subgradient bound to them once. The solver draws one block per stage and
steps through its rows; :func:`estimate_truncated_subgradient` is the T = 1
case. Within a block the indices are drawn first and the noise second.
Reductions are plain fixed-order numpy sums, so a fixed seed reproduces the
output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import basis as bs
from .problems import NoiseModel, ProblemSpec


@dataclass(frozen=True)
class OracleConfig:
    theta_samples_per_call: int = 64
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if self.theta_samples_per_call < 1:
            raise ValueError("theta_samples_per_call must be >= 1")


@dataclass(frozen=True)
class GVEstimate:
    """G_sq bounds E||g||^2 over the probed region (with a safety factor);
    V_sq is the exact variance added by the noise model."""

    G_sq: float
    V_sq: float

    def __post_init__(self):
        if not (np.isfinite(self.G_sq) and np.isfinite(self.V_sq)):
            raise ValueError("estimates must be finite")
        if self.G_sq < 0 or self.V_sq < 0:
            raise ValueError("estimates must be nonnegative")

    @property
    def total(self) -> float:
        return self.G_sq + self.V_sq


@dataclass(frozen=True)
class ThetaBlock:
    """Everything about T rows of n draws of ``rule()`` nodes, each with
    probability its weight, that does not depend on the iterate: each row's
    estimate is unbiased for the rule's inner product. ``design`` and
    ``scale`` (the divisor of the basis-weighted subgradient sum) come from
    the family's ``rule_design`` and ``sample_scale``. ``noise`` is the (T,
    n, q) noise block, or None when noise is off. ``step(x, t, noise)`` is
    the problem's subgradient bound to the drawn nodes: its ``stage`` hook,
    or ``subgradient`` at ``nodes[idx[t]]`` for a problem without one.
    """

    family: bs.BasisFamily
    noise: Optional[np.ndarray]
    design: np.ndarray
    scale: Union[int, np.ndarray]
    step: Callable[..., np.ndarray]

    @classmethod
    def draw(
        cls, p: ProblemSpec, e: bs.Expansion, T: int, cfg: OracleConfig, rng: np.random.Generator
    ) -> "ThetaBlock":
        """Draw T x n rule-node indices, one uniform each (``rule_index``),
        then the noise; gather e's basis (its first e.m functions) at the
        drawn nodes once and bind p's subgradient to them."""
        family, n = e.basis, cfg.theta_samples_per_call
        nodes, idx = family.rule()[0], family.rule_index(rng.random((T, n)))
        noise = cfg.noise.draw(rng, (T, n, e.q))
        plain = lambda x, t, noise=None: p.subgradient(x, nodes[idx[t]], noise)
        step = plain if p.stage is None else p.stage(nodes, idx)
        return cls(family, noise, family.rule_design(idx, e.m), family.sample_scale(n), step)

    def estimate(self, t: int, u: np.ndarray, m: int) -> np.ndarray:
        """Level-m truncated-subgradient estimate at coefficients ``u`` from
        row ``t`` of the block."""
        B, family = self.design[t], self.family
        noise = None if self.noise is None else self.noise[t]
        g = np.asarray(self.step(family.apply(B, u), t, noise), dtype=float)
        return family.weighted_sum(B, g, m) / self.scale


def estimate_truncated_subgradient(
    p: ProblemSpec,
    e: bs.Expansion,
    m: int,
    cfg: OracleConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo estimate of the level-m truncated subgradient at ``e``.

    For each theta_j, a rule node drawn with probability its weight:
    synthesize x(theta_j), query the subgradient (noise drawn per sample when
    configured), and average g(theta_j) against the basis functions. Unbiased
    for the rule's inner product: its mean is ``analyze`` of the subgradient
    field, at any sample count. A one-row :class:`ThetaBlock`.
    """
    e.basis.check_level(m, e.m)
    block = ThetaBlock.draw(p, e, 1, cfg, rng)
    return block.estimate(0, e.coefficients, m)


def estimate_G_V(
    p: ProblemSpec,
    probes: Sequence[bs.Expansion],
    cfg: OracleConfig,
    rng: np.random.Generator,
) -> GVEstimate:
    """The subgradient second moment over a probe set, by quadrature.

    A stage draws each ``rule()`` node with probability its weight, so G_sq =
    1.5 * max over probes of the weighted rule sum of the noiseless ||g||^2,
    the factor covering iterates away from the probes; V_sq is exact for the
    noise model. ``cfg`` supplies V_sq only; ``rng`` is not drawn from.
    """
    if len(probes) == 0:
        raise ValueError("need at least one probe expansion")
    worst = 0.0
    for e in probes:
        nodes, w = e.basis.rule()
        g = np.asarray(p.subgradient(bs.synthesize(e, nodes), nodes), dtype=float)
        worst = max(worst, float(w @ np.sum(g**2, axis=-1)))
    return GVEstimate(G_sq=1.5 * worst, V_sq=cfg.noise.variance_total(p.dimension))
