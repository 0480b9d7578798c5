"""Stochastic truncated-subgradient estimation in coefficient space, and
estimation of the second-moment constants used by the step-size schedule.

The estimator draws theta samples from the measure, queries the problem's
per-theta subgradient (optionally noised), and averages against the basis:
the result is an unbiased Monte Carlo estimate of the coefficients of the
level-m truncated subgradient, in the same coordinates an Expansion of the
matching family uses (orthonormal coefficients for the polynomial family,
per-cell averages for the piecewise family).

Draws come in blocks: a :class:`ThetaBlock` holds T rows of n thetas, their
noise, and the basis evaluated at all of them once (the Legendre design
matrix, or each theta's cell index). The solver draws one block per stage
and steps through its rows; :func:`estimate_truncated_subgradient` is the
T = 1 case. Within a block the thetas are drawn first and the noise second.
Reductions are plain fixed-order numpy sums, so a fixed seed reproduces the
output bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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
    """T rows of n theta draws with everything about them that does not
    depend on the iterate.

    ``design`` (the basis at every theta) and ``scale`` (the divisor of the
    basis-weighted subgradient sum) come from the family's ``design`` and
    ``sample_scale``, defined per family in :mod:`.basis`. ``noise`` is the
    (T, n, q) noise block, or None when noise is off.
    """

    family: bs.BasisFamily
    thetas: np.ndarray
    noise: Optional[np.ndarray]
    design: np.ndarray
    scale: Union[int, np.ndarray]

    @classmethod
    def draw(
        cls, e: bs.Expansion, T: int, cfg: OracleConfig, rng: np.random.Generator
    ) -> "ThetaBlock":
        """Draw the thetas, then the noise, and evaluate e's basis (its first
        e.m functions) on them once."""
        family = e.basis
        mes = family.measure
        n = cfg.theta_samples_per_call
        thetas = rng.uniform(mes.a, mes.b, size=(T, n))
        noise = cfg.noise.draw(rng, (T, n, e.q))
        return cls(family, thetas, noise, family.design(thetas, e.m), family.sample_scale(n))

    def estimate(self, p: ProblemSpec, t: int, u: np.ndarray, m: int) -> np.ndarray:
        """Level-m truncated-subgradient estimate at coefficients ``u`` from
        row ``t`` of the block."""
        B, family = self.design[t], self.family
        noise = None if self.noise is None else self.noise[t]
        g = np.asarray(p.subgradient(family.apply(B, u), self.thetas[t], noise), dtype=float)
        return family.weighted_sum(B, g, m) / self.scale


def estimate_truncated_subgradient(
    p: ProblemSpec,
    e: bs.Expansion,
    m: int,
    cfg: OracleConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo estimate of the level-m truncated subgradient at ``e``.

    For each sampled theta_j: synthesize x(theta_j), query the subgradient
    (noise drawn per sample when configured), and average g(theta_j) against
    the basis functions. Unbiased for the quadrature coefficients under zero
    noise as the sample count grows. A one-row :class:`ThetaBlock`.
    """
    e.basis.check_level(m, e.m)
    block = ThetaBlock.draw(e, 1, cfg, rng)
    return block.estimate(p, 0, e.coefficients, m)


def estimate_G_V(
    p: ProblemSpec,
    probes: Sequence[bs.Expansion],
    cfg: OracleConfig,
    rng: np.random.Generator,
) -> GVEstimate:
    """Estimate the subgradient second moment over a probe set.

    G_sq = 1.5 * max over probes of the sample mean of ||g(theta)||^2 with the
    noise switched off; V_sq is exact for the configured noise model.
    """
    if len(probes) == 0:
        raise ValueError("need at least one probe expansion")
    worst = 0.0
    # ||g||^2 is heavy-tailed for polynomial probes; the sample floor keeps
    # the estimator's spread well inside the 1.5x safety factor
    n = max(cfg.theta_samples_per_call, 512)
    for e in probes:
        mes = e.basis.measure
        thetas = rng.uniform(mes.a, mes.b, size=n)
        g = np.asarray(p.subgradient(bs.synthesize(e, thetas), thetas), dtype=float)
        worst = max(worst, float(np.mean(np.sum(g**2, axis=-1))))
    return GVEstimate(G_sq=1.5 * worst, V_sq=cfg.noise.variance_total(p.dimension))
