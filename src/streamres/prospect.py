"""Loss-averse scoring of quality switches between live streams.

A candidate switch is scored by passing the normalized quality delta through
an asymmetric value curve, discounting by a nonlinear weight on the
candidate's verification confidence, and subtracting a flat switch cost.
Scores above zero justify a switch; everything else holds the current stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "ProspectParams",
    "DEFAULT_PARAMS",
    "value",
    "weight",
    "confidence",
    "switch_score",
]


@dataclass(frozen=True, slots=True)
class ProspectParams:
    """Parameters of the switching calculus.

    alpha, beta control the curvature of the gain and loss branches of the
    value curve, loss_aversion scales the loss branch, and gamma bends the
    probability weight.  switch_cost is the flat activation cost every
    candidate must clear, quality_ceiling normalizes pixel deltas, and
    confidence_base is the residual doubt left by each passed verification.
    """

    alpha: float = 0.88
    beta: float = 0.88
    loss_aversion: float = 2.25
    gamma: float = 0.61
    switch_cost: float = 0.12
    quality_ceiling: float = 2160.0
    confidence_base: float = 0.3

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if not 0.0 < self.alpha <= 1.0 or not 0.0 < self.beta <= 1.0:
            raise ValueError("alpha and beta must lie in (0, 1]")
        if self.loss_aversion < 1.0:
            raise ValueError("loss_aversion must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.switch_cost < 0.0:
            raise ValueError("switch_cost must be non-negative")
        # From one up, the normalized delta of any two qualities a stream
        # candidate accepts is finite, so switch_score cannot raise halfway
        # through a reservoir operation.
        if self.quality_ceiling < 1.0:
            raise ValueError("quality_ceiling must be >= 1")
        if not 0.0 < self.confidence_base < 1.0:
            raise ValueError("confidence_base must lie in (0, 1)")


DEFAULT_PARAMS = ProspectParams()


def value(x: float, params: ProspectParams = DEFAULT_PARAMS) -> float:
    """Asymmetric value of a normalized quality delta.

    Gains follow x**alpha; losses follow -loss_aversion * (-x)**beta, so a
    loss hurts loss_aversion times more than an equal gain helps.
    """
    if not math.isfinite(x):
        raise ValueError(f"delta must be finite, got {x!r}")
    if x >= 0.0:
        return x**params.alpha
    return -params.loss_aversion * (-x) ** params.beta


def weight(p: float, params: ProspectParams = DEFAULT_PARAMS) -> float:
    """Nonlinear probability weight: overweights small p, underweights large p.

    w(p) = p**g / (p**g + (1-p)**g) ** (1/g).  Fixed points at 0 and 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    g = params.gamma
    num = p**g
    return num / (num + (1.0 - p) ** g) ** (1.0 / g)


def confidence(n_verifications: int, params: ProspectParams = DEFAULT_PARAMS) -> float:
    """Viability confidence after n passed verifications: 1 - base**n."""
    if n_verifications < 0:
        raise ValueError("verification count must be non-negative")
    return 1.0 - params.confidence_base**n_verifications


def switch_score(
    quality_active: float,
    quality_candidate: float,
    n_verifications: int,
    params: ProspectParams = DEFAULT_PARAMS,
) -> float:
    """Net benefit of switching from the active stream to a candidate.

    The quality delta is normalized by quality_ceiling before valuation, and
    the value is discounted by the weighted confidence the candidate has
    earned through verification.  A same-quality candidate scores exactly
    -switch_cost, so switching is never justified without a quality gain.
    """
    if quality_active <= 0.0 or quality_candidate <= 0.0:
        raise ValueError("qualities must be positive")
    delta = (quality_candidate - quality_active) / params.quality_ceiling
    discount = weight(confidence(n_verifications, params), params)
    return value(delta, params) * discount - params.switch_cost
