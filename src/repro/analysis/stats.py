"""Small statistics helpers for campaign results."""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def sample_standard_deviation(values: Sequence[float]) -> float:
    """Unbiased sample standard deviation (0.0 for fewer than two values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def proportion_confidence_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score confidence interval for a proportion.

    Used to attach error bars to sampled failure probabilities: the paper's
    campaigns are exhaustive, ours sample fault sites, so the interval
    quantifies the sampling error of the reproduction.  Unlike the
    normal-approximation (Wald) interval, Wilson keeps close to nominal
    coverage at small counts and never collapses to a zero-width interval:
    zero failures in *trials* injections still bound ``Pf`` above 0.
    """
    if trials <= 0:
        return (0.0, 0.0)
    p = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denominator
    half_width = (
        z / denominator
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials))
    )
    return (max(0.0, center - half_width), min(1.0, center + half_width))
