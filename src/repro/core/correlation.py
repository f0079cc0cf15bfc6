"""Correlation of RTL failure probability with ISS instruction diversity.

This is the analysis behind Figure 7 of the paper: every workload contributes
one point ``(diversity, Pf)`` — diversity measured on the ISS, ``Pf`` measured
by RTL fault injection — and the points are fitted with ``Pf = a·ln(D) + b``.
The paper reports ``a = 0.0838``, ``b = -0.0191`` and ``R² = 0.9246`` for
stuck-at-1 faults in the integer unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.regression import LogFit, fit_log


@dataclass(frozen=True)
class CorrelationPoint:
    """One workload's contribution to the correlation plot."""

    workload: str
    diversity: float
    failure_probability: float
    injections: int = 0


@dataclass(frozen=True)
class CorrelationResult:
    """Fitted correlation between diversity and failure probability."""

    points: Sequence[CorrelationPoint]
    fit: LogFit

    @property
    def coefficient(self) -> float:
        return self.fit.coefficient

    @property
    def intercept(self) -> float:
        return self.fit.intercept

    @property
    def r_squared(self) -> float:
        return self.fit.r2

    def predict(self, diversity: float) -> float:
        """Predicted ``Pf`` for a given diversity (clamped to [0, 1])."""
        return min(max(self.fit.predict(diversity), 0.0), 1.0)

    def residuals(self) -> List[float]:
        return [
            point.failure_probability - self.fit.predict(point.diversity)
            for point in self.points
        ]

    def describe(self) -> str:
        return self.fit.describe()


def correlate(points: Sequence[CorrelationPoint]) -> CorrelationResult:
    """Fit the Figure 7 logarithmic law over *points*."""
    if len(points) < 2:
        raise ValueError("at least two correlation points are required")
    xs = [point.diversity for point in points]
    ys = [point.failure_probability for point in points]
    return CorrelationResult(points=tuple(points), fit=fit_log(xs, ys))


def correlation_from_measurements(
    workloads: Sequence[str],
    diversities: Sequence[float],
    failure_probabilities: Sequence[float],
    injections: Optional[Sequence[int]] = None,
) -> CorrelationResult:
    """Convenience constructor from parallel sequences."""
    if not (len(workloads) == len(diversities) == len(failure_probabilities)):
        raise ValueError("input sequences must have the same length")
    if injections is None:
        injections = [0] * len(workloads)
    points = [
        CorrelationPoint(workload, diversity, probability, count)
        for workload, diversity, probability, count in zip(
            workloads, diversities, failure_probabilities, injections
        )
    ]
    return correlate(points)
