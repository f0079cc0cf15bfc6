"""Least-squares fits used by the correlation analysis.

Figure 7 of the paper fits the failure probability against instruction
diversity with a logarithmic law ``Pf = a * ln(D) + b`` and reports the
coefficient of determination (``R² = 0.9246`` for the stuck-at-1 / integer
unit data).  The same fit (and a plain linear fit, used in ablation studies)
is implemented here on top of :mod:`numpy`, imported on the first fit: the
campaign and report paths import this module through :mod:`repro.core` but
never fit, and numpy alone is about 10 MB of resident memory in every process
that loads it (campaign pool workers included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class RegressionError(ValueError):
    """Raised when a fit cannot be computed (too few or degenerate points)."""


def r_squared(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination of *predicted* against *observed*."""
    import numpy as np

    observed_arr = np.asarray(list(observed), dtype=float)
    predicted_arr = np.asarray(list(predicted), dtype=float)
    if observed_arr.size != predicted_arr.size or observed_arr.size < 2:
        raise RegressionError("need at least two paired observations")
    ss_res = float(np.sum((observed_arr - predicted_arr) ** 2))
    ss_tot = float(np.sum((observed_arr - observed_arr.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class LinearFit:
    """``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r2: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class LogFit:
    """``y = coefficient * ln(x) + intercept`` (the Figure 7 model)."""

    coefficient: float
    intercept: float
    r2: float

    def predict(self, x: float) -> float:
        if x <= 0:
            raise ValueError("the logarithmic model is undefined for x <= 0")
        return self.coefficient * math.log(x) + self.intercept

    def describe(self) -> str:
        sign = "+" if self.intercept >= 0 else "-"
        return (
            f"y = {self.coefficient:.4f}*ln(x) {sign} {abs(self.intercept):.4f}"
            f"  (R^2 = {self.r2:.4f})"
        )


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least-squares linear fit."""
    import numpy as np

    xs_arr = np.asarray(list(xs), dtype=float)
    ys_arr = np.asarray(list(ys), dtype=float)
    if xs_arr.size != ys_arr.size or xs_arr.size < 2:
        raise RegressionError("need at least two points")
    if np.allclose(xs_arr, xs_arr[0]):
        raise RegressionError("x values are degenerate (all equal)")
    slope, intercept = np.polyfit(xs_arr, ys_arr, 1)
    predictions = slope * xs_arr + intercept
    return LinearFit(float(slope), float(intercept), r_squared(ys_arr, predictions))


def fit_log(xs: Sequence[float], ys: Sequence[float]) -> LogFit:
    """Least-squares fit of ``y = a * ln(x) + b``."""
    import numpy as np

    xs_arr = np.asarray(list(xs), dtype=float)
    ys_arr = np.asarray(list(ys), dtype=float)
    if xs_arr.size != ys_arr.size or xs_arr.size < 2:
        raise RegressionError("need at least two points")
    if np.any(xs_arr <= 0):
        raise RegressionError("x values must be strictly positive for a log fit")
    log_xs = np.log(xs_arr)
    if np.allclose(log_xs, log_xs[0]):
        raise RegressionError("x values are degenerate (all equal)")
    coefficient, intercept = np.polyfit(log_xs, ys_arr, 1)
    predictions = coefficient * log_xs + intercept
    return LogFit(float(coefficient), float(intercept), r_squared(ys_arr, predictions))
