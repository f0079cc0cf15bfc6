"""Statistical analysis utilities shared by the correlation layer.

The paper's evaluation needs two kinds of statistics, both implemented here
with no third-party dependencies:

* :mod:`repro.analysis.regression` — least-squares fits used by the Figure 7
  correlation: :func:`fit_linear` / :class:`LinearFit` for straight lines,
  :func:`fit_log` / :class:`LogFit` for the logarithmic diversity model, and
  :func:`r_squared` for goodness of fit.
* :mod:`repro.analysis.stats` — summary statistics for campaign estimates:
  :func:`mean`, :func:`sample_standard_deviation` and
  :func:`proportion_confidence_interval` (the Wilson score interval used to
  bound sampled failure probabilities).

Higher layers (:mod:`repro.core.correlation`, report rendering) import from
this package; nothing here depends on the simulators.
"""

from repro.analysis.regression import (
    LinearFit,
    LogFit,
    fit_linear,
    fit_log,
    r_squared,
)
from repro.analysis.stats import (
    mean,
    proportion_confidence_interval,
    sample_standard_deviation,
)

__all__ = [
    "LinearFit",
    "LogFit",
    "fit_linear",
    "fit_log",
    "r_squared",
    "mean",
    "proportion_confidence_interval",
    "sample_standard_deviation",
]
