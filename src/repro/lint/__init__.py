"""reprolint — determinism & result-transparency static analysis.

The reproduction's methodology rests on invariants Python cannot express in
types: campaigns must be bit-identical across schedulers, store keys must
hash exactly the result-relevant inputs, jobs must stay picklable, and
per-worker caches must never leak across processes.  ``repro.lint`` makes
those contracts machine-checked at review time with a stdlib-``ast`` rule
engine (no third-party dependencies), run as ``repro lint`` and gated in CI.

Rules (see :mod:`repro.lint.rules` and ``docs/determinism.md``):

* **R001 nondeterminism** — wall-clock reads outside the registered
  :func:`repro.obs.wallclock` helper, module-level ``random.*``,
  ``os.urandom``/``uuid``, and hash-order-sensitive set iteration in
  simulator/engine code.
* **R002 key transparency** — every ``CampaignConfig`` field must either
  feed the campaign key (``CampaignEngine._identity()``) or be listed in the
  ``RESULT_TRANSPARENT`` registry of ``repro/store/keys.py``.
* **R003 picklability** — no lambdas, nested functions or local classes in
  job/plan dataclass fields or scheduler submissions.
* **R004 worker state** — module-level mutable containers in ``engine/``
  must be registered per-worker caches (``# reprolint: worker-state``).
* **R005 exception hygiene** — no bare or swallowed broad excepts in
  simulator/engine code.
* **R006 telemetry purity** — telemetry recorder calls in keyed code paths
  are statements, never expressions feeding data flow.
* **R007 artifact boundary** — the golden-artifact (de)serialization module
  (``repro/store/artifacts.py``) is imported only from the strict-mypy
  packages (``engine``, ``store``, ``obs``).

Findings can be suppressed per line (``# reprolint: ignore[R001]``);
``repro lint`` exits non-zero on any other finding, which is the CI
contract.
"""

from repro.lint.diagnostics import Finding
from repro.lint.engine import LintReport, lint_paths
from repro.lint.rules import ALL_RULES

__all__ = ["ALL_RULES", "Finding", "LintReport", "lint_paths"]
