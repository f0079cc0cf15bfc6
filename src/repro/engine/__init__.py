"""Campaign execution engine: backends, jobs, schedulers, aggregation.

The engine decouples *what* a fault-injection campaign does from *where* its
experiments run:

* :mod:`repro.engine.backend` — the :class:`ExecutionBackend` protocol and the
  :class:`Leon3RtlBackend` / :class:`IssBackend` adapters, unified behind a
  common :class:`RunResult`.
* :mod:`repro.engine.jobs` — picklable :class:`InjectionJob` /
  :class:`OutcomeRecord` records and campaign planning.
* :mod:`repro.engine.schedulers` — serial and multiprocessing job execution
  with per-worker golden-run caching.
* :mod:`repro.engine.checkpoint` — the checkpointed transient-fault runtime:
  golden snapshot ladders, fork-from-checkpoint injection and the
  early-convergence exit (bit-identical to from-reset execution).
* :mod:`repro.engine.sharding` — deterministic campaign sharding: one plan
  split into N disjoint slices that execute against independent store files
  and merge back bit-identically (``repro store merge``).
* :mod:`repro.engine.campaign` — :class:`CampaignEngine`, which plans a
  campaign, runs it through a scheduler and streams outcomes into
  :class:`~repro.faultinjection.results.CampaignResult` aggregates.

Every scheduler is result-transparent: the same plan yields bit-identical
``Pf`` breakdowns whether it runs serially or across a worker pool.
"""

from repro.engine.backend import (
    ExecutionBackend,
    IssBackend,
    Leon3RtlBackend,
    RunResult,
    watchdog_budget,
)
from repro.engine.campaign import (
    CampaignConfig,
    CampaignEngine,
    ProgressCallback,
    reference_run_seconds,
)
from repro.engine.checkpoint import (
    Checkpoint,
    CheckpointLadder,
    make_checkpoint_runner,
)
from repro.engine.jobs import (
    CampaignPlan,
    InjectionJob,
    OutcomeRecord,
    TransientJob,
    plan_jobs,
    plan_transient_jobs,
)
from repro.engine.schedulers import (
    MultiprocessingScheduler,
    SerialScheduler,
    make_scheduler,
)
from repro.engine.sharding import (
    run_sharded_campaign,
    select_shard,
    shard_bounds,
    shard_slice,
    shard_store_path,
    shard_token,
)

__all__ = [
    "ExecutionBackend",
    "IssBackend",
    "Leon3RtlBackend",
    "RunResult",
    "watchdog_budget",
    "CampaignConfig",
    "CampaignEngine",
    "ProgressCallback",
    "reference_run_seconds",
    "CampaignPlan",
    "InjectionJob",
    "TransientJob",
    "OutcomeRecord",
    "plan_jobs",
    "plan_transient_jobs",
    "Checkpoint",
    "CheckpointLadder",
    "make_checkpoint_runner",
    "MultiprocessingScheduler",
    "SerialScheduler",
    "make_scheduler",
    "run_sharded_campaign",
    "select_shard",
    "shard_bounds",
    "shard_slice",
    "shard_store_path",
    "shard_token",
]
