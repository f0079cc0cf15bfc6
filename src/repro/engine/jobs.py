"""Campaign planning: picklable injection jobs and outcome records.

A campaign is planned *up front* as a flat list of :class:`InjectionJob`s
(site x fault-model x workload) or :class:`TransientJob`s (site x sampled
start time).  Jobs and the :class:`OutcomeRecord`s that come back are small
frozen dataclasses built only from picklable leaves (strings, ints, enums),
so a plan can be executed by any scheduler — in process, across a
:mod:`multiprocessing` pool, or, later, shipped to remote workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.faultinjection.comparison import FailureClass
from repro.faultinjection.results import InjectionOutcome
from repro.isa.assembler import Program
from repro.rtl.faults import FaultModel, PermanentFault, TransientFault
from repro.rtl.sites import FaultSite

from repro.engine.backend import ExecutionBackend, RunResult

if TYPE_CHECKING:
    from repro.engine.checkpoint import _CheckpointRunnerBase


@dataclass(frozen=True)
class InjectionJob:
    """One fault-injection experiment: a site, a fault model, a workload."""

    #: Position in the campaign plan (defines the canonical result order).
    index: int
    site: FaultSite
    fault_model: FaultModel
    workload: str

    @property
    def fault(self) -> PermanentFault:
        return PermanentFault(site=self.site, model=self.fault_model)


@dataclass(frozen=True)
class TransientJob:
    """One transient-injection experiment: a storage cell upset at a sampled
    start time (backend-native units — RTL cycles / ISS instruction indices).
    """

    #: Position in the campaign plan (defines the canonical result order).
    index: int
    site: FaultSite
    start_cycle: int
    duration: int
    workload: str

    #: Transient outcomes aggregate under their own reporting bucket.
    fault_model = FaultModel.TRANSIENT

    @property
    def fault(self) -> TransientFault:
        return TransientFault(
            site=self.site, start_cycle=self.start_cycle, duration=self.duration
        )


#: Either job flavour, as schedulers and the store see them.
CampaignJob = Union[InjectionJob, TransientJob]


@dataclass(frozen=True)
class OutcomeRecord:
    """Wire format of one finished job, streamed back from workers."""

    job: CampaignJob
    failure_class: FailureClass
    detection_cycle: Optional[int]
    faulty_instructions: int
    #: Wall-clock seconds this job's faulty run took on its worker (CPU cost
    #: attribution for per-model simulation_seconds).
    seconds: float = 0.0

    def to_outcome(self) -> InjectionOutcome:
        return InjectionOutcome(
            fault=self.job.fault,
            failure_class=self.failure_class,
            detection_cycle=self.detection_cycle,
            faulty_instructions=self.faulty_instructions,
        )


@dataclass
class CampaignPlan:
    """Everything a scheduler needs to execute a campaign.

    ``backend_factory`` must be a picklable zero-argument callable (a
    module-level class or function) so that worker processes can build their
    own backend; ``backend`` and ``golden`` are the planner's local instances,
    reused by in-process schedulers to avoid a second golden run.
    """

    program: Program
    backend_factory: Callable[[], ExecutionBackend]
    jobs: List[CampaignJob]
    max_instructions: int
    #: Planner-local backend with the program prepared (not sent to workers).
    backend: ExecutionBackend
    #: Golden (fault-free) run of the planner-local backend.
    golden: RunResult
    #: Planner-local checkpoint runner of a transient plan, whose ladder
    #: recording produced ``golden`` (not sent to workers; the serial
    #: scheduler forks from it, so a transient campaign pays for exactly one
    #: golden execution).  ``None`` for permanent plans and backends without
    #: snapshot support.
    runner: Optional["_CheckpointRunnerBase"] = None
    #: Store path of the golden-artifact cache (``None`` disables it).  Pool
    #: workers open their own read connection here during init and load the
    #: golden recording instead of re-executing it (publishing idempotently
    #: on a miss) — see ``schedulers._init_worker``.
    artifact_store_path: Optional[str] = None
    #: Content address of this plan's golden artifact
    #: (:func:`repro.store.keys.artifact_key`); set together with
    #: ``artifact_store_path``.
    artifact_key: Optional[str] = None

    @property
    def transient(self) -> bool:
        """True when the plan holds transient jobs (one job kind per plan)."""
        return bool(self.jobs) and isinstance(self.jobs[0], TransientJob)


def plan_jobs(
    sites: Sequence[FaultSite],
    fault_models: Sequence[FaultModel],
    workload: str,
) -> List[InjectionJob]:
    """Expand site x model into the canonical, deterministic job order.

    Models vary in the outer loop so each model sees the *same* site sequence
    — the paper compares fault models on identical fault populations.
    """
    jobs: List[InjectionJob] = []
    for model in fault_models:
        for site in sites:
            jobs.append(
                InjectionJob(
                    index=len(jobs), site=site, fault_model=model, workload=workload
                )
            )
    return jobs


def plan_transient_jobs(
    sites: Sequence[FaultSite],
    horizon: int,
    windows: int,
    duration: int,
    seed: int,
    workload: str,
) -> List[TransientJob]:
    """Expand site x sampled start time into the canonical transient job order.

    *windows* start times per site are drawn uniformly from ``[0, horizon)``
    (the golden run's length in backend-native time units) with a seed-derived
    generator, so the sample is a pure function of the plan inputs.  Jobs are
    ordered by ascending start time — the canonical order doubles as the
    execution order, which maximises checkpoint-ladder locality (consecutive
    jobs fork from neighbouring rungs).
    """
    if horizon < 1:
        raise ValueError(f"transient horizon must be >= 1, got {horizon}")
    rng = random.Random(f"{seed}:transient")
    draws = []
    for site_index, site in enumerate(sites):
        for window_index in range(windows):
            draws.append((rng.randrange(horizon), site_index, window_index, site))
    draws.sort(key=lambda draw: draw[:3])
    return [
        TransientJob(
            index=index, site=site, start_cycle=start,
            duration=duration, workload=workload,
        )
        for index, (start, _site_index, _window_index, site) in enumerate(draws)
    ]
