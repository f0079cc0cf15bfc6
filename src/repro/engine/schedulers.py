"""Campaign schedulers: how a planned list of injection jobs gets executed.

Two schedulers are provided:

* :class:`SerialScheduler` — runs every job on the planner's own backend in
  plan order.  Zero overhead, fully deterministic; the reference
  implementation every other scheduler must match bit-for-bit.
* :class:`MultiprocessingScheduler` — fans chunked job batches out to a
  :class:`multiprocessing.Pool`.  Each worker builds one backend, acquires
  the golden reference once, and then reuses both across every batch it
  receives (per-worker golden caching), so the per-injection cost approaches
  the raw simulation cost.  Ordered ``imap`` plus a final sort by job index
  makes the outcome stream identical to the serial scheduler's for the same
  plan.

  "Acquires", not necessarily "runs": when the plan carries the store's
  golden-artifact cache coordinates (``artifact_store_path`` /
  ``artifact_key``), worker init loads the serialized golden recording —
  golden result or checkpoint ladder — from the store after
  state-digest verification instead of re-executing it from reset, and
  publishes the recording idempotently on a miss (``golden.cache.hit`` /
  ``golden.cache.miss`` telemetry counters account every path taken).

Both stream :class:`OutcomeRecord`s through an optional callback as they
finish, which the engine uses for incremental aggregation and progress
reporting.
"""

from __future__ import annotations

import multiprocessing
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.faultinjection.comparison import compare_runs

from repro.engine.backend import (
    ExecutionBackend,
    Leon3RtlBackend,
    RunResult,
    watchdog_budget,
)
from repro.engine.checkpoint import make_checkpoint_runner
from repro.engine.jobs import CampaignJob, CampaignPlan, OutcomeRecord, TransientJob
from repro.engine.pruning import ReadSummary
from repro.obs.events import EventLog
from repro.obs.telemetry import TELEMETRY

if TYPE_CHECKING:
    from repro.engine.checkpoint import _CheckpointRunnerBase
    from repro.isa.assembler import Program

OutcomeCallback = Callable[[OutcomeRecord], None]

#: Scheduler names accepted by :func:`make_scheduler` (and validated eagerly
#: by :class:`~repro.engine.campaign.CampaignConfig`).
KNOWN_SCHEDULERS = ("serial", "process")


def execute_job(
    backend: ExecutionBackend,
    golden: RunResult,
    budget: int,
    job: CampaignJob,
    runner: Optional["_CheckpointRunnerBase"] = None,
) -> OutcomeRecord:
    """Run one injection job on *backend* and classify it against *golden*.

    Transient jobs go through *runner* (the checkpointed transient runtime of
    :mod:`repro.engine.checkpoint`) when one is available — bit-identical to
    the from-reset run, just faster; permanent jobs and runner-less transient
    jobs execute from reset.

    The span is the one clock path for injection timing:
    ``OutcomeRecord.seconds`` always comes from it, and with telemetry
    enabled the same measurement lands in the ``engine.job.seconds``
    histogram and the trace event stream.
    """
    with TELEMETRY.span("engine.job") as span:
        if runner is not None and isinstance(job, TransientJob):
            faulty = runner.run_transient(job.fault, budget)
        else:
            faulty = backend.run(max_instructions=budget, faults=[job.fault])
    comparison = compare_runs(golden, faulty)
    TELEMETRY.inc(
        "engine.outcomes", labels={"class": comparison.failure_class.value}
    )
    return OutcomeRecord(
        job=job,
        failure_class=comparison.failure_class,
        detection_cycle=comparison.detection_cycle,
        faulty_instructions=faulty.instructions,
        seconds=span.seconds,
    )


def execute_jobs(
    backend: ExecutionBackend,
    golden: RunResult,
    budget: int,
    jobs: Sequence[CampaignJob],
    runner: Optional["_CheckpointRunnerBase"],
) -> Iterator[OutcomeRecord]:
    """The one job loop both schedulers run: *jobs* in order, forking
    transients from *runner*'s ladder when it is set.  Records stream out as
    each job finishes."""
    for job in jobs:
        yield execute_job(backend, golden, budget, job, runner=runner)


class SerialScheduler:
    """Run jobs one after another on the planner's backend."""

    name = "serial"

    def execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback] = None
    ) -> List[OutcomeRecord]:
        with TELEMETRY.span("scheduler.execute", {"scheduler": self.name}):
            return self._execute(plan, on_outcome)

    def _execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback]
    ) -> List[OutcomeRecord]:
        budget = watchdog_budget(plan.golden.instructions)
        records: List[OutcomeRecord] = []
        for record in execute_jobs(
            plan.backend, plan.golden, budget, plan.jobs, plan.runner
        ):
            records.append(record)
            if on_outcome is not None:
                on_outcome(record)
        return records


# -- multiprocessing worker side ---------------------------------------------------
#
# Worker state lives in module globals initialised once per worker process via
# the Pool initializer; only small picklable objects (the backend factory, the
# program, job batches, outcome records) ever cross the process boundary.

_WORKER: Dict[str, object] = {}  # reprolint: worker-state


def _acquire_golden(
    backend: ExecutionBackend,
    program: "Program",
    max_instructions: int,
    runner: Optional["_CheckpointRunnerBase"],
    artifact_store_path: Optional[str],
    artifact_key: Optional[str],
    reads: bool = False,
) -> Tuple[RunResult, Optional[ReadSummary]]:
    """Obtain this process's golden reference, through the artifact cache
    when the plan carries its coordinates.

    On a hit the serialized recording is loaded (and, for ladders,
    digest-verified against the live engine by ``from_artifact``) instead of
    re-executed; on a miss the process records as before and publishes the
    recording idempotently, so whichever process gets there first fills the
    cache for every later worker, shard, and repeated campaign.  A blob that
    fails verification falls back to recording (the cache never serves
    doubtful state).  Plain (non-checkpoint) golden runs whose trace is
    detailed are not cacheable and fall through untouched.

    With *reads* (the planner of a permanent campaign on the fast RTL
    engine) the golden also comes with its storage-array read summary — from
    the artifact, or recorded in the same execution on a miss (and then
    published with it).  The second element is ``None`` otherwise, and for
    an artifact written without a summary.
    """

    def record() -> Tuple[RunResult, Optional[ReadSummary]]:
        if runner is not None:
            # The ladder recording *is* the golden run (the recorded result
            # is bit-identical to a plain run — the checkpoint contract).
            return runner.golden(), None
        if reads and isinstance(backend, Leon3RtlBackend):
            return backend.golden_with_reads(max_instructions)
        return backend.run(max_instructions=max_instructions), None

    if artifact_store_path is None or artifact_key is None:
        return record()
    from repro.store import CampaignStore
    from repro.store.artifacts import (
        ArtifactError,
        golden_to_payload,
        pack_artifact,
        payload_to_golden,
        payload_to_reads,
        unpack_artifact,
    )

    with CampaignStore(artifact_store_path) as store:
        blob = store.artifact_get(artifact_key)
        if blob is not None:
            try:
                payload = unpack_artifact(blob)
                summary: Optional[ReadSummary] = None
                if runner is not None:
                    runner.from_artifact(payload)
                    golden = runner.golden()
                else:
                    golden = payload_to_golden(payload)
                    if reads:
                        summary = payload_to_reads(payload)
            except ArtifactError:
                blob = None  # unusable recording: fall through and re-record
            else:
                TELEMETRY.inc("golden.cache.hit")
                return golden, summary
        TELEMETRY.inc("golden.cache.miss")
        golden, summary = record()
        if runner is not None:
            store.artifact_put(
                artifact_key, "ladder", program.name, backend.name,
                pack_artifact(runner.to_artifact()),
            )
            return golden, None
        try:
            packed = pack_artifact(golden_to_payload(golden, summary))
        except ArtifactError:
            return golden, summary  # detailed traces cannot be cached
        store.artifact_put(
            artifact_key, "golden", program.name, backend.name, packed
        )
        return golden, summary


def _init_worker(
    backend_factory: Callable[[], ExecutionBackend],
    program: "Program",
    max_instructions: int,
    transient: bool = False,
    telemetry_enabled: bool = False,
    trace_path: Optional[str] = None,
    artifact_store_path: Optional[str] = None,
    artifact_key: Optional[str] = None,
) -> None:
    # Mirror the parent's telemetry state into this worker process: the
    # registry is process-local, so each worker accumulates its own deltas
    # (shipped home per batch by :func:`_run_batch`) and — when tracing —
    # appends to its own per-PID sidecar file.
    if telemetry_enabled:
        TELEMETRY.enable()
        TELEMETRY.reset()
        if trace_path is not None:
            TELEMETRY.events = EventLog(trace_path)
    backend: ExecutionBackend = backend_factory()
    backend.prepare(program)
    runner: Optional["_CheckpointRunnerBase"] = None
    if transient:
        runner = make_checkpoint_runner(backend, max_instructions)
    with TELEMETRY.span("golden"):
        golden, _ = _acquire_golden(
            backend, program, max_instructions, runner,
            artifact_store_path, artifact_key,
        )
    if not golden.normal_exit:
        raise RuntimeError(
            f"worker golden run of {program.name!r} did not exit normally "
            f"(trap={golden.trap_kind})"
        )
    _WORKER["backend"] = backend
    _WORKER["golden"] = golden
    _WORKER["budget"] = watchdog_budget(golden.instructions)
    _WORKER["runner"] = runner


def _run_batch(
    jobs: Sequence[CampaignJob],
) -> Tuple[List[OutcomeRecord], Optional[Dict[str, Any]]]:
    """Execute one batch in this worker; returns the outcome records plus a
    snapshot-and-reset of the worker's telemetry registry (``None`` when
    telemetry is off), so successive batches ship disjoint metric deltas the
    parent merges additively."""
    records = list(
        execute_jobs(
            cast(ExecutionBackend, _WORKER["backend"]),
            cast(RunResult, _WORKER["golden"]),
            cast(int, _WORKER["budget"]),
            jobs,
            cast("Optional[_CheckpointRunnerBase]", _WORKER["runner"]),
        )
    )
    snapshot = TELEMETRY.snapshot(reset=True) if TELEMETRY.enabled else None
    if snapshot is not None and TELEMETRY.events is not None:
        # Keep the worker's trace sidecar current even if the pool is torn
        # down without cleanup (workers are killed, not joined gracefully).
        TELEMETRY.events.close()
    return records, snapshot


def chunk_jobs(
    jobs: Sequence[CampaignJob], n_workers: int
) -> List[List[CampaignJob]]:
    """Split *jobs* into contiguous batches for the pool.

    The batch size targets a few batches per worker — large enough to
    amortise IPC, small enough to keep the pool balanced and the progress
    stream flowing.
    """
    if not jobs:
        return []
    size = max(1, min(32, -(-len(jobs) // (n_workers * 4))))
    return [list(jobs[i : i + size]) for i in range(0, len(jobs), size)]


class MultiprocessingScheduler:
    """Fan job batches out to a pool of per-backend worker processes."""

    name = "process"

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    def execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback] = None
    ) -> List[OutcomeRecord]:
        with TELEMETRY.span("scheduler.execute", {"scheduler": self.name}):
            return self._execute(plan, on_outcome)

    def _execute(
        self, plan: CampaignPlan, on_outcome: Optional[OutcomeCallback]
    ) -> List[OutcomeRecord]:
        batches = chunk_jobs(plan.jobs, self.n_workers)
        if not batches:
            return []
        records: List[OutcomeRecord] = []
        # The parent's telemetry state at pool creation decides the workers':
        # each worker mirrors it in its own process-local registry and ships
        # per-batch snapshot deltas home with its records.
        events = TELEMETRY.events
        with multiprocessing.Pool(
            processes=min(self.n_workers, len(batches)),
            initializer=_init_worker,
            initargs=(
                plan.backend_factory, plan.program, plan.max_instructions,
                plan.transient, TELEMETRY.enabled,
                events.path if events is not None else None,
                plan.artifact_store_path, plan.artifact_key,
            ),
        ) as pool:
            for batch_records, snapshot in pool.imap(_run_batch, batches):
                TELEMETRY.merge(snapshot)
                for record in batch_records:
                    records.append(record)
                    if on_outcome is not None:
                        on_outcome(record)
        records.sort(key=lambda record: record.job.index)
        return records


def make_scheduler(
    scheduler: Optional[str] = None, n_workers: int = 1
) -> Union[SerialScheduler, MultiprocessingScheduler]:
    """Resolve a scheduler from a name plus a worker count.

    ``None`` auto-selects: serial for one worker, multiprocessing otherwise.
    """
    if scheduler is None:
        scheduler = "serial" if n_workers <= 1 else "process"
    if scheduler == "serial":
        return SerialScheduler()
    if scheduler == "process":
        return MultiprocessingScheduler(max(1, n_workers))
    raise ValueError(
        f"unknown scheduler {scheduler!r} (expected one of {KNOWN_SCHEDULERS})"
    )
