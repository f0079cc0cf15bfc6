"""The campaign engine: plan, schedule and aggregate fault-injection runs.

This is the load-bearing orchestration layer of the framework.  A campaign is

1. **planned** — one golden run, one site sample shared by every fault model,
   expanded into a flat list of picklable :class:`InjectionJob`s and
   addressed by one content key (:meth:`CampaignEngine.store_key`),
2. **executed** — through a pluggable scheduler (serial, or a
   :mod:`multiprocessing` pool with chunked batches and per-worker golden
   caching), and
3. **aggregated** — finished :class:`OutcomeRecord`s stream into per-model
   :class:`CampaignResult`s incrementally, firing an optional progress
   callback after every injection.

Schedulers are required to be result-transparent: for the same plan, every
scheduler yields bit-identical ``Pf`` breakdowns (the test suite enforces
serial == multiprocessing).

Every campaign runs through the :mod:`repro.store` subsystem: with a
:class:`~repro.store.CampaignStore` (``run(store=...)``, or
``CampaignConfig.store_path``) it is **durable** — every finished outcome is
committed in chunks under the campaign's content-addressed key, an
interrupted campaign resumes from its last committed outcome, and a repeated
campaign is a pure cache hit that executes zero new injections.  Without
one, the run commits to a private in-memory store and takes the same path.
Stored and freshly executed outcomes are merged through an ordered reorder
buffer, so a resumed campaign aggregates in exactly the same order as an
uninterrupted one (bit-identical results, enforced by
``tests/test_store.py``).
"""

from __future__ import annotations

import os
import platform
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.faultinjection.comparison import FailureClass
from repro.faultinjection.results import CampaignResult, InjectionOutcome
from repro.isa.assembler import Program
from repro.leon3.units import IU_SCOPE
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel
from repro.rtl.sites import FaultSite

from repro.engine.backend import ExecutionBackend, Leon3RtlBackend, RunResult
from repro.engine.checkpoint import make_checkpoint_runner
from repro.engine.jobs import (
    CampaignJob,
    CampaignPlan,
    InjectionJob,
    OutcomeRecord,
    TransientJob,
    plan_jobs,
    plan_transient_jobs,
)
from repro.engine.pruning import ReadSummary, is_dormant
from repro.engine.schedulers import (
    KNOWN_SCHEDULERS,
    _acquire_golden,
    make_scheduler,
)
from repro.engine.sharding import select_shard, shard_slice, shard_token
from repro.obs.clock import utc_isoformat, wallclock
from repro.obs.events import EventLog
from repro.obs.telemetry import TELEMETRY, Span

if TYPE_CHECKING:
    from repro.engine.checkpoint import _CheckpointRunnerBase
    from repro.store import CampaignStore

#: Progress callback: (completed jobs, total jobs, outcome just finished).
ProgressCallback = Callable[[int, int, InjectionOutcome], None]

#: Outcomes per store transaction: small enough that an interrupt loses at
#: most a few seconds of simulation, large enough to amortise the commit.
STORE_COMMIT_CHUNK = 16


@dataclass
class CampaignConfig:
    """Configuration of a fault-injection campaign."""

    #: Unit scope of the injections: "iu", "cmem" or any unit-path prefix.
    unit_scope: str = IU_SCOPE
    #: Number of fault sites sampled from the scope (use ``None`` for all).
    sample_size: Optional[int] = 200
    #: Fault models to inject (defaults to the three permanent models).
    fault_models: Sequence[FaultModel] = field(
        default_factory=lambda: list(ALL_FAULT_MODELS)
    )
    #: Random seed for site sampling (campaigns are reproducible by default).
    seed: int = 2015
    #: Hard instruction ceiling for the golden run.
    max_instructions: int = 400_000
    #: Worker processes executing injection jobs (1 = in-process serial).
    n_workers: int = 1
    #: Scheduler name ("serial" / "process"); ``None`` auto-selects from
    #: ``n_workers``.
    scheduler: Optional[str] = None
    #: Path of a :class:`~repro.store.CampaignStore` SQLite database; when
    #: set, outcomes are committed there and repeated campaigns are served
    #: from the store instead of re-executing injections.
    store_path: Optional[str] = None
    #: Reuse outcomes already committed under this campaign's key (resume
    #: interrupted campaigns, serve complete ones as pure cache hits).
    #: ``False`` forces re-execution, overwriting any stored outcomes.
    resume: bool = True
    #: Transient (SEU-style) campaign mode: number of start times sampled per
    #: site from the golden run's length.  ``None`` (the default) plans the
    #: paper's permanent-fault campaign; an integer switches the campaign to
    #: transient jobs (site x start-time sample over storage cells, outcomes
    #: aggregated under ``FaultModel.TRANSIENT``) executed through the
    #: checkpointed runtime of :mod:`repro.engine.checkpoint` where the
    #: backend supports it.
    transient_windows: Optional[int] = None
    #: Window length of planned transient faults, in backend-native time
    #: units (RTL cycles; on the ISS the upset fires once at window start).
    transient_duration: int = 1
    #: Campaign telemetry: collect structured metrics (counters, histograms,
    #: span timings — see :mod:`repro.obs`) for this run and, on the durable
    #: path, persist them as the campaign's run manifest.  Result-transparent
    #: (metrics never feed back into execution) and deliberately not part of
    #: the campaign store key — enforced by ``tests/test_obs.py``'s pinned-key
    #: test.  ``False`` keeps the registry exactly as the caller left it.
    telemetry: bool = True
    #: Base path of the JSONL trace event log (``None`` disables tracing).
    #: Each process appends spans to its own ``<path>.<pid>`` sidecar;
    #: ``repro trace export --chrome`` merges them into a Perfetto-loadable
    #: timeline.  Result-transparent, not part of the store key.
    trace_path: Optional[str] = None
    #: Shard count of a sharded campaign (see :mod:`repro.engine.sharding`):
    #: the canonical plan is split into this many disjoint contiguous slices
    #: and this run executes only slice ``shard_index``, committing outcomes
    #: under the *parent* campaign's key with the parent plan's job indices.
    #: Shard stores are folded back into the canonical store by
    #: ``repro store merge``.  Result-transparent — merge(shards) is
    #: bit-identical to the unsharded run (enforced by
    #: ``tests/test_sharding.py``) — so deliberately not part of the
    #: campaign store key.
    shards: int = 1
    #: Which shard of ``shards`` this run executes (0-based).  Result-
    #: transparent, like ``shards``.
    shard_index: int = 0

    def __post_init__(self) -> None:
        # Fail at configuration time with a clear message, not deep inside a
        # worker pool half-way through a golden run.
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.scheduler is not None and self.scheduler not in KNOWN_SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r} "
                f"(expected one of {KNOWN_SCHEDULERS})"
            )
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError(
                f"sample_size must be >= 1 or None (all sites), "
                f"got {self.sample_size}"
            )
        if self.max_instructions < 1:
            raise ValueError(
                f"max_instructions must be >= 1, got {self.max_instructions}"
            )
        if not self.fault_models:
            raise ValueError("fault_models must name at least one fault model")
        if self.transient_windows is not None and self.transient_windows < 1:
            raise ValueError(
                f"transient_windows must be >= 1 or None (permanent campaign), "
                f"got {self.transient_windows}"
            )
        if self.transient_windows is not None and list(self.fault_models) != list(
            ALL_FAULT_MODELS
        ):
            # Silently discarding an explicit model restriction would hand
            # the caller a TRANSIENT-bucket result they did not ask for.
            raise ValueError(
                "transient campaigns aggregate under the single "
                "FaultModel.TRANSIENT bucket; fault_models cannot be "
                "restricted (drop fault_models or transient_windows)"
            )
        if self.transient_duration < 1:
            raise ValueError(
                f"transient_duration must be >= 1, got {self.transient_duration}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard_index must be in [0, shards), got shard "
                f"{self.shard_index} of {self.shards}"
            )
        if self.trace_path is not None and not self.telemetry:
            raise ValueError(
                "trace_path requires telemetry: the trace events are emitted "
                "by the telemetry spans (drop trace_path or set telemetry=True)"
            )

    @property
    def transient(self) -> bool:
        """True when this configuration plans a transient campaign."""
        return self.transient_windows is not None

    @classmethod
    def from_row(cls, row: Dict[str, Any], **execution: Any) -> "CampaignConfig":
        """Rebuild the configuration a stored campaign row was written from.

        The inverse of the row ``CampaignEngine._identity`` derives beside
        the key (``repro campaign resume`` rebuilds campaigns through it);
        *execution* sets the result-transparent knobs.
        """
        fields: Dict[str, Any] = {
            "unit_scope": row["unit_scope"],
            "sample_size": row["sample_size"],
            "seed": row["seed"],
            "max_instructions": row["max_instructions"],
        }
        transient = row.get("transient")
        if transient:
            # Transient planning derives its single result bucket itself;
            # the stored ["transient"] list only describes the outcomes.
            fields["transient_windows"] = transient["windows"]
            fields["transient_duration"] = transient["duration"]
        else:
            fields["fault_models"] = [FaultModel(v) for v in row["fault_models"]]
        return cls(**fields, **execution)


class _Identity(NamedTuple):
    """A campaign resolved once: its result buckets, canonical job list,
    content key and stored configuration row."""

    models: Tuple[FaultModel, ...]
    jobs: List[CampaignJob]
    key: str
    row: Dict[str, Any]


class CampaignEngine:
    """Plans and executes fault-injection campaigns on any backend.

    *backend_factory* picks the simulator and its engine: the bare
    :class:`Leon3RtlBackend` / :class:`IssBackend` classes run the fast
    cycle engine / interpreter, and ``functools.partial(..., fast=False)``
    pins the reference one.  The two are bit-identical, so both share one
    store identity (see :func:`repro.store.keys.backend_identity`).
    """

    def __init__(
        self,
        program: Program,
        config: Optional[CampaignConfig] = None,
        backend_factory: Callable[[], ExecutionBackend] = Leon3RtlBackend,
    ):
        self.program = program
        self.config = config if config is not None else CampaignConfig()
        self.backend_factory = backend_factory
        self._backend: Optional[ExecutionBackend] = None
        self._golden: Optional[RunResult] = None
        #: Planner-local checkpoint runner of a transient campaign (its
        #: ladder recording doubles as the golden run; the serial scheduler
        #: reuses it through the plan, workers build their own).
        self._runner: Optional["_CheckpointRunnerBase"] = None
        #: Golden-artifact cache coordinates, armed by :meth:`run` when a
        #: file-backed store is in play; ``None`` otherwise (the cache-less
        #: path).
        self._artifact_store_path: Optional[str] = None
        self._artifact_key: Optional[str] = None
        #: This campaign's resolved identity (see :meth:`_identity`).
        self._resolved: Optional[_Identity] = None
        #: Storage-array read summary of the golden run (see
        #: :mod:`repro.engine.pruning`): recorded by the fast RTL engine for
        #: permanent campaigns, ``None`` otherwise — nothing is pruned then.
        self._reads: Optional[ReadSummary] = None

    # -- planner-local backend ---------------------------------------------------------

    @property
    def backend(self) -> ExecutionBackend:
        """The planner-local backend instance (created and prepared lazily)."""
        if self._backend is None:
            self._backend = self.backend_factory()
            self._backend.prepare(self.program)
        return self._backend

    def golden_run(self) -> RunResult:
        """Fault-free reference run on the local backend (cached).

        For transient campaigns on a checkpoint-capable backend the golden
        run *is* the ladder recording (bit-identical to a plain run — the
        checkpoint contract), so the campaign pays for one golden execution,
        not two.  For permanent campaigns on the fast RTL engine the same
        single execution also records the storage-array read summary that
        :meth:`run` prunes dormant jobs with.  With the golden-artifact
        cache armed (:meth:`run` on a file-backed store), even that
        execution is served from the store when an earlier campaign already
        published the recording — after state-digest verification, so a
        served golden is bit-identical to a fresh one.
        """
        if self._golden is None:
            config = self.config
            runner = None
            if config.transient:
                runner = make_checkpoint_runner(self.backend, config.max_instructions)
                if runner is not None:
                    self._runner = runner
            with TELEMETRY.span("golden"):
                golden, self._reads = _acquire_golden(
                    self.backend,
                    self.program,
                    config.max_instructions,
                    runner,
                    self._artifact_store_path,
                    self._artifact_key,
                    reads=self._records_reads(),
                )
            if not golden.normal_exit:
                raise RuntimeError(
                    f"golden run of {self.program.name!r} did not exit normally "
                    f"(trap={golden.trap_kind}, instructions={golden.instructions})"
                )
            self._golden = golden
        return self._golden

    def _records_reads(self) -> bool:
        """True when the golden run carries a read summary to prune with:
        permanent campaigns on the fast RTL engine.  The reference engine
        (``fast=False``) always simulates, even when an artifact it loads
        carries a summary — it is the oracle pruning is checked against."""
        backend = self.backend
        return (
            not self.config.transient
            and isinstance(backend, Leon3RtlBackend)
            and backend.fast
        )

    # -- planning ------------------------------------------------------------------------

    def select_sites(self) -> List[FaultSite]:
        """Sample (or enumerate) the fault sites of the configured scope.

        The sample is a pure function of the backend's site universe and the
        config seed, so every fault model — and every worker — sees the same
        population.  Transient campaigns restrict the population to storage
        cells (register file, cache arrays): an SEU is an upset of a state
        element, and only storage sites can fork from checkpoints.
        """
        universe = self.backend.sites
        scope = [self.config.unit_scope]
        storage_only = self.config.transient
        if self.config.sample_size is None:
            return list(universe.iter_sites(scope, storage_only=storage_only))
        return universe.sample(
            self.config.sample_size,
            units=scope,
            seed=self.config.seed,
            storage_only=storage_only,
        )

    def _plan_job_list(
        self, models: Tuple[FaultModel, ...], site_list: List[FaultSite]
    ) -> List[CampaignJob]:
        """Expand the site sample into the canonical job list.

        Transient planning samples start times from the golden run's length
        in the backend's native time unit, so it (deterministically) runs the
        golden first.
        """
        config = self.config
        if not config.transient:
            return list(plan_jobs(site_list, models, self.program.name))
        if not site_list:
            raise ValueError(
                f"transient campaigns inject into storage cells only, and "
                f"unit scope {config.unit_scope!r} contains none (its sites "
                f"are combinational nets); widen the scope (e.g. 'iu' for "
                f"the register file, 'cmem' for the cache arrays)"
            )
        golden = self.golden_run()
        horizon = (
            golden.cycles
            if getattr(self.backend, "transient_unit", "cycles") == "cycles"
            else golden.instructions
        )
        return list(plan_transient_jobs(
            site_list,
            horizon=horizon,
            windows=config.transient_windows,
            duration=config.transient_duration,
            seed=config.seed,
            workload=self.program.name,
        ))

    def artifact_address(self) -> str:
        """The content address of this campaign's golden artifact.

        Derived from exactly what decides the recording's bytes: workload,
        backend identity, instruction ceiling, and the artifact kind —
        ``"ladder"`` when the golden run is a checkpoint-ladder recording
        (transient campaign on a snapshot-capable backend), ``"golden"`` for
        a plain reference run.  Every campaign whose golden
        would be byte-identical shares the address; any input that changes
        the recording changes it.
        """
        # Imported lazily: the store subsystem sits beside the engine.
        from repro.store.keys import artifact_key, backend_identity

        config = self.config
        kind = (
            "ladder"
            if config.transient
            and getattr(self.backend, "supports_checkpoints", False)
            else "golden"
        )
        return artifact_key(
            kind=kind,
            program=self.program,
            backend_id=backend_identity(self.backend.name, self.backend_factory),
            max_instructions=config.max_instructions,
        )

    def _identity(self) -> _Identity:
        """Resolve the campaign once: result buckets, site sample, canonical
        job list, content key and the configuration row the store keeps.

        The one place a campaign's identity is derived — :meth:`store_key`
        reads it, :meth:`run` commits under it, and ``repro campaign resume``
        rebuilds the configuration from the row
        (:meth:`CampaignConfig.from_row`).  Transient campaigns extend both
        with their window parameters and the key with the planned window
        sample, so a transient campaign can never alias a permanent one.
        Cached: planning a transient sample runs the golden, once per engine.
        """
        if self._resolved is None:
            # Imported lazily: the store subsystem sits beside the engine.
            from repro.store.keys import backend_identity, campaign_key, transient_token

            config = self.config
            models = (
                (FaultModel.TRANSIENT,)
                if config.transient
                else tuple(config.fault_models)
            )
            site_list = self.select_sites()
            jobs = self._plan_job_list(models, site_list)
            row: Dict[str, Any] = {
                "workload": self.program.name,
                "unit_scope": config.unit_scope,
                "sample_size": config.sample_size,
                "seed": config.seed,
                "max_instructions": config.max_instructions,
                "fault_models": [model.value for model in models],
                "backend": self.backend.name,
            }
            transient: Optional[Dict[str, Any]] = None
            if config.transient:
                row["transient"] = {
                    "windows": config.transient_windows,
                    "duration": config.transient_duration,
                    "unit": getattr(self.backend, "transient_unit", "cycles"),
                }
                transient = dict(row["transient"])
                transient["jobs"] = [
                    transient_token(cast(TransientJob, job)) for job in jobs
                ]
            key = campaign_key(
                program=self.program,
                sites=site_list,
                fault_models=models,
                seed=config.seed,
                backend_id=backend_identity(self.backend.name, self.backend_factory),
                unit_scope=config.unit_scope,
                sample_size=config.sample_size,
                max_instructions=config.max_instructions,
                transient=transient,
            )
            self._resolved = _Identity(models=models, jobs=jobs, key=key, row=row)
        return self._resolved

    def store_key(self) -> str:
        """The content key this campaign is (or would be) stored under —
        exactly the key :meth:`run` commits under (see :meth:`_identity`)."""
        return self._identity().key

    # -- execution ----------------------------------------------------------------------

    def run(
        self,
        progress: Optional[ProgressCallback] = None,
        store: Optional["CampaignStore"] = None,
    ) -> Dict[FaultModel, CampaignResult]:
        """Execute the campaign and aggregate per-fault-model results.

        Outcomes are folded into the result objects as they stream in;
        *progress* (if given) fires after every finished injection with
        ``(done, total, outcome)``.

        *store* (a :class:`~repro.store.CampaignStore`, or implicitly one
        opened from ``config.store_path``) makes the campaign durable: jobs
        whose outcomes are already committed under this campaign's content
        key are served from the store and only the missing ones execute.
        Without either, the run commits to a private in-memory store, so
        every campaign takes the same path.

        With ``config.telemetry`` (the default) the run collects structured
        metrics into the process-local registry of :mod:`repro.obs` — reset
        at entry, so after the call the registry holds exactly this run's
        metrics — and persists them as the campaign's run manifest.

        A sharded run (``config.shards > 1``) needs a store: its slice is
        committed there and merged back by ``repro store merge``, and
        without one the slice would be returned as if it were the whole
        campaign.
        """
        config = self.config
        if config.shards > 1 and store is None and config.store_path is None:
            raise ValueError(
                f"a sharded campaign (shards={config.shards}) needs a "
                f"store to commit its slice to; pass store= or set "
                f"config.store_path"
            )
        self._setup_telemetry()
        owns_store = store is None
        if store is None:
            # Imported lazily: the store subsystem sits beside the engine.
            from repro.store import CampaignStore

            store = CampaignStore(
                config.store_path if config.store_path is not None else ":memory:"
            )
        self._arm_artifact_cache(store)
        try:
            with TELEMETRY.span("campaign.run") as span:
                return self._run(store, progress, span)
        finally:
            if owns_store:
                store.close()
            events = TELEMETRY.events
            if events is not None:
                events.close()

    def _arm_artifact_cache(self, store: "CampaignStore") -> None:
        """Point golden acquisition at *store*'s artifact cache (or away).

        Armed only for file-backed stores — pool workers open their own
        connection by path, and a ``:memory:`` store is private to the
        connection that created it; otherwise golden acquisition takes the
        cache-less path untouched.
        """
        self._artifact_store_path = None
        self._artifact_key = None
        if store.path == ":memory:":
            return
        self._artifact_store_path = store.path
        self._artifact_key = self.artifact_address()

    def _setup_telemetry(self) -> None:
        """Arm the process-local registry for this run (when configured).

        ``config.telemetry=False`` touches nothing: the registry keeps
        whatever state the caller put it in (including "disabled", the
        process default)."""
        if not self.config.telemetry:
            return
        TELEMETRY.enable()
        TELEMETRY.reset()
        if self.config.trace_path is not None:
            events = TELEMETRY.events
            if events is None or events.path != self.config.trace_path:
                if events is not None:
                    events.close()
                TELEMETRY.events = EventLog(self.config.trace_path)

    def _run(
        self,
        store: "CampaignStore",
        progress: Optional[ProgressCallback],
        span: Span,
    ) -> Dict[FaultModel, CampaignResult]:
        """Serve committed outcomes, execute only the rest.

        Stored and fresh records meet in a reorder buffer that folds them in
        job-index order, so the aggregated results are bit-identical to a
        single uninterrupted run whatever the commit pattern was.
        """
        config = self.config
        identity = self._identity()
        models, jobs = identity.models, identity.jobs
        # The shard's slice of the canonical plan (shards=1 selects all of
        # it).  The campaign row — key, config, total_jobs — always describes
        # the *full* plan: a shard is not a new campaign, it commits its
        # slice under the parent identity with the parent job indices, so the
        # store stays 'running' until merge (or co-located shard runs)
        # assembles every slice.
        my_jobs = select_shard(jobs, config.shards, config.shard_index)
        session = store.begin_campaign(
            key=identity.key, config=identity.row, total_jobs=len(jobs)
        )
        if config.shards > 1:
            lo, hi = shard_slice(len(jobs), config.shards, config.shard_index)
            session.record_shard(
                shard_count=config.shards,
                shard_index=config.shard_index,
                token=shard_token(session.key, config.shards, config.shard_index),
                job_lo=lo,
                job_hi=hi,
            )
        if not config.resume:
            session.reset()
        shard_indices = {job.index for job in my_jobs}
        stored = (
            [
                record
                for record in session.stored_records()
                if record.job.index in shard_indices
            ]
            if config.resume
            else []
        )
        done_indices = {record.job.index for record in stored}
        remaining = [job for job in my_jobs if job.index not in done_indices]
        TELEMETRY.inc("campaign.jobs_planned", len(my_jobs))
        TELEMETRY.inc("campaign.jobs_memoized", len(stored))
        TELEMETRY.inc("campaign.jobs_executed", len(remaining))
        TELEMETRY.inc("store.cache_hits", len(stored))
        TELEMETRY.inc("store.cache_misses", len(remaining))

        # A full cache hit is served without touching the golden run: the
        # reference stats were persisted when the campaign first executed.
        golden_stats = session.golden_stats()
        if remaining or golden_stats is None:
            golden = self.golden_run()
            golden_stats = {
                "instructions": golden.instructions,
                "cycles": golden.cycles,
                "transactions": len(golden.transactions),
            }
            session.record_golden(**golden_stats)
        if self._artifact_key is not None:
            # Reachability edge for gc: the artifact stays alive as long as
            # this campaign row does (a no-op while the artifact is absent —
            # e.g. unpublishable detailed-trace goldens, or a full cache hit
            # whose original run already recorded the edge).
            store.artifact_ref(self._artifact_key, session.key)
        results = self._make_results(
            models,
            golden_stats["instructions"],
            golden_stats["cycles"],
            golden_stats["transactions"],
        )
        if stored and not remaining:
            session.register_hit()

        # Reorder buffer: fold records strictly in job-index order (the
        # canonical aggregation order), even when the committed prefix has
        # gaps that fresh jobs fill in from a parallel scheduler.  The order
        # is tracked through the shard's expected index list — which is
        # simply 0..len(jobs)-1 when unsharded — so a shard whose indices
        # start mid-plan folds exactly like a full campaign.
        done = 0
        expected = [job.index for job in my_jobs]
        cursor = 0
        pending: Dict[int, OutcomeRecord] = {}

        def fold(record: OutcomeRecord) -> None:
            nonlocal done
            done += 1
            outcome = record.to_outcome()
            results[record.job.fault_model].outcomes.append(outcome)
            if progress is not None:
                progress(done, len(my_jobs), outcome)

        def push(record: OutcomeRecord) -> None:
            nonlocal cursor
            pending[record.job.index] = record
            while cursor < len(expected) and expected[cursor] in pending:
                fold(pending.pop(expected[cursor]))
                cursor += 1

        all_records: List[OutcomeRecord] = list(stored)
        commit_buffer: List[OutcomeRecord] = []
        executed = 0

        def on_outcome(record: OutcomeRecord) -> None:
            nonlocal executed
            # Buffer for commit before surfacing the record: an exception
            # from the progress callback (the canonical interrupt) reaches
            # the finally-flush below with this record already buffered, so
            # no finished work is lost.  A hard kill (SIGKILL, power loss)
            # can still lose up to one uncommitted chunk.
            commit_buffer.append(record)
            all_records.append(record)
            if len(commit_buffer) >= STORE_COMMIT_CHUNK:
                session.commit(commit_buffer)
                executed += len(commit_buffer)
                commit_buffer.clear()
            push(record)

        # Only activated and net-site jobs reach a scheduler, so a plan whose
        # jobs are all dormant never starts a pool.
        pruned, remaining = self._prune_dormant(remaining)

        try:
            for record in stored:
                push(record)
            for record in pruned:
                on_outcome(record)
            if remaining:
                plan = CampaignPlan(
                    program=self.program,
                    backend_factory=self.backend_factory,
                    jobs=remaining,
                    max_instructions=config.max_instructions,
                    backend=self.backend,
                    golden=self.golden_run(),
                    runner=self._runner,
                    artifact_store_path=self._artifact_store_path,
                    artifact_key=self._artifact_key,
                )
                make_scheduler(config.scheduler, config.n_workers).execute(
                    plan, on_outcome
                )
        finally:
            if commit_buffer:
                session.commit(commit_buffer)
                executed += len(commit_buffer)
                commit_buffer.clear()
            store.bump("jobs_executed", executed)
            store.bump("jobs_cached", len(stored))

        if cursor == len(expected):
            # This run's slice is done; the campaign itself completes only
            # when the store holds every planned outcome (immediately for an
            # unsharded run, at merge time — or on the last co-located shard
            # — for a sharded one).
            session.mark_complete_if_done()
        fresh = all_records[len(stored):]
        self._attribute_seconds(results, all_records, fresh, span)
        if config.telemetry:
            session.put_manifest(self._build_manifest(span))
        return results

    def _prune_dormant(
        self, jobs: List[CampaignJob]
    ) -> Tuple[List[OutcomeRecord], List[CampaignJob]]:
        """Split *jobs* into the dormant ones, resolved from the golden read
        summary without simulation (see :mod:`repro.engine.pruning`), and
        the rest.  A dormant faulty run is the golden run, so its record is
        exact: ``NO_EFFECT``, no detection cycle, the golden instruction
        count.  Without a summary nothing is pruned."""
        reads = self._reads
        if not jobs or reads is None:
            return [], jobs
        instructions = self.golden_run().instructions
        pruned: List[OutcomeRecord] = []
        rest: List[CampaignJob] = []
        for job in jobs:
            if isinstance(job, InjectionJob) and is_dormant(reads, job.fault):
                pruned.append(OutcomeRecord(
                    job=job,
                    failure_class=FailureClass.NO_EFFECT,
                    detection_cycle=None,
                    faulty_instructions=instructions,
                ))
            else:
                rest.append(job)
        TELEMETRY.inc("campaign.jobs_pruned", len(pruned))
        if pruned:
            TELEMETRY.inc(
                "engine.outcomes",
                len(pruned),
                labels={"class": FailureClass.NO_EFFECT.value},
            )
        return pruned, rest

    def _build_manifest(self, span: Span) -> Dict[str, Any]:
        """This run's manifest: merged metrics + environment + wall clock.

        Persisted to the run's store as a result-transparent artifact
        (``repro campaign metrics`` reads it back); the metrics snapshot is
        taken after every worker delta has been merged in.
        """
        config = self.config
        return {
            "manifest_version": 1,
            "created_at": utc_isoformat(wallclock()),
            "wall_seconds": span.elapsed(),
            "environment": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpu_count": os.cpu_count(),
            },
            "execution": {
                "scheduler": config.scheduler,
                "n_workers": config.n_workers,
                "transient_windows": config.transient_windows,
                "shards": config.shards,
                "shard_index": config.shard_index,
            },
            "metrics": TELEMETRY.snapshot(),
        }

    def _make_results(
        self,
        models: Sequence[FaultModel],
        golden_instructions: int,
        golden_cycles: int,
        golden_transactions: int,
    ) -> Dict[FaultModel, CampaignResult]:
        return {
            model: CampaignResult(
                workload=self.program.name,
                fault_model=model,
                unit_scope=self.config.unit_scope,
                golden_instructions=golden_instructions,
                golden_cycles=golden_cycles,
                golden_transactions=golden_transactions,
            )
            for model in models
        }

    @staticmethod
    def _attribute_seconds(
        results: Dict[FaultModel, CampaignResult],
        all_records: Sequence[OutcomeRecord],
        fresh_records: Sequence[OutcomeRecord],
        span: Span,
    ) -> None:
        """Per-model simulation cost: the measured seconds of that model's
        faulty runs (stored records keep the seconds of their original
        execution), plus an even share of this run's overhead (golden run,
        planning, scheduling) not attributable to any one job.  Both sides
        of the subtraction read the span clock (the run's ``campaign.run``
        span and the per-job ``engine.job`` spans), so
        overhead can never go negative from mixing timers."""
        elapsed = span.elapsed()
        job_seconds = sum(record.seconds for record in fresh_records)
        overhead = max(0.0, elapsed - job_seconds) / max(1, len(results))
        model_seconds: Dict[FaultModel, float] = {model: 0.0 for model in results}
        for record in all_records:
            model_seconds[record.job.fault_model] += record.seconds
        for model, result in results.items():
            result.simulation_seconds = model_seconds[model] + overhead

def reference_run_seconds(
    program: Program,
    backend_factory: Callable[[], ExecutionBackend],
    runs: int,
    max_instructions: int = 400_000,
) -> float:
    """Wall-clock cost of *runs* fault-free executions on a backend.

    Used by the Section 4.2 simulation-cost comparison: the same experiment
    count, timed through the uniform backend API instead of bespoke loops.
    """
    backend = backend_factory()
    backend.prepare(program)
    with TELEMETRY.span("engine.reference_runs") as span:
        for _ in range(runs):
            backend.run(max_instructions=max_instructions)
    return span.seconds
