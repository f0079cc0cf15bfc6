"""End-to-end experiment drivers, one per table/figure of the paper.

Every public function reproduces one element of the evaluation section:

========================  ====================================================
Function                  Paper element
========================  ====================================================
:func:`table1_characterization`   Table 1 — benchmark characterisation
:func:`figure3_input_data`        Figure 3 — input-data variation on excerpts
:func:`figure4_iterations`        Figure 4 — iteration count vs Pf and latency
:func:`figure5_iu_faults`         Figure 5 — Pf per benchmark/model at IU nodes
:func:`figure6_cmem_faults`       Figure 6 — Pf per benchmark/model at CMEM
:func:`figure7_correlation`       Figure 7 — Pf vs diversity log correlation
:func:`simulation_time_comparison` Section 4.2 — RTL vs ISS simulation cost
========================  ====================================================

The drivers accept a sample size (fault sites per campaign) so callers can
trade accuracy against runtime; the benchmark harness uses modest defaults
that complete in minutes, while larger values approach the exhaustive
campaigns of the paper.  Every campaign goes through the unified
:mod:`repro.engine` layer, so ``n_workers`` transparently fans the injection
jobs out to a multiprocessing pool with results bit-identical to a serial
run (same seed, same jobs — only faster).

Every driver additionally accepts ``store_path``: the path of a
:class:`repro.store.CampaignStore` database through which the driver is
memoized.  Campaign outcomes are committed there under content-addressed
keys as they stream in, so an interrupted driver resumes where it stopped
and a repeated invocation with unchanged inputs executes **zero** new
injections — results are served from the store (Table 1 characterisations
and the Section 4.2 timing comparison are memoized as store artifacts the
same way).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.correlation import CorrelationPoint, CorrelationResult, correlate
from repro.core.diversity import WorkloadCharacterization, characterize_program
from repro.engine import (
    CampaignConfig,
    CampaignEngine,
    IssBackend,
    Leon3RtlBackend,
    reference_run_seconds,
)
from repro.faultinjection.results import CampaignResult
from repro.leon3.units import CMEM_SCOPE, IU_SCOPE
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel
from repro.workloads import build_program, get_workload
from repro.workloads.excerpts import SUBSET_A_MEMBERS, SUBSET_B_MEMBERS

#: Workloads shown in Table 1 and in Figures 5/6 of the paper.
TABLE1_WORKLOADS: Tuple[str, ...] = (
    "puwmod",
    "canrdr",
    "ttsprk",
    "rspeed",
    "membench",
    "intbench",
)

DEFAULT_SAMPLE_SIZE = 60
DEFAULT_SEED = 2015


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1_characterization(
    workloads: Sequence[str] = TABLE1_WORKLOADS,
    full_size: bool = True,
    store_path: Optional[str] = None,
) -> Dict[str, WorkloadCharacterization]:
    """Characterise the workloads on the ISS (Table 1 of the paper).

    With *store_path*, each characterisation is memoized in the store under
    the digest of the assembled program, so repeated invocations skip the
    ISS runs entirely.
    """
    if store_path is not None:
        from repro.store import CampaignStore

        with CampaignStore(store_path) as store:
            return {
                name: _characterize_memoized(store, name, full_size)
                for name in workloads
            }
    characterizations: Dict[str, WorkloadCharacterization] = {}
    for name in workloads:
        program = build_program(name, full_size=full_size)
        characterizations[name] = characterize_program(program, name=name)
    return characterizations


def _characterize_memoized(store, name: str, full_size: bool):
    """One Table 1 row, served from the store when its key is unchanged."""
    from dataclasses import asdict

    from repro.core.diversity import WorkloadCharacterization
    from repro.isa.instructions import FunctionalUnit
    from repro.store import memo_key, program_digest

    program = build_program(name, full_size=full_size)
    key = memo_key(
        "table1", {"program": program_digest(program), "name": name}
    )
    cached = store.memo_get(key)
    if cached is not None:
        cached["unit_diversity"] = {
            FunctionalUnit(unit): count
            for unit, count in cached["unit_diversity"].items()
        }
        return WorkloadCharacterization(**cached)
    characterization = characterize_program(program, name=name)
    payload = asdict(characterization)
    payload["unit_diversity"] = {
        unit.value: count for unit, count in payload["unit_diversity"].items()
    }
    store.memo_put(key, "table1", payload)
    return characterization


# ---------------------------------------------------------------------------
# Campaign helpers
# ---------------------------------------------------------------------------

def _run_campaign(
    workload: str,
    unit_scope: str,
    fault_models: Sequence[FaultModel],
    sample_size: int,
    seed: int,
    iterations: Optional[int] = None,
    dataset: int = 0,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> Dict[FaultModel, CampaignResult]:
    """Run one engine campaign: RTL backend, shared golden run and site sample.

    *store_path* makes the campaign durable and memoized through the
    :mod:`repro.store` subsystem (content-addressed key: program bytes, site
    sample, models, seed, backend, budget).
    """
    program = build_program(workload, iterations=iterations, dataset=dataset)
    config = CampaignConfig(
        unit_scope=unit_scope,
        sample_size=sample_size,
        fault_models=list(fault_models),
        seed=seed,
        n_workers=n_workers,
        store_path=store_path,
    )
    return CampaignEngine(program, config, backend_factory=Leon3RtlBackend).run()


# ---------------------------------------------------------------------------
# Figure 3 — input data variation on benchmark excerpts
# ---------------------------------------------------------------------------

@dataclass
class InputDataExperiment:
    """Results of the Figure 3 experiment."""

    #: Pf per excerpt member, for the 8-instruction-type subset.
    subset_a: Dict[str, float] = field(default_factory=dict)
    #: Pf per excerpt member, for the 11-instruction-type subset.
    subset_b: Dict[str, float] = field(default_factory=dict)
    injections_per_member: int = 0

    def spread(self, subset: str) -> float:
        """Largest Pf difference (percentage points / 100) within a subset."""
        values = list(self.subset_a.values() if subset == "a" else self.subset_b.values())
        if not values:
            return 0.0
        return max(values) - min(values)

    def mean(self, subset: str) -> float:
        values = list(self.subset_a.values() if subset == "a" else self.subset_b.values())
        if not values:
            return 0.0
        return sum(values) / len(values)


def figure3_input_data(
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SEED,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> InputDataExperiment:
    """Input-data-variation experiment (Figure 3).

    Stuck-at-1 faults are injected at integer-unit nodes while running the
    initialisation excerpts; within each subset the three members execute
    identical code on different input data.
    """
    experiment = InputDataExperiment(injections_per_member=sample_size)
    for member in SUBSET_A_MEMBERS:
        results = _run_campaign(
            f"excerpt_{member}", IU_SCOPE, [FaultModel.STUCK_AT_1], sample_size, seed,
            n_workers=n_workers, store_path=store_path,
        )
        experiment.subset_a[member] = results[FaultModel.STUCK_AT_1].failure_probability
    for member in SUBSET_B_MEMBERS:
        results = _run_campaign(
            f"excerpt_{member}", IU_SCOPE, [FaultModel.STUCK_AT_1], sample_size, seed,
            n_workers=n_workers, store_path=store_path,
        )
        experiment.subset_b[member] = results[FaultModel.STUCK_AT_1].failure_probability
    return experiment


# ---------------------------------------------------------------------------
# Figure 4 — iteration count: Pf stability and propagation latency growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationPoint:
    """One bar of Figure 4: a given iteration count of the rspeed benchmark."""

    iterations: int
    failure_probability: float
    max_latency_us: float
    mean_latency_us: float
    golden_instructions: int


def figure4_iterations(
    iteration_counts: Sequence[int] = (2, 4, 10),
    workload: str = "rspeed",
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SEED,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> List[IterationPoint]:
    """Iteration-count experiment (Figure 4, rspeed with 2/4/10 iterations)."""
    points: List[IterationPoint] = []
    for count in iteration_counts:
        results = _run_campaign(
            workload, IU_SCOPE, [FaultModel.STUCK_AT_1], sample_size, seed,
            iterations=count, n_workers=n_workers, store_path=store_path,
        )
        result = results[FaultModel.STUCK_AT_1]
        points.append(
            IterationPoint(
                iterations=count,
                failure_probability=result.failure_probability,
                max_latency_us=result.max_detection_latency_us,
                mean_latency_us=result.mean_detection_latency_us,
                golden_instructions=result.golden_instructions,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Figures 5 and 6 — Pf per benchmark and fault model (IU and CMEM nodes)
# ---------------------------------------------------------------------------

def figure5_iu_faults(
    workloads: Sequence[str] = TABLE1_WORKLOADS,
    fault_models: Sequence[FaultModel] = ALL_FAULT_MODELS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SEED,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> Dict[str, Dict[FaultModel, CampaignResult]]:
    """Fault-injection experiments at integer-unit nodes (Figure 5)."""
    return {
        workload: _run_campaign(
            workload, IU_SCOPE, fault_models, sample_size, seed,
            n_workers=n_workers, store_path=store_path,
        )
        for workload in workloads
    }


def figure6_cmem_faults(
    workloads: Sequence[str] = TABLE1_WORKLOADS,
    fault_models: Sequence[FaultModel] = ALL_FAULT_MODELS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SEED,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> Dict[str, Dict[FaultModel, CampaignResult]]:
    """Fault-injection experiments at cache-memory nodes (Figure 6)."""
    return {
        workload: _run_campaign(
            workload, CMEM_SCOPE, fault_models, sample_size, seed,
            n_workers=n_workers, store_path=store_path,
        )
        for workload in workloads
    }


# ---------------------------------------------------------------------------
# Figure 7 — Pf vs instruction diversity correlation
# ---------------------------------------------------------------------------

def figure7_correlation(
    workloads: Sequence[str] = TABLE1_WORKLOADS,
    include_excerpts: bool = True,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = DEFAULT_SEED,
    fault_model: FaultModel = FaultModel.STUCK_AT_1,
    unit_scope: str = IU_SCOPE,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> CorrelationResult:
    """Correlate diversity (ISS) with measured Pf (RTL) — Figure 7.

    This is the paper's headline experiment expressed as "same workload, two
    backends": the diversity observable comes from a fault-free run on the
    :class:`~repro.engine.IssBackend` (via :func:`characterize_program`), the
    failure probability from an injection campaign of the same program on the
    :class:`~repro.engine.Leon3RtlBackend` — both through the uniform engine
    API rather than bespoke per-simulator code paths.

    As in the paper, the excerpt subsets contribute additional low-diversity
    points; each subset contributes the mean Pf of its three members (the
    members only differ in input data).
    """
    points: List[CorrelationPoint] = []
    for workload in workloads:
        program = build_program(workload)
        characterization = characterize_program(program, name=workload)
        results = _run_campaign(
            workload, unit_scope, [fault_model], sample_size, seed,
            n_workers=n_workers, store_path=store_path,
        )
        result = results[fault_model]
        points.append(
            CorrelationPoint(
                workload=workload,
                diversity=characterization.diversity,
                failure_probability=result.failure_probability,
                injections=result.injections,
            )
        )
    if include_excerpts:
        experiment = figure3_input_data(
            sample_size=sample_size, seed=seed, n_workers=n_workers,
            store_path=store_path,
        )
        subset_a_program = build_program(f"excerpt_{next(iter(SUBSET_A_MEMBERS))}")
        subset_b_program = build_program(f"excerpt_{next(iter(SUBSET_B_MEMBERS))}")
        diversity_a = characterize_program(subset_a_program).diversity
        diversity_b = characterize_program(subset_b_program).diversity
        points.append(
            CorrelationPoint(
                workload="excerpt_subset_a",
                diversity=diversity_a,
                failure_probability=experiment.mean("a"),
                injections=sample_size * len(SUBSET_A_MEMBERS),
            )
        )
        points.append(
            CorrelationPoint(
                workload="excerpt_subset_b",
                diversity=diversity_b,
                failure_probability=experiment.mean("b"),
                injections=sample_size * len(SUBSET_B_MEMBERS),
            )
        )
    return correlate(points)


# ---------------------------------------------------------------------------
# Section 4.2 — simulation time comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationTimeComparison:
    """RTL campaign cost versus the equivalent number of ISS executions."""

    workload: str
    experiments: int
    rtl_seconds: float
    iss_seconds: float

    @property
    def speedup(self) -> float:
        if self.rtl_seconds == 0:
            return 0.0
        return self.rtl_seconds / max(self.iss_seconds, 1e-9)


def simulation_time_comparison(
    workload: str = "rspeed",
    sample_size: int = 30,
    seed: int = DEFAULT_SEED,
    n_workers: int = 1,
    store_path: Optional[str] = None,
) -> SimulationTimeComparison:
    """Measure the RTL-vs-ISS simulation cost ratio (Section 4.2).

    The paper reports 25 478 CPU hours for the RTL campaigns versus fewer than
    300 hours for the same number of ISS experiments (a ~85x gap).  Here the
    same comparison is made at reproduction scale and through the same backend
    API: one RTL campaign of *sample_size* injections (engine +
    :class:`~repro.engine.Leon3RtlBackend`) is timed against *sample_size*
    fault-free re-executions on the :class:`~repro.engine.IssBackend`.

    The comparison is between simulation levels, so both sides run their
    reference engines: the structural netlist model and the functional ISS
    interpreter.  The fast engines are result-transparent accelerators — the
    fast RTL engine evaluates a net only where a fault sits on it — so timing
    them would measure the accelerators, not the levels.

    With *store_path* the measured comparison is memoized: repeated
    invocations return the recorded timings (of the original execution)
    without re-running either simulator.
    """
    program = build_program(workload)
    memo_address = None
    if store_path is not None:
        from repro.store import CampaignStore, memo_key, program_digest

        memo_address = memo_key(
            "simtime",
            {
                "engines": "reference",
                "program": program_digest(program),
                "sample_size": sample_size,
                "seed": seed,
                "workload": workload,
            },
        )
        with CampaignStore(store_path) as store:
            memo = store.memo_get(memo_address)
        if memo is not None:
            return SimulationTimeComparison(**memo)

    config = CampaignConfig(
        unit_scope=IU_SCOPE,
        sample_size=sample_size,
        fault_models=[FaultModel.STUCK_AT_1],
        seed=seed,
        n_workers=n_workers,
        store_path=store_path,
    )
    engine = CampaignEngine(
        program, config, backend_factory=functools.partial(Leon3RtlBackend, fast=False)
    )
    result = engine.run()[FaultModel.STUCK_AT_1]
    iss_seconds = reference_run_seconds(
        program,
        functools.partial(IssBackend, fast=False),
        runs=sample_size,
        max_instructions=config.max_instructions,
    )

    comparison = SimulationTimeComparison(
        workload=workload,
        experiments=sample_size,
        rtl_seconds=result.simulation_seconds,
        iss_seconds=iss_seconds,
    )
    if memo_address is not None:
        from dataclasses import asdict

        from repro.store import CampaignStore

        with CampaignStore(store_path) as store:
            store.memo_put(memo_address, "simtime", asdict(comparison))
    return comparison
