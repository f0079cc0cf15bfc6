"""The benchmark's workloads: paper campaigns driven through the engine API.

Every campaign is built exactly as the figure drivers of
:mod:`repro.core.experiments` and ``repro campaign run`` build theirs:
``CampaignEngine(build_program(...), CampaignConfig(...), backend).run(...)``
against a file-backed store.  One *rep* runs every campaign of a workload
against a fresh store, so each rep is a cold-store reproduction.

The benchmark seed varies the programs' input data (``build_program``'s
``dataset``, the paper's Figure 3 axis).  The fault-site sample stays the
paper-reproduction sample (campaign seed 2015): resampling sites moves the
share of combinational-net sites, whose jobs cost about fifteen times an
array job, and with it wall time by more than any regression bound (in a
20-site IU sample the net count ranges from 0 to 9 across seeds 1-20).
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.experiments import DEFAULT_SEED, TABLE1_WORKLOADS
from repro.engine import CampaignConfig, CampaignEngine, IssBackend, Leon3RtlBackend
from repro.faultinjection.results import CampaignResult, InjectionOutcome
from repro.leon3.units import CMEM_SCOPE, IU_SCOPE
from repro.rtl.faults import FaultModel
from repro.workloads import build_program

#: Benchmark seed whose programs are the repository's default programs
#: (dataset 0), i.e. the configuration the paper comparison is made on.
DEFAULT_BENCH_SEED = DEFAULT_SEED

#: Campaign seed of the site sample (the figure drivers' default).
SITE_SEED = DEFAULT_SEED

BACKENDS = {"rtl": Leon3RtlBackend, "iss": IssBackend}

#: Unit scope of the ISS backend's register-file sites.
ARCH_SCOPE = "arch"

#: Outcome histograms: campaign label -> fault model -> failure class -> count.
Histograms = Dict[str, Dict[str, Dict[str, int]]]


def dataset_for(seed: int) -> int:
    """The programs' input dataset for benchmark *seed* (2015 -> 0)."""
    return (seed - DEFAULT_BENCH_SEED) % (1 << 16)


@dataclass(frozen=True)
class CampaignSpec:
    """One engine campaign of a workload."""

    program: str
    backend: str
    scope: str

    @property
    def label(self) -> str:
        return f"{self.program}/{self.backend}:{self.scope}"


@dataclass(frozen=True)
class Workload:
    """A set of campaigns run together against one fresh store."""

    name: str
    why: str
    campaigns: Tuple[CampaignSpec, ...]
    sample_size: int
    transient_windows: Optional[int] = None
    #: Loop iterations of every program (``None``: the RTL-scale default).
    iterations: Optional[int] = None
    #: Run on the process scheduler with one worker per CPU.
    pooled: bool = False

    def resized(
        self, sample_size: int, transient_windows: Optional[int] = None
    ) -> "Workload":
        """This workload at another size (the self-tests run tiny ones)."""
        resized = dataclasses.replace(self, sample_size=sample_size)
        if transient_windows is not None and self.transient_windows is not None:
            resized = dataclasses.replace(resized, transient_windows=transient_windows)
        return resized

    def fingerprint(self) -> Dict[str, object]:
        """Everything that decides the outcomes, stored beside expectations."""
        return {
            "campaigns": [spec.label for spec in self.campaigns],
            "sample_size": self.sample_size,
            "transient_windows": self.transient_windows,
            "iterations": self.iterations,
            "site_seed": SITE_SEED,
        }

    @property
    def n_workers(self) -> int:
        return len(os.sched_getaffinity(0)) if self.pooled else 1


def _permanent(scope: str) -> Tuple[CampaignSpec, ...]:
    return tuple(CampaignSpec(name, "rtl", scope) for name in TABLE1_WORKLOADS)


def _transient() -> Tuple[CampaignSpec, ...]:
    return tuple(
        spec
        for name in TABLE1_WORKLOADS
        for spec in (
            CampaignSpec(name, "iss", ARCH_SCOPE),
            CampaignSpec(name, "rtl", IU_SCOPE),
            CampaignSpec(name, "rtl", CMEM_SCOPE),
        )
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="iu-permanent",
            why=(
                "Figure 5: permanent faults at IU nodes, serial; net sites fall "
                "back to the reference netlist and dominate wall time"
            ),
            campaigns=_permanent(IU_SCOPE),
            sample_size=2,
        ),
        Workload(
            name="cmem-permanent-pool",
            why=(
                "Figure 6: permanent faults at CMEM nodes on the process pool; "
                "no net sites, so pool, IPC and commits show"
            ),
            campaigns=_permanent(CMEM_SCOPE),
            sample_size=40,
            pooled=True,
        ),
        Workload(
            name="seu-transient",
            why=(
                "SEU campaigns on storage cells, ISS and RTL, serial; checkpoint "
                "forks and per-job fixed costs dominate"
            ),
            campaigns=_transient(),
            sample_size=12,
            transient_windows=4,
            iterations=4,
        ),
    )
}


@dataclass
class CampaignRun:
    """One finished campaign of a rep."""

    spec: CampaignSpec
    #: The campaign's engine; ``None`` once released (it holds the backend
    #: and the golden recordings, which only the last rep's checks need).
    engine: Optional[CampaignEngine]
    results: Dict[FaultModel, CampaignResult]
    #: ``perf_counter`` at ``run()`` entry and at the first progress callback.
    started: float
    first_outcome: float

    @property
    def setup_seconds(self) -> float:
        return self.first_outcome - self.started

    @property
    def injections(self) -> int:
        return sum(result.injections for result in self.results.values())

    def histogram(self) -> Dict[str, Dict[str, int]]:
        return {
            model.value: dict(Counter(o.failure_class.value for o in result.outcomes))
            for model, result in self.results.items()
        }


@dataclass
class RepResult:
    """One cold-store run of a workload."""

    wall_s: float
    campaigns: List[CampaignRun]

    @property
    def setup_s(self) -> float:
        return sum(run.setup_seconds for run in self.campaigns)

    @property
    def injections(self) -> int:
        return sum(run.injections for run in self.campaigns)

    @property
    def inj_per_s(self) -> float:
        return self.injections / (self.wall_s - self.setup_s)

    def histograms(self) -> Histograms:
        return {run.spec.label: run.histogram() for run in self.campaigns}

    def release_engines(self) -> None:
        for run in self.campaigns:
            run.engine = None

    def outcomes(self) -> Iterator[InjectionOutcome]:
        for run in self.campaigns:
            for result in run.results.values():
                yield from result.outcomes


def _first_outcome_clock() -> Tuple[List[float], Callable[..., None]]:
    """A progress callback that records when it first fires."""
    first: List[float] = []

    def on_progress(done: int, total: int, outcome: InjectionOutcome) -> None:
        if not first:
            first.append(time.perf_counter())

    return first, on_progress


def run_rep(
    workload: Workload, seed: int, store_path: str, serial: bool = False
) -> RepResult:
    """Run every campaign of *workload* against the store at *store_path*.

    *serial* runs a pooled workload on the serial scheduler instead (the
    reference its pooled outcomes must equal).
    """
    dataset = dataset_for(seed)
    pooled = workload.pooled and not serial
    runs: List[CampaignRun] = []
    rep_start = time.perf_counter()
    for spec in workload.campaigns:
        program = build_program(
            spec.program, iterations=workload.iterations, dataset=dataset
        )
        config = CampaignConfig(
            unit_scope=spec.scope,
            sample_size=workload.sample_size,
            seed=SITE_SEED,
            n_workers=workload.n_workers if pooled else 1,
            scheduler="process" if pooled else "serial",
            store_path=store_path,
            transient_windows=workload.transient_windows,
        )
        engine = CampaignEngine(program, config, backend_factory=BACKENDS[spec.backend])
        first, on_progress = _first_outcome_clock()
        started = time.perf_counter()
        results = engine.run(progress=on_progress)
        if not first:
            raise RuntimeError(f"campaign {spec.label} reported no outcome")
        runs.append(CampaignRun(spec, engine, results, started, first[0]))
    return RepResult(time.perf_counter() - rep_start, runs)
