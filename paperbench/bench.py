"""One benchmark run: timed cold-store reps, output checks, then metrics.

A run repeats its workload, each rep against a fresh store, until the
measuring time is used up (at least :data:`MIN_REPS` reps), and reports the
median of each timing.  Before any metric is reported every rep's outcomes
are checked:

* against the committed outcome-class histograms of ``expected.json`` when
  the seed has them, otherwise against the first rep;
* for completeness: every planned injection has an outcome;
* a pooled workload's outcomes against a serial run of the same plan;
* a warm replay on the last rep's store must serve identical outcomes
  without executing an injection;
* a seeded sample of jobs re-executed from reset must classify identically:
  permanent jobs on the reference engines (reference netlist core, reference
  ISS interpreter), transient jobs on the fast engines without forking.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.report import PAPER_FIG5_RANGES, PAPER_FIG6_RANGES
from repro.engine.backend import watchdog_budget
from repro.engine.jobs import OutcomeRecord
from repro.engine.schedulers import execute_job
from repro.faultinjection.comparison import FailureClass
from repro.leon3.units import CMEM_SCOPE, IU_SCOPE
from repro.store import CampaignStore

from paperbench.campaigns import BACKENDS, Histograms, RepResult, Workload, run_rep
from paperbench.tracing import Tracer, first_outcome_seconds, layer_metrics

MIN_REPS = 3

#: Stored jobs per run re-executed from reset.
ORACLE_JOBS = 6

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "inj_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.golden_s": "s",
    "engine.plan_s": "s",
    "backend.rtl_native_s": "s",
    "backend.rtl_native_n": "count",
    "backend.rtl_native_p50_ms": "ms",
    "backend.rtl_native_tail_ms": "ms",
    "backend.rtl_fallback_s": "s",
    "backend.rtl_fallback_n": "count",
    "backend.rtl_fallback_p50_ms": "ms",
    "backend.rtl_fallback_tail_ms": "ms",
    "backend.golden_runs_n": "count",
    "checkpoint.fork_iss_s": "s",
    "checkpoint.fork_iss_n": "count",
    "checkpoint.fork_rtl_s": "s",
    "checkpoint.fork_rtl_n": "count",
    "checkpoint.ladder_s": "s",
    "comparison.classify_s": "s",
    "comparison.classify_n": "count",
    "store.commit_s": "s",
    "store.commit_n": "count",
    "store.begin_s": "s",
    "store.artifact_s": "s",
    "store.warm_replay_s": "s",
    "schedulers.execute_s": "s",
    "schedulers.worker_busy_s": "s",
    "schedulers.efficiency": "1",
    "schedulers.first_outcome_s": "s",
    "jobs.total_n": "count",
    "jobs.net_site_frac": "1",
    "outcomes.no_effect_frac": "1",
    "trace.unattributed_frac": "1",
    "trace.overhead_frac": "1",
}

SYNTHETIC_PROGRAMS = ("membench", "intbench")


@dataclass
class BenchResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str] = field(default_factory=list)

    def result_line(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    expected: Optional[Dict[str, Any]] = None,
) -> BenchResult:
    """Measure *workload* for about *seconds*, check it, compute metrics."""
    tracer = Tracer(work_dir) if trace else None
    reps: List[RepResult] = []
    layers: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        store_path = os.path.join(work_dir, f"rep{len(reps)}.sqlite")
        if tracer is not None and len(reps) % 2 == 0:
            rep, metrics = _traced_rep(tracer, workload, seed, store_path)
            layers.append(metrics)
        else:
            rep = run_rep(workload, seed, store_path)
        if reps:
            _remove_store(os.path.join(work_dir, f"rep{len(reps) - 1}.sqlite"))
            reps[-1].release_engines()
        reps.append(rep)
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    peak_rss_mb = _peak_rss_mb()

    notes: List[str] = []
    attempted = sum(rep.injections for rep in reps)
    failed = _check_reps(workload, seed, reps, expected, notes)
    if workload.pooled and _expected_entry(expected, seed, workload) is None:
        serial_path = os.path.join(work_dir, "serial.sqlite")
        serial = run_rep(workload, seed, serial_path, serial=True)
        _remove_store(serial_path)
        mismatched = mismatches(serial.histograms(), reps[0].histograms())
        notes.append(f"check pooled == serial: {mismatched} mismatched outcomes")
        failed += mismatched
    replay_s, mismatched = warm_replay(workload, seed, store_path, reps[-1])
    notes.append(f"check warm replay == cold: {mismatched} mismatched outcomes")
    failed += mismatched
    checked, mismatched = oracle_check(reps[-1], store_path, seed)
    notes.append(
        f"check from-reset reruns: {mismatched} of {checked} sampled jobs disagree"
    )
    failed += mismatched
    _remove_store(store_path)
    notes.extend(accuracy_context(workload, reps[-1]))

    metrics: Dict[str, Tuple[float, str]]
    if tracer is None:
        values = {
            "wall_s": statistics.median(rep.wall_s for rep in reps),
            "setup_s": statistics.median(rep.setup_s for rep in reps),
            "inj_per_s": statistics.median(rep.inj_per_s for rep in reps),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        traced = [rep.wall_s for rep in reps[::2]]
        untraced = [rep.wall_s for rep in reps[1::2]]
        values = {
            name: statistics.median(layer[name] for layer in layers) for name in layers[0]
        }
        values.update(_counts(reps[-1]))
        values["store.warm_replay_s"] = replay_s
        values["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    notes.append(
        f"failed_frac {failed / attempted:.6g} (1): {failed} of {attempted} "
        f"injections over {len(reps)} reps"
    )
    return BenchResult(failed == 0, attempted, failed, metrics, notes)


def _traced_rep(
    tracer: Tracer, workload: Workload, seed: int, store_path: str
) -> Tuple[RepResult, Dict[str, float]]:
    tracer.install()
    try:
        with tracer.span("bench.rep"):
            rep = run_rep(workload, seed, store_path)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    root = next(span for span in reversed(spans) if span.name == "bench.rep")
    windows = [(run.started, run.first_outcome) for run in rep.campaigns]
    metrics = layer_metrics(
        spans, root, workload.n_workers, first_outcome_seconds(spans, windows)
    )
    return rep, metrics


def _counts(rep: RepResult) -> Dict[str, float]:
    outcomes = list(rep.outcomes())
    total = len(outcomes)
    nets = sum(1 for outcome in outcomes if outcome.fault.site.index is None)
    no_effect = sum(
        1 for outcome in outcomes if outcome.failure_class is FailureClass.NO_EFFECT
    )
    return {
        "jobs.total_n": total,
        "jobs.net_site_frac": nets / total,
        "outcomes.no_effect_frac": no_effect / total,
    }


def _peak_rss_mb() -> float:
    """Max RSS of this process and of its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


# -- checks ----------------------------------------------------------------------


def mismatches(reference: Histograms, observed: Histograms) -> int:
    """Outcomes that must differ between two histogram sets: per campaign and
    fault model, the larger total minus the outcomes both sides agree on."""
    failed = 0
    for label in sorted(reference.keys() | observed.keys()):
        ref_models = reference.get(label, {})
        obs_models = observed.get(label, {})
        for model in sorted(ref_models.keys() | obs_models.keys()):
            ref = ref_models.get(model, {})
            obs = obs_models.get(model, {})
            agree = sum(min(count, obs.get(cls, 0)) for cls, count in ref.items())
            failed += max(sum(ref.values()), sum(obs.values())) - agree
    return failed


def missing(workload: Workload, histograms: Histograms) -> int:
    """Planned injections with no outcome."""
    planned = workload.sample_size * (workload.transient_windows or 1)
    models = 1 if workload.transient_windows is not None else 3
    lost = 0
    for spec in workload.campaigns:
        cells = histograms.get(spec.label, {})
        got = [sum(cell.values()) for cell in cells.values()]
        got += [0] * (models - len(got))
        lost += sum(max(0, planned - count) for count in got)
    return lost


def _expected_entry(
    expected: Optional[Dict[str, Any]], seed: int, workload: Workload
) -> Optional[Dict[str, Any]]:
    if expected is None:
        return None
    return expected.get("seeds", {}).get(str(seed), {}).get(workload.name)


def _check_reps(
    workload: Workload,
    seed: int,
    reps: List[RepResult],
    expected: Optional[Dict[str, Any]],
    notes: List[str],
) -> int:
    entry = _expected_entry(expected, seed, workload)
    if entry is None:
        reference = reps[0].histograms()
        notes.append(f"check: seed {seed} has no committed histograms; reps vs rep 0")
    elif entry["config"] != workload.fingerprint():
        notes.append("check: committed histograms were recorded for another size")
        return sum(rep.injections for rep in reps)
    else:
        reference = entry["histograms"]
        notes.append(f"check: reps vs committed histograms of seed {seed}")
    failed = 0
    for rep in reps:
        histograms = rep.histograms()
        failed += mismatches(reference, histograms) + missing(workload, histograms)
    notes.append(f"check outcome histograms: {failed} mismatched or missing outcomes")
    return failed


def warm_replay(
    workload: Workload, seed: int, store_path: str, cold: RepResult
) -> Tuple[float, int]:
    """Re-run *workload* on its now-warm store: every outcome must be served
    from the store (zero injections) and equal the cold rep's.  Returns the
    replay's wall time and the mismatched or re-executed outcomes."""
    with CampaignStore(store_path) as store:
        executed_before = store.counters()["jobs_executed"]
    replay = run_rep(workload, seed, store_path)
    with CampaignStore(store_path) as store:
        executed = store.counters()["jobs_executed"] - executed_before
    return replay.wall_s, mismatches(cold.histograms(), replay.histograms()) + executed


def oracle_check(
    rep: RepResult, store_path: str, seed: int, count: int = ORACLE_JOBS
) -> Tuple[int, int]:
    """Re-execute *count* seeded-random stored jobs of *rep* from reset;
    returns (jobs checked, jobs that disagree)."""
    with CampaignStore(store_path) as store:
        stored = [
            (run, record)
            for run in rep.campaigns
            for record in store.stored_records(run.engine.store_key())
        ]
    chosen = random.Random(f"{seed}:oracle").sample(stored, min(count, len(stored)))
    references: Dict[str, Any] = {}
    failed = 0
    for run, record in chosen:
        label = run.spec.label
        if label not in references:
            # Transient jobs rerun on the fast engine from reset (fork ==
            # from-reset): a reference-engine golden of a 4-iteration
            # program alone costs seconds.
            backend = BACKENDS[run.spec.backend](fast=run.engine.config.transient)
            backend.prepare(run.engine.program)
            golden = backend.run(max_instructions=run.engine.config.max_instructions)
            references[label] = (backend, golden, watchdog_budget(golden.instructions))
        backend, golden, budget = references[label]
        fresh = execute_job(backend, golden, budget, record.job)
        if _signature(fresh) != _signature(record):
            failed += 1
    return len(chosen), failed


def _signature(record: OutcomeRecord) -> Tuple[Any, ...]:
    return (record.failure_class, record.detection_cycle, record.faulty_instructions)


def accuracy_context(workload: Workload, rep: RepResult) -> List[str]:
    """Pf per program category beside the paper's Figure 5/6 ranges."""
    scope = workload.campaigns[0].scope
    if workload.transient_windows is not None or scope not in (IU_SCOPE, CMEM_SCOPE):
        return []
    if scope == IU_SCOPE:
        figure, ranges = "5", PAPER_FIG5_RANGES
    else:
        figure, ranges = "6", PAPER_FIG6_RANGES
    lines = []
    for category, (low, high) in ranges.items():
        pfs = [
            result.failure_probability
            for run in rep.campaigns
            if (run.spec.program in SYNTHETIC_PROGRAMS) == (category == "synthetic")
            for result in run.results.values()
        ]
        lines.append(
            f"accuracy: {category} Pf mean {statistics.mean(pfs):.3f} "
            f"(range {min(pfs):.3f}-{max(pfs):.3f}); paper Figure {figure}: "
            f"{low:.2f}-{high:.2f}"
        )
    return lines
