"""Outside-in tracing: spans around calls into each layer's public functions.

Only traced reps install the wrappers (:meth:`Tracer.install`), and they are
removed again (:meth:`Tracer.uninstall`) before any untraced rep, so the
end-to-end metrics are measured on unmodified code.  Nothing inside ``src/``
records a span.

Spans stay in memory in the benchmark process.  Pool workers inherit the
wrappers when the pool forks them; the pool terminates its workers rather
than letting them exit, so each worker appends its finished top-level spans
to its own spool file, which :meth:`Tracer.collect` reads back.

A span's self time is its duration minus the durations of its child spans,
so the self times of one process never sum past its outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.engine import campaign as engine_campaign
from repro.engine import schedulers as engine_schedulers
from repro.engine.backend import IssBackend, Leon3RtlBackend
from repro.engine.campaign import CampaignEngine
from repro.engine.checkpoint import IssCheckpointRunner, _CheckpointRunnerBase
from repro.engine.schedulers import MultiprocessingScheduler, SerialScheduler
from repro.store.store import CampaignSession, CampaignStore

#: Span names whose self time is injection work (a worker is busy in them).
JOB_LAYERS = (
    "backend.rtl_native",
    "backend.rtl_fallback",
    "backend.iss",
    "checkpoint.fork_iss",
    "checkpoint.fork_rtl",
    "comparison.classify",
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    seconds: float
    self_seconds: float
    worker: bool


class Tracer:
    """Collects spans from wrappers installed around the traced functions."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.spans: List[Span] = []
        self._stack: List[List[Any]] = []
        self._pid = os.getpid()
        self._worker = False
        self._spool: Any = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------------

    def enter(self, name: str) -> None:
        if os.getpid() != self._pid:
            self._become_worker()
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child_seconds = self._stack.pop()
        seconds = end - start
        if self._stack:
            self._stack[-1][2] += seconds
        span = Span(name, start, seconds, seconds - child_seconds, self._worker)
        if self._spool is None:
            self.spans.append(span)
            return
        self._spool.write(json.dumps(astuple(span)) + "\n")
        if not self._stack:
            self._spool.flush()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def _become_worker(self) -> None:
        """First span in a forked child: drop the parent's open spans and
        spool this process's spans to its own file."""
        self._pid = os.getpid()
        self._stack = []
        self.spans = []
        self._worker = True
        path = os.path.join(self.spool_dir, f"spans.{self._pid}.jsonl")
        # Never closed: the pool terminates this process, so exit() flushes
        # after every top-level span instead.
        self._spool = open(path, "a", encoding="utf-8")

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's, emptying both."""
        spans, self.spans = self.spans, []
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans."):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path, encoding="utf-8") as spool:
                spans.extend(Span(*json.loads(line)) for line in spool)
            os.remove(path)
        return spans

    # -- wrappers ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        timed = self._timed
        self._patch(CampaignEngine, "golden_run", timed("engine.golden"))
        self._patch(CampaignEngine, "select_sites", timed("engine.plan"))
        self._patch(engine_campaign, "plan_jobs", timed("engine.plan"))
        self._patch(engine_campaign, "plan_transient_jobs", timed("engine.plan"))
        self._patch(Leon3RtlBackend, "run", self._backend_run)
        self._patch(IssBackend, "run", self._backend_run)
        self._patch(_CheckpointRunnerBase, "run_transient", self._run_transient)
        self._patch(_CheckpointRunnerBase, "ladder", self._ladder)
        self._patch(engine_schedulers, "compare_runs", timed("comparison.classify"))
        self._patch(CampaignStore, "begin_campaign", timed("store.begin"))
        self._patch(CampaignStore, "artifact_get", timed("store.artifact"))
        self._patch(CampaignStore, "artifact_put", timed("store.artifact"))
        self._patch(CampaignSession, "commit", timed("store.commit"))
        self._patch(SerialScheduler, "execute", timed("schedulers.execute"))
        self._patch(MultiprocessingScheduler, "execute", timed("schedulers.execute"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _timed(self, name: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def _backend_run(self, original: Any) -> Any:
        """``backend.run``: golden runs, ISS faulty runs, and RTL faulty runs
        split by whether the fast core runs the fault natively (a storage
        cell) or falls back to the reference netlist (a net site)."""

        def wrapper(backend: Any, max_instructions: int, faults: Any = ()) -> Any:
            faults = list(faults)
            if not faults:
                name = "backend.golden"
            elif backend.name == "iss":
                name = "backend.iss"
            elif any(fault.site.index is None for fault in faults):
                name = "backend.rtl_fallback"
            else:
                name = "backend.rtl_native"
            with self.span(name):
                return original(backend, max_instructions, faults)

        return wrapper

    def _run_transient(self, original: Any) -> Any:
        def wrapper(runner: Any, *args: Any, **kwargs: Any) -> Any:
            iss = isinstance(runner, IssCheckpointRunner)
            with self.span("checkpoint.fork_iss" if iss else "checkpoint.fork_rtl"):
                return original(runner, *args, **kwargs)

        return wrapper

    def _ladder(self, original: Any) -> Any:
        """Only the call that records the ladder is a span; every fork asks
        for the recorded ladder again."""

        def wrapper(runner: Any) -> Any:
            if runner.recorded:
                return original(runner)
            with self.span("checkpoint.ladder"):
                return original(runner)

        return wrapper


def tail(values: Sequence[float]) -> float:
    """The highest order statistic with at least ten samples above it, or the
    maximum when fewer than 21 samples leave that statistic at or below the
    median."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


def layer_metrics(
    spans: Sequence[Span],
    root: Span,
    n_workers: int,
    first_outcome_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced rep whose outermost span is *root*.

    Time metrics (``_s``) are self times summed over every process, pool
    workers included; ``trace.unattributed_frac`` is the share of the rep's
    wall time that no wrapped call in the benchmark process covers.
    """
    self_s: Dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        self_s[span.name] += span.self_seconds
        count[span.name] += 1
        durations[span.name].append(span.seconds)
    metrics: Dict[str, float] = {
        "engine.golden_s": self_s["engine.golden"] + self_s["backend.golden"],
        "engine.plan_s": self_s["engine.plan"],
    }
    for path in ("native", "fallback"):
        name = f"backend.rtl_{path}"
        runs = durations[name]
        metrics[f"{name}_s"] = self_s[name]
        metrics[f"{name}_n"] = count[name]
        metrics[f"{name}_p50_ms"] = statistics.median(runs) * 1e3 if runs else 0.0
        metrics[f"{name}_tail_ms"] = tail(runs) * 1e3
    metrics["backend.golden_runs_n"] = count["backend.golden"]
    for engine in ("iss", "rtl"):
        name = f"checkpoint.fork_{engine}"
        metrics[f"{name}_s"] = self_s[name]
        metrics[f"{name}_n"] = count[name]
    metrics["checkpoint.ladder_s"] = self_s["checkpoint.ladder"]
    metrics["comparison.classify_s"] = self_s["comparison.classify"]
    metrics["comparison.classify_n"] = count["comparison.classify"]
    metrics["store.commit_s"] = self_s["store.commit"]
    metrics["store.commit_n"] = count["store.commit"]
    metrics["store.begin_s"] = self_s["store.begin"]
    metrics["store.artifact_s"] = self_s["store.artifact"]
    busy = sum(self_s[name] for name in JOB_LAYERS)
    execute_wall = sum(
        span.seconds
        for span in spans
        if span.name == "schedulers.execute" and not span.worker
    )
    metrics["schedulers.execute_s"] = self_s["schedulers.execute"]
    metrics["schedulers.worker_busy_s"] = busy
    metrics["schedulers.efficiency"] = (
        busy / (n_workers * execute_wall) if execute_wall else 0.0
    )
    metrics["schedulers.first_outcome_s"] = first_outcome_s
    metrics["trace.unattributed_frac"] = root.self_seconds / root.seconds
    return metrics


def first_outcome_seconds(
    spans: Sequence[Span], campaign_windows: Sequence[Tuple[float, float]]
) -> float:
    """Summed over campaigns: time from scheduler entry to the first outcome.

    *campaign_windows* holds each campaign's ``(run() entry, first progress
    callback)`` times; its scheduler span is the first one starting after
    the entry.
    """
    starts = sorted(
        span.start
        for span in spans
        if span.name == "schedulers.execute" and not span.worker
    )
    total = 0.0
    for entered, first in campaign_windows:
        start = next((start for start in starts if start >= entered), None)
        if start is not None:
            total += first - start
    return total
