"""Shared helpers for the benchmark harness.

Two families of helpers live here:

**Figure/table reproduction** (the ``test_*`` benchmarks).  Every such
benchmark reproduces one table or figure of the paper.  Campaign sizes are
controlled by environment variables so that the default run finishes in
minutes while larger (more faithful) campaigns remain one variable away:

* ``REPRO_BENCH_SAMPLE``  — fault sites sampled per campaign (default 40),
* ``REPRO_BENCH_SEED``    — sampling seed (default 2015).

Run ``pytest benchmarks/ --benchmark-only -s`` to see the rendered tables.

**Throughput baselines** (the ``bench_*_throughput.py`` scripts).  Each
script measures a speedup (fast leg vs reference leg, bit-identity verified
first), then hands the stamped measurement record to
:func:`run_gated_benchmark`, which implements the tail every script used to
duplicate: the ``--check`` CI gate (configuration match, regression
tolerance, optional hard floor) and the ``--no-write`` / append-to-baseline
decision.

Baselines are **append-only histories**: a ``BENCH_*.json`` file holds
``{"benchmark": ..., "history": [record, ...]}`` and every recording run
appends a dated record instead of overwriting, so the throughput trajectory
across optimisation PRs stays in the file (``gen_perf_history.py`` renders
it as ``docs/perf_history.md``).  Pre-history flat snapshots are migrated
transparently on load: a file whose top level *is* a record is treated as a
single-entry history, and the next append rewrites it in history form.
``--check`` always compares against the **latest** record.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Fault sites sampled per campaign in the benchmark harness.
SAMPLE_SIZE = int(os.environ.get("REPRO_BENCH_SAMPLE", "40"))
#: Seed used for site sampling.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2015"))

#: Tolerated relative speedup regression against the committed baseline,
#: shared by every throughput gate.
REGRESSION_TOLERANCE = 0.20


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing.

    Fault-injection campaigns are far too heavy for statistical repetition; a
    single timed round both reports the cost (the Section 4.2 argument) and
    returns the experiment results for the shape assertions.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def stamp() -> Dict[str, object]:
    """The machine/time fields every baseline record carries.

    ``cpu_count`` and ``python`` exist so absolute figures from different
    machines are never compared blindly; ``recorded_at`` orders the history.
    """
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_history(path: Path) -> Dict[str, object]:
    """Load a baseline file as ``{"benchmark": ..., "history": [...]}``.

    A pre-history flat snapshot (the top level is itself a record) is wrapped
    as a single-entry history, so readers never see two formats.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data.get("history"), list):
        return data
    return {"benchmark": data.get("benchmark"), "history": [data]}


def latest_record(path: Path) -> Optional[Dict[str, object]]:
    """The most recent record of a baseline history (``None`` if empty)."""
    history: List[Dict[str, object]] = load_history(path)["history"]  # type: ignore[assignment]
    return history[-1] if history else None


def append_record(path: Path, record: Dict[str, object]) -> Dict[str, object]:
    """Append *record* to the baseline history at *path* (creating it, or
    migrating a flat snapshot, as needed) and return the written document."""
    path = Path(path)
    if path.exists():
        document = load_history(path)
    else:
        document = {"benchmark": record.get("benchmark"), "history": []}
    document["history"].append(record)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


def aggregate_speedup_of(record: Dict[str, object]) -> Optional[float]:
    """Default speedup extractor: ``record["aggregate"]["speedup"]`` when
    present, else the top-level ``record["speedup"]`` (the campaign bench,
    where it is ``null`` on single-CPU machines)."""
    aggregate = record.get("aggregate")
    if isinstance(aggregate, dict) and aggregate.get("speedup") is not None:
        return float(aggregate["speedup"])  # type: ignore[index]
    speedup = record.get("speedup")
    return None if speedup is None else float(speedup)


def run_gated_benchmark(
    baseline_path: Path,
    record: Dict[str, object],
    config_fields: Sequence[str],
    check: bool = False,
    no_write: bool = False,
    speedup_floor: Optional[float] = None,
    regression_message: str = "throughput regressed against the committed baseline",
    speedup_of: Callable[[Dict[str, object]], Optional[float]] = aggregate_speedup_of,
    tolerance: Optional[float] = None,
) -> int:
    """The shared tail of every throughput benchmark: gate, then record.

    *record* is the fully-measured baseline record (bit-identity must already
    have been verified by the caller — a wrong-but-fast engine never reaches
    this point).  With ``check=True`` the measured speedup is compared
    against the latest committed history record: a configuration-field
    mismatch fails immediately (speedups are only comparable for identical
    measurement configurations), and the floor is the committed speedup minus
    *tolerance* (default :data:`REGRESSION_TOLERANCE`), never below
    *speedup_floor* when one is given.  A tighter explicit *tolerance* is how
    CI gates near-zero overhead claims — e.g. ``--tolerance 0.02`` on the
    transient bench bounds the disabled-telemetry cost of the instrumented
    checkpoint hot path at 2%.  Baselines whose committed speedup is ``null`` (e.g.
    the campaign bench on a single-CPU recorder) skip the ratio comparison.

    Returns a process exit code; unless ``no_write`` is set, the measured
    record is appended to the baseline history.
    """
    baseline_path = Path(baseline_path)
    if tolerance is None:
        tolerance = REGRESSION_TOLERANCE
    status = 0
    if check:
        if not baseline_path.exists():
            print(f"ERROR: --check requires a committed baseline at {baseline_path}")
            return 1
        committed = latest_record(baseline_path)
        if committed is None:
            print(f"ERROR: baseline history at {baseline_path} is empty")
            return 1
        for field in config_fields:
            if record.get(field) != committed.get(field):
                print(f"ERROR: --check configuration mismatch on {field!r}: "
                      f"measured {record.get(field)!r} vs baseline "
                      f"{committed.get(field)!r}; re-run with the baseline's "
                      f"configuration (or re-record the baseline)")
                return 1
        measured = speedup_of(record)
        reference = speedup_of(committed)
        if measured is None or reference is None:
            print("  check: no comparable speedup in the committed baseline "
                  "(configuration verified; ratio comparison skipped)")
        else:
            floor = reference * (1.0 - tolerance)
            if speedup_floor is not None:
                floor = max(floor, speedup_floor)
            print(f"  check: measured speedup {measured:.2f}x vs baseline "
                  f"{reference:.2f}x (floor {floor:.2f}x)")
            if measured < floor:
                print(f"ERROR: {regression_message} "
                      f"({tolerance:.0%} under the committed baseline"
                      + (f", never below {speedup_floor}x)" if speedup_floor
                         else ")"))
                return 1
            print("  check: ok")
    if no_write:
        print(json.dumps(record, indent=2))
    else:
        document = append_record(baseline_path, record)
        print(f"  baseline appended  : {baseline_path} "
              f"({len(document['history'])} record(s))")
    return status
