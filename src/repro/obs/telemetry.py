"""Process-local metrics: counters, gauges, histograms and span timers.

The registry is the substrate every layer of the fault-injection stack
reports into: the campaign engine (jobs planned/executed/memoized, outcome
classes), the checkpoint ladder (fork-rung distances, splice rates), golden
acquisition (the ``golden`` span and the ``golden.cache.hit`` /
``golden.cache.miss`` counters of the artifact cache, which are how the
zero-golden-execution warm-start claim is *proven* rather than assumed)
and the store (cache hits, commit latency).  Three properties shape the
design:

* **Zero dependencies, near-zero disabled cost.**  Everything is stdlib.
  The registry starts *disabled*; hot loops either keep their plain integer
  attributes and fold deltas into the registry at pack/job boundaries, or
  guard individual records behind one ``enabled`` check.  A disabled
  registry records nothing and allocates nothing.

* **Picklable snapshot/merge semantics.**  :meth:`TelemetryRegistry.snapshot`
  reduces the registry to plain dicts of numbers, and
  :meth:`TelemetryRegistry.merge` folds such a snapshot back in additively.
  That is exactly what the multiprocessing scheduler needs: each worker
  snapshots (and resets) its registry per result batch and ships the delta
  home with the outcome records, so worker metrics are no longer dropped on
  the pool floor.  Counter and histogram merges are order-transparent, which
  is why serial and process schedulers produce equal values for the same
  plan (``tests/test_obs.py`` enforces it; span *timings* are wall clock and
  excluded from that equality).

* **One clock path.**  :meth:`TelemetryRegistry.span` always measures
  (two ``perf_counter`` calls, the same cost the hand-rolled timing pairs it
  replaced paid) and only *records* when the registry is enabled, so
  ``OutcomeRecord.seconds`` and the scheduler totals come from the same
  timer whether telemetry is on or off.

Metric names are dotted paths; labels are canonicalised into the name as
``name{key=value,...}`` with sorted keys, so the same (name, labels) pair
always addresses the same series.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.obs.events import EventLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "TelemetryRegistry",
    "TELEMETRY",
    "get_registry",
    "series_name",
    "split_series_name",
]

#: Upper bound of the largest finite histogram bucket; observations above it
#: land in the overflow bucket keyed ``"inf"``.
_MAX_BUCKET = 1 << 62


def series_name(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` with sorted keys."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


def split_series_name(series: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`series_name`: ``(base name, {label: value})``."""
    if not series.endswith("}") or "{" not in series:
        return series, {}
    base, _, raw = series.partition("{")
    labels: Dict[str, str] = {}
    for pair in raw[:-1].split(","):
        key, _, value = pair.partition("=")
        labels[key] = value
    return base, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written value (ladder rung counts, pack widths in flight)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


def bucket_bound(value: float) -> Union[int, str]:
    """The power-of-two upper bound bucket *value* falls into.

    Buckets are ``value <= 2**k`` for the smallest such ``k`` (``0`` has its
    own bucket); the bound is the bucket key, so merged histograms from any
    number of workers bucket identically.  Values beyond :data:`_MAX_BUCKET`
    (and non-finite values) land in the ``"inf"`` overflow bucket.
    """
    if value <= 0:
        return 0
    bound = 1
    while bound < value:
        bound <<= 1
        if bound > _MAX_BUCKET:
            return "inf"
    return bound


class Histogram:
    """A distribution: count/sum/min/max plus power-of-two buckets.

    Bucketed rather than exact so high-cardinality observations (fork-rung
    distances in instructions, commit latencies) stay bounded, while the
    bucket dict still merges deterministically across workers.  ``observe``
    accepts ints and floats; sums stay exact for ints.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[Union[int, str], int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bound = bucket_bound(value)
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            # JSON round-trips dict keys as strings; canonicalise here so a
            # snapshot equals its own store round-trip.
            "buckets": {str(bound): n for bound, n in sorted(
                self.buckets.items(), key=lambda item: str(item[0])
            )},
        }

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        count = payload["count"]
        if not count:
            return
        self.count += count
        self.total += payload["total"]
        for edge in ("min", "max"):
            value = payload[edge]
            current = getattr(self, edge)
            if current is None:
                setattr(self, edge, value)
            elif edge == "min":
                self.min = min(current, value)
            else:
                self.max = max(current, value)
        for bound, n in payload["buckets"].items():
            # Snapshots stringify bucket keys for JSON; fold them back to the
            # native int bounds so a merged bucket coalesces with locally
            # observed values instead of splitting across 8 and "8".
            if isinstance(bound, str) and bound != "inf":
                bound = int(bound)
            self.buckets[bound] = self.buckets.get(bound, 0) + n


class Span:
    """A timed scope: ``with registry.span("scheduler.execute"): ...``.

    Always measures (the enter/exit ``perf_counter`` pair is the one clock
    path ``OutcomeRecord.seconds`` and the scheduler totals share); records
    a ``<name>.seconds`` histogram observation and an optional trace event
    only when the registry is enabled at exit.
    """

    __slots__ = ("registry", "name", "labels", "start", "seconds")

    def __init__(
        self,
        registry: "TelemetryRegistry",
        name: str,
        labels: Optional[Dict[str, object]],
    ) -> None:
        self.registry = registry
        self.name = name
        self.labels = labels
        self.start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def elapsed(self) -> float:
        """Seconds since entry, on the span's own clock (readable
        mid-flight — the engine attributes overhead from it before the
        span closes)."""
        return time.perf_counter() - self.start

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self.start
        registry = self.registry
        if registry.enabled:
            registry.histogram(
                f"{self.name}.seconds", self.labels
            ).observe(self.seconds)
            events = registry.events
            if events is not None:
                events.emit_span(
                    self.name, self.start, self.seconds, self.labels
                )


class TelemetryRegistry:
    """Process-local registry of named metric series.

    One instance per process (the module-level :data:`TELEMETRY`); worker
    processes ship their deltas home via ``snapshot(reset=True)`` + ``merge``.
    """

    def __init__(self) -> None:
        self.enabled = False
        #: Optional :class:`repro.obs.events.EventLog` spans also emit into.
        self.events: Optional[EventLog] = None
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- series access -----------------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> Counter:
        key = series_name(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> Gauge:
        key = series_name(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def histogram(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> Histogram:
        key = series_name(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        return histogram

    def span(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> Span:
        return Span(self, name, labels)

    # -- convenience recorders (guarded by ``enabled`` at the call site or here) --

    def inc(
        self,
        name: str,
        amount: float = 1,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.enabled:
            self.counter(name, labels).inc(amount)

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.enabled:
            self.histogram(name, labels).observe(value)

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.enabled:
            self.gauge(name, labels).set(value)

    # -- lifecycle ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded series (the enabled flag is unchanged)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- snapshot / merge --------------------------------------------------------

    def snapshot(self, reset: bool = False) -> Dict[str, Any]:
        """Reduce the registry to a picklable/JSON-able plain-dict payload.

        With ``reset=True`` the registry is cleared afterwards, so successive
        snapshots are disjoint deltas — the per-batch shipping mode of the
        multiprocessing scheduler.
        """
        payload = {
            "counters": {
                key: counter.value for key, counter in self._counters.items()
            },
            "gauges": {key: gauge.value for key, gauge in self._gauges.items()},
            "histograms": {
                key: histogram.to_dict()
                for key, histogram in self._histograms.items()
            },
        }
        if reset:
            self.reset()
        return payload

    def merge(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` payload in: counters and histograms add,
        gauges take the incoming value (last write wins)."""
        if not payload:
            return
        for key, value in payload.get("counters", {}).items():
            self.counter(key).inc(value)
        for key, value in payload.get("gauges", {}).items():
            self.gauge(key).set(value)
        for key, data in payload.get("histograms", {}).items():
            self.histogram(key).merge_dict(data)


#: The process-local registry every instrumented layer reports into.
TELEMETRY = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The process-local registry (one per process, workers included)."""
    return TELEMETRY
