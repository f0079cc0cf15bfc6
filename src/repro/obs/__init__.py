"""Observability for the fault-injection stack: metrics, spans, traces.

``repro.obs`` is the zero-dependency telemetry layer the campaign engine,
checkpoint ladder and result store all report into.
:mod:`repro.obs.telemetry` holds the process-local registry — counters,
gauges, power-of-two-bucketed histograms and span timers with picklable
snapshot/merge semantics so the multiprocessing scheduler ships worker
metrics home with each result batch.  :mod:`repro.obs.events` adds the
optional JSONL event log and the Chrome-trace-event exporter that turns a
campaign run into a Perfetto-loadable timeline.  Telemetry is disabled by
default and the instrumented hot loops fold their counts in at job
boundaries, so the disabled path costs nothing measurable.
"""

from repro.obs.clock import utc_isoformat, wallclock
from repro.obs.events import EventLog, export_chrome_trace, sidecar_paths
from repro.obs.telemetry import (
    TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    Span,
    TelemetryRegistry,
    get_registry,
    series_name,
    split_series_name,
)

__all__ = [
    "TELEMETRY",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "Span",
    "TelemetryRegistry",
    "export_chrome_trace",
    "get_registry",
    "series_name",
    "sidecar_paths",
    "split_series_name",
    "utc_isoformat",
    "wallclock",
]
