"""Optional JSONL event log and Chrome-trace-event export.

When tracing is requested (``CampaignConfig.trace_path`` / ``repro campaign
run --trace``), every enabled span — scheduler execution, pack runs,
checkpoint capture/fork/splice, store commits — appends one JSON line to a
sidecar file next to the requested path.  Each process writes its *own*
sidecar (``<path>.<pid>``): workers in the multiprocessing pool cannot share
a file handle with the parent, and per-PID files need no locking.  The
exporter then merges every sidecar into a single Chrome trace event file
(the JSON array format Perfetto and ``chrome://tracing`` load directly).

Event lines are flat dicts::

    {"name": "scheduler.execute", "ts": 12.301, "dur": 0.0042,
     "pid": 4711, "args": {"scheduler": "serial"}}

``ts`` is ``time.perf_counter()`` at span entry, ``dur`` the span length,
both in seconds; the exporter converts to the microseconds Chrome expects.
``perf_counter`` has an arbitrary per-process epoch, so the writer stamps a
``clock_sync`` line pairing ``time.time()`` with ``perf_counter`` at open,
and the exporter rebases every process onto the shared wall clock.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.clock import wallclock

__all__ = ["EventLog", "sidecar_paths", "export_chrome_trace"]


class EventLog:
    """Append-only JSONL event writer for one process.

    Installed as ``TELEMETRY.events``; spans call :meth:`emit_span` on close.
    The file is opened lazily on the first event so an enabled-but-idle log
    costs nothing, and buffered writes are flushed on :meth:`close`.
    """

    def __init__(self, path: str) -> None:
        #: The requested base path; this process appends to ``path.<pid>``.
        self.path = path
        self._handle: Optional[TextIO] = None

    def _open(self) -> TextIO:
        handle = open(f"{self.path}.{os.getpid()}", "a", encoding="utf-8")
        sync = {
            "name": "clock_sync",
            "wall_time": wallclock(),
            "perf_counter": time.perf_counter(),
            "pid": os.getpid(),
        }
        handle.write(json.dumps(sync) + "\n")
        return handle

    def emit_span(
        self,
        name: str,
        start: float,
        seconds: float,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        if self._handle is None:
            self._handle = self._open()
        event: Dict[str, Any] = {
            "name": name,
            "ts": start,
            "dur": seconds,
            "pid": os.getpid(),
        }
        if labels:
            event["args"] = dict(labels)
        self._handle.write(json.dumps(event) + "\n")

    def emit_instant(
        self, name: str, labels: Optional[Dict[str, object]] = None
    ) -> None:
        """A zero-duration marker (checkpoint splice, store commit point)."""
        self.emit_span(name, time.perf_counter(), 0.0, labels)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def sidecar_paths(path: str) -> List[str]:
    """Every per-PID sidecar written for trace base *path*, sorted."""
    return sorted(glob.glob(f"{glob.escape(path)}.*"))


def _load_events(sidecar: str) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    with open(sidecar, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def export_chrome_trace(
    trace_path: str,
    out_path: str,
    process_names: Optional[Dict[int, str]] = None,
) -> int:
    """Merge the sidecars of *trace_path* into one Chrome trace event file.

    Emits complete ("ph": "X") events with microsecond timestamps rebased
    onto the wall clock via each sidecar's ``clock_sync`` line, plus
    ``process_name`` metadata so Perfetto labels worker rows.  Returns the
    number of span events written; raises ``FileNotFoundError`` when no
    sidecar exists for *trace_path*.
    """
    sidecars = sidecar_paths(trace_path)
    if not sidecars:
        raise FileNotFoundError(f"no trace sidecars found for {trace_path!r}")

    trace_events: List[Dict[str, Any]] = []
    pids: List[int] = []
    count = 0
    for sidecar in sidecars:
        offset = None
        for event in _load_events(sidecar):
            if event.get("name") == "clock_sync":
                offset = event["wall_time"] - event["perf_counter"]
                continue
            if offset is None:
                # Sidecar truncated before its sync line; skip unanchored
                # events rather than misplace them on the timeline.
                continue
            pid = event.get("pid", 0)
            if pid not in pids:
                pids.append(pid)
            trace_events.append(
                {
                    "name": event["name"],
                    "cat": event["name"].split(".", 1)[0],
                    "ph": "X",
                    "ts": (event["ts"] + offset) * 1e6,
                    "dur": event["dur"] * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": event.get("args", {}),
                }
            )
            count += 1

    trace_events.sort(key=lambda event: float(event["ts"]))
    metadata: List[Dict[str, Any]] = []
    for index, pid in enumerate(sorted(pids)):
        if process_names and pid in process_names:
            label = process_names[pid]
        else:
            label = "campaign" if index == 0 else f"worker-{index}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": label},
            }
        )

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": metadata + trace_events}, handle)
    return count
