#!/usr/bin/env python3
"""Render the throughput trajectory to ``docs/perf_history.md``.

The ``BENCH_*.json`` baselines are append-only histories: every recording
run of a ``bench_*_throughput.py`` script appends a dated record instead of
overwriting (see :mod:`bench_utils`).  This generator reads every history
next to the repo root and emits one markdown table per benchmark layer —
the per-PR throughput trajectory that used to be recoverable only from git
archaeology:

    python benchmarks/gen_perf_history.py            # rewrite docs/perf_history.md
    python benchmarks/gen_perf_history.py --stdout   # print instead

Beyond raw throughput, the transient history also carries the *dynamics*
that explain it — how often the checkpointed runtime took the
early-convergence exit — so the generator renders a campaign-dynamics table
for it too.  Pass ``--manifest run-manifest.json`` (the output of
``repro campaign metrics --json``, see :mod:`repro.obs`) to additionally
fold one stored run manifest's headline metrics (cache-hit ratio, splice
rate) into the page.

Speedup ratios are machine-portable; the absolute rates carry the recording
machine's ``cpu_count``/``python`` stamp and are context only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import load_history  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "docs" / "perf_history.md"

#: Rendering spec per benchmark layer: history file, the two legs compared,
#: and how to pull each leg's rate out of a record.  Listed bottom-up, the
#: same order docs/performance.md walks the stack.
LAYERS = (
    ("ISS interpreter", "BENCH_iss_throughput.json",
     "instructions/s", "reference", "fast path",
     lambda r: r["aggregate"]["reference_instructions_per_second"],
     lambda r: r["aggregate"]["fast_instructions_per_second"]),
    ("RTL injection", "BENCH_rtl_throughput.json",
     "injections/s", "reference core", "fast engine",
     lambda r: r["aggregate"]["reference_injections_per_second"],
     lambda r: r["aggregate"]["fast_injections_per_second"]),
    ("Transient runtime", "BENCH_transient_throughput.json",
     "injections/s", "from reset", "checkpointed",
     lambda r: r["aggregate"]["from_reset_injections_per_second"],
     lambda r: r["aggregate"]["checkpointed_injections_per_second"]),
    ("Campaign engine", "BENCH_campaign_throughput.json",
     "injections/s", "serial", "parallel",
     lambda r: r["serial"]["injections_per_second"],
     lambda r: (r.get("parallel") or {}).get("injections_per_second")),
)


def _ratio(numerator, denominator) -> str:
    return "—" if not denominator else f"{numerator / denominator:.1%}"


def _sum(rows, field) -> int:
    return sum(row.get(field, 0) for row in rows)


def _dynamics_sections() -> list:
    """Campaign-dynamics tables derived from the committed histories.

    The transient baseline records *why* each run was fast (early exits)
    next to how fast it was; rendered as a rate it forms the trend behind
    the checkpoint speedup — a falling splice rate erodes it long before
    the throughput gate trips.
    """
    lines = ["## Campaign dynamics", ""]
    transient = REPO_ROOT / "BENCH_transient_throughput.json"
    if transient.exists():
        lines += [
            "Checkpointed-runtime early exits per recorded run (the share of",
            "forks that converged back onto the golden ladder and spliced its",
            "tail instead of simulating to the horizon):",
            "",
            "| recorded at (UTC) | injections | early-exit splice rate |",
            "|---|---|---|",
        ]
        for record in load_history(transient)["history"]:
            rows = record.get("per_run", [])
            lines.append(
                "| {when} | {inj} | {rate} |".format(
                    when=record.get("recorded_at", "—"),
                    inj=_cell(_sum(rows, "injections")),
                    rate=_ratio(_sum(rows, "early_exits"),
                                _sum(rows, "injections")),
                )
            )
        lines.append("")
    return lines


def _manifest_section(path: Path) -> list:
    """Headline metrics of one stored run manifest (``repro campaign
    metrics --json`` output): cache-hit ratio and splice rate — the same
    derivations the CLI's human view prints."""
    import json

    manifest = json.loads(path.read_text())
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    lines = [
        f"## Latest run manifest (`{path.name}`)",
        "",
        f"Recorded {manifest.get('created_at', '—')}, wall clock "
        f"{manifest.get('wall_seconds', 0.0):.2f}s.",
        "",
        "| metric | value |",
        "|---|---|",
    ]
    hits = counters.get("store.cache_hits", 0)
    misses = counters.get("store.cache_misses", 0)
    lines.append(f"| cache-hit ratio | {_ratio(hits, hits + misses)} |")
    forks = counters.get("checkpoint.forks", 0)
    if forks:
        lines.append(
            f"| early-exit splice rate | "
            f"{_ratio(counters.get('checkpoint.early_exits', 0), forks)} |"
        )
    lines.append("")
    return lines


def _cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def _speedup(record) -> str:
    aggregate = record.get("aggregate")
    speedup = (aggregate or record).get("speedup")
    return "—" if speedup is None else f"{speedup:.2f}x"


def render(manifest_path: Path = None) -> str:
    lines = [
        "# Throughput history",
        "",
        "One table per measured layer, one row per recorded benchmark run —",
        "the `history` arrays of the `BENCH_*.json` baselines rendered in",
        "recording order (oldest first).  Regenerate with",
        "`python benchmarks/gen_perf_history.py` after recording a baseline;",
        "see [performance.md](performance.md) for what each layer measures",
        "and how the `--check` CI gates consume the latest record.",
        "",
        "Speedup ratios are the machine-portable trend metric.  Absolute",
        "rates depend on the recording machine (each row carries its CPU",
        "count and Python version) and are context only.",
        "",
    ]
    for (title, filename, unit, slow_label, fast_label,
         slow_rate, fast_rate) in LAYERS:
        path = REPO_ROOT / filename
        lines.append(f"## {title} (`{filename}`)")
        lines.append("")
        if not path.exists():
            lines.append("*No baseline recorded yet.*")
            lines.append("")
            continue
        history = load_history(path)["history"]
        lines.append(f"| recorded at (UTC) | {slow_label} ({unit}) "
                     f"| {fast_label} ({unit}) | speedup | cpus | python |")
        lines.append("|---|---|---|---|---|---|")
        for record in history:
            lines.append(
                "| {when} | {slow} | {fast} | {speedup} | {cpus} | {py} |".format(
                    when=record.get("recorded_at", "—"),
                    slow=_cell(slow_rate(record)),
                    fast=_cell(fast_rate(record)),
                    speedup=_speedup(record),
                    cpus=_cell(record.get("cpu_count")),
                    py=record.get("python", "—"),
                )
            )
        lines.append("")
    lines.extend(_dynamics_sections())
    if manifest_path is not None:
        lines.extend(_manifest_section(manifest_path))
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stdout", action="store_true",
                        help="print the rendered markdown instead of writing "
                             "docs/perf_history.md")
    parser.add_argument("--manifest", type=Path, default=None, metavar="JSON",
                        help="also fold one run manifest's headline metrics "
                             "(cache-hit ratio, demotion rate, splice rate) "
                             "into the page; expects the output of "
                             "`repro campaign metrics --json`")
    args = parser.parse_args()
    text = render(args.manifest)
    if args.stdout:
        print(text, end="")
    else:
        OUTPUT_PATH.write_text(text)
        print(f"wrote {OUTPUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
