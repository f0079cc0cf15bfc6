"""Recording of the committed outcome-class histograms (``expected.json``)."""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable

from paperbench.campaigns import Workload, run_rep


def record_expected(
    workloads: Iterable[Workload], seeds: Iterable[int], work_dir: str
) -> Dict[str, Any]:
    """Run every workload once per seed on the serial scheduler and return
    its histograms, keyed by seed and workload, beside the configuration
    they were recorded for."""
    workloads = list(workloads)
    recorded: Dict[str, Any] = {}
    for seed in seeds:
        per_workload = recorded.setdefault(str(seed), {})
        for workload in workloads:
            store_path = os.path.join(work_dir, f"expected-{seed}-{workload.name}.sqlite")
            rep = run_rep(workload, seed, store_path, serial=True)
            per_workload[workload.name] = {
                "config": workload.fingerprint(),
                "histograms": rep.histograms(),
            }
    return {"seeds": recorded}
