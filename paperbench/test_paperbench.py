"""Self-tests of the paper benchmark at tiny sizes.

Run from the repository root with ``python -m pytest paperbench``.  The
directory is not a tier-1 test path, so these never slow the main suite.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from paperbench.bench import END_TO_END_UNITS, PER_LAYER_UNITS, run_benchmark
from paperbench.campaigns import WORKLOADS, run_rep
from paperbench.expected import record_expected
from paperbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 2015


def tiny(name):
    return WORKLOADS[name].resized(sample_size=2, transient_windows=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_end_to_end(name, tmp_path):
    result = run_benchmark(tiny(name), SEED, 0.0, False, str(tmp_path))
    assert result.correct, result.notes
    assert result.failed == 0
    assert result.attempted > 0
    assert set(result.metrics) == set(END_TO_END_UNITS)
    assert all(value > 0 for value, _unit in result.metrics.values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = run_benchmark(tiny("seu-transient"), SEED, 0.0, True, str(tmp_path))
    assert result.correct, result.notes
    assert set(result.metrics) == set(PER_LAYER_UNITS)
    assert result.metrics["checkpoint.fork_rtl_n"][0] > 0
    assert 0.0 <= result.metrics["trace.unattributed_frac"][0] <= 1.0


def test_metric_names_and_units():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {"end_to_end": END_TO_END_UNITS, "per_layer": PER_LAYER_UNITS}
    for group, units in groups.items():
        listed = {metric["name"]: metric["unit"] for metric in declared[group]}
        assert listed == units
        for name, unit in units.items():
            assert NAME.match(name) and len(name) <= 64, name
            assert UNIT.match(unit), (name, unit)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_tampered_expected_outputs_fail_the_run(tmp_path):
    workload = tiny("iu-permanent")
    expected = record_expected([workload], [SEED], str(tmp_path))
    assert run_benchmark(workload, SEED, 0.0, False, str(tmp_path), expected).correct

    tampered = copy.deepcopy(expected)
    cells = tampered["seeds"][str(SEED)][workload.name]["histograms"]
    model = next(iter(cells.values()))
    counts = next(iter(model.values()))
    cls = next(iter(counts))
    counts[cls] -= 1
    counts["hang"] = counts.get("hang", 0) + 1
    result = run_benchmark(workload, SEED, 0.0, False, str(tmp_path), tampered)
    assert not result.correct
    assert result.failed > 0

    resized = copy.deepcopy(expected)
    resized["seeds"][str(SEED)][workload.name]["config"]["sample_size"] += 1
    assert not run_benchmark(workload, SEED, 0.0, False, str(tmp_path), resized).correct


@pytest.mark.parametrize("name", ["iu-permanent", "cmem-permanent-pool"])
def test_layer_self_times_never_sum_past_the_traced_wall(name, tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        with tracer.span("bench.rep"):
            run_rep(tiny(name), SEED, str(tmp_path / "store.sqlite"))
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    root = next(span for span in spans if span.name == "bench.rep")
    layers = [span for span in spans if span is not root and not span.worker]
    assert all(span.self_seconds >= 0 for span in spans)
    assert sum(span.self_seconds for span in layers) <= root.seconds
    names = {span.name for span in spans}
    assert {"schedulers.execute", "comparison.classify", "store.commit"} <= names


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "paperbench", tmp_path / "paperbench")
    completed = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "iu-permanent"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
