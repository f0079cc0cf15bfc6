"""The shared benchmark-harness tail: append-only histories and the CI gate.

``bench_utils`` is what every ``bench_*_throughput.py`` script delegates its
baseline handling to, so its behaviour is contract: flat pre-history
snapshots must keep loading (migrated to single-entry histories), recording
must append instead of overwrite, and ``--check`` must compare against the
*latest* record with the shared regression tolerance and optional floor.
"""

import json

from bench_utils import (
    REGRESSION_TOLERANCE,
    aggregate_speedup_of,
    append_record,
    latest_record,
    load_history,
    run_gated_benchmark,
    stamp,
)


def _record(speedup, **extra):
    return {
        "benchmark": "unit",
        "width": 4,
        **stamp(),
        "aggregate": {"speedup": speedup},
        **extra,
    }


class TestHistories:
    def test_flat_snapshot_migrates_on_load(self, tmp_path):
        """A pre-history baseline (top level *is* the record) loads as a
        single-entry history."""
        path = tmp_path / "BENCH_unit.json"
        flat = _record(2.5)
        path.write_text(json.dumps(flat))
        document = load_history(path)
        assert document["benchmark"] == "unit"
        assert document["history"] == [flat]
        assert latest_record(path) == flat

    def test_append_creates_then_extends(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(2.0))
        document = append_record(path, _record(3.0))
        assert [r["aggregate"]["speedup"] for r in document["history"]] == [2.0, 3.0]
        on_disk = json.loads(path.read_text())
        assert on_disk == document
        assert latest_record(path)["aggregate"]["speedup"] == 3.0

    def test_append_migrates_a_flat_snapshot(self, tmp_path):
        """The first append after the format change rewrites a flat snapshot
        in history form without losing the old record."""
        path = tmp_path / "BENCH_unit.json"
        path.write_text(json.dumps(_record(2.0)))
        document = append_record(path, _record(3.0))
        assert [r["aggregate"]["speedup"] for r in document["history"]] == [2.0, 3.0]
        assert isinstance(json.loads(path.read_text())["history"], list)

    def test_aggregate_speedup_extractor(self):
        assert aggregate_speedup_of(_record(2.5)) == 2.5
        # The campaign bench carries a top-level speedup instead.
        assert aggregate_speedup_of({"speedup": 1.5}) == 1.5
        assert aggregate_speedup_of({"speedup": None}) is None
        assert aggregate_speedup_of({"aggregate": {"speedup": None}}) is None


class TestGate:
    def test_records_unless_no_write(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        assert run_gated_benchmark(path, _record(2.0), ("width",)) == 0
        assert run_gated_benchmark(
            path, _record(9.0), ("width",), no_write=True
        ) == 0
        assert [r["aggregate"]["speedup"] for r in load_history(path)["history"]] == [
            2.0
        ]

    def test_check_requires_a_baseline(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        assert run_gated_benchmark(
            path, _record(2.0), ("width",), check=True, no_write=True
        ) == 1

    def test_check_compares_against_the_latest_record(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(10.0))
        append_record(path, _record(2.0))
        # 1.9x would regress against the first record but is within the
        # tolerance of the latest one.
        assert run_gated_benchmark(
            path, _record(1.9), ("width",), check=True, no_write=True
        ) == 0

    def test_check_fails_on_regression(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(4.0))
        floor = 4.0 * (1.0 - REGRESSION_TOLERANCE)
        assert run_gated_benchmark(
            path, _record(floor - 0.1), ("width",), check=True, no_write=True
        ) == 1
        assert run_gated_benchmark(
            path, _record(floor + 0.1), ("width",), check=True, no_write=True
        ) == 0

    def test_check_enforces_the_hard_floor(self, tmp_path):
        """The hard floor (e.g. the RTL and transient benches'): never below
        it, even when the committed baseline would tolerate it."""
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(3.2))
        assert run_gated_benchmark(
            path, _record(2.9), ("width",), check=True, no_write=True,
            speedup_floor=3.0,
        ) == 1

    def test_check_fails_on_configuration_mismatch(self, tmp_path):
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(4.0))
        mismatched = _record(4.0)
        mismatched["width"] = 8
        assert run_gated_benchmark(
            path, mismatched, ("width",), check=True, no_write=True
        ) == 1

    def test_check_skips_ratio_on_null_speedup(self, tmp_path):
        """A baseline recorded on a single-CPU machine (null speedup) still
        verifies the configuration but cannot gate the ratio."""
        path = tmp_path / "BENCH_unit.json"
        append_record(path, _record(None))
        assert run_gated_benchmark(
            path, _record(5.0), ("width",), check=True, no_write=True
        ) == 0
