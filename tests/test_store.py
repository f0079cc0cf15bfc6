"""Tests for the campaign result store (persistence, resume, cache hits, CLI).

The two acceptance properties of the subsystem live here:

* a campaign killed mid-run and resumed produces per-model ``Pf`` breakdowns
  (and outcome lists) **bit-identical** to the same campaign run
  uninterrupted, and
* a second invocation of a store-backed campaign (or figure driver) with an
  unchanged key executes **zero** new injections — observable through the
  store's persistent counters.
"""

import dataclasses
import json

import pytest

from conftest import SMALL_PROGRAM_SOURCE

from repro.core.experiments import figure5_iu_faults, table1_characterization
from repro.engine import CampaignConfig, CampaignEngine, IssBackend, Leon3RtlBackend
from repro.engine.checkpoint import IssCheckpointRunner, RtlCheckpointRunner
from repro.isa.assembler import assemble
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel
from repro.store import CampaignStore, StoreError, campaign_key, memo_key
from repro.store.cli import main as cli_main


@pytest.fixture(scope="module")
def small_program():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "campaigns.sqlite")


def _config(store_path=None, **overrides):
    defaults = {
        "unit_scope": "iu",
        "sample_size": 4,
        "fault_models": [FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0],
        "seed": 11,
        "store_path": store_path,
    }
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _assert_identical(expected, actual):
    assert expected.keys() == actual.keys()
    for model in expected:
        assert expected[model].outcomes == actual[model].outcomes
        assert (
            expected[model].failure_probability
            == actual[model].failure_probability
        )
        assert (
            expected[model].classification_histogram()
            == actual[model].classification_histogram()
        )
        assert expected[model].golden_instructions == actual[model].golden_instructions
        assert expected[model].golden_cycles == actual[model].golden_cycles


class Interrupted(Exception):
    """Stand-in for a mid-campaign crash/SIGINT raised from the progress hook."""


def _interrupt_after(n):
    def progress(done, total, outcome):
        if done >= n:
            raise Interrupted(f"killed after {done}/{total}")

    return progress


class TestConfigValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            CampaignConfig(n_workers=0)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            CampaignConfig(n_workers=-2)

    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            CampaignConfig(scheduler="threads")

    def test_rejects_zero_sample_size(self):
        with pytest.raises(ValueError, match="sample_size"):
            CampaignConfig(sample_size=0)

    def test_rejects_empty_fault_models(self):
        with pytest.raises(ValueError, match="fault_models"):
            CampaignConfig(fault_models=[])

    def test_accepts_valid_config(self):
        config = CampaignConfig(
            n_workers=4, scheduler="process", sample_size=None
        )
        assert config.n_workers == 4


class TestKeys:
    def _key(self, program, **overrides):
        params = {
            "sites": [],
            "fault_models": list(ALL_FAULT_MODELS),
            "seed": 11,
            "backend_id": "rtl:repro.engine.backend.Leon3RtlBackend",
            "unit_scope": "iu",
            "sample_size": 4,
            "max_instructions": 400_000,
        }
        params.update(overrides)
        return campaign_key(program=program, **params)

    def test_key_is_deterministic(self, small_program):
        assert self._key(small_program) == self._key(small_program)

    def test_key_ignores_program_name(self, small_program):
        renamed = dataclasses.replace(small_program, name="other")
        assert self._key(small_program) == self._key(renamed)

    def test_key_sensitive_to_every_result_relevant_input(self, small_program):
        base = self._key(small_program)
        assert self._key(small_program, seed=12) != base
        assert self._key(small_program, unit_scope="cmem") != base
        assert self._key(small_program, max_instructions=100) != base
        assert (
            self._key(small_program, fault_models=[FaultModel.STUCK_AT_1]) != base
        )
        assert self._key(small_program, backend_id="iss:x.IssBackend") != base
        changed = dataclasses.replace(
            small_program, text=list(small_program.text) + [0]
        )
        assert self._key(changed) != base

    def test_memo_key_distinguishes_kind_and_payload(self):
        assert memo_key("table1", {"a": 1}) != memo_key("table1", {"a": 2})
        assert memo_key("table1", {"a": 1}) != memo_key("simtime", {"a": 1})


class TestStoreRoundTrip:
    def test_outcomes_round_trip_bit_identically(self, small_program, store_path):
        results = CampaignEngine(small_program, _config(store_path)).run()
        with CampaignStore(store_path) as store:
            (info,) = store.list_campaigns()
            assert info.complete
            assert info.done_jobs == info.total_jobs == 8
            records = store.stored_records(info.key)
        outcomes = [record.to_outcome() for record in records]
        flattened = (
            results[FaultModel.STUCK_AT_1].outcomes
            + results[FaultModel.STUCK_AT_0].outcomes
        )
        assert outcomes == flattened

    def test_resolve_key_prefix(self, small_program, store_path):
        CampaignEngine(small_program, _config(store_path)).run()
        with CampaignStore(store_path) as store:
            (info,) = store.list_campaigns()
            assert store.resolve_key(info.key[:8]) == info.key
            with pytest.raises(StoreError):
                store.resolve_key("zz")


def _count_golden_executions(monkeypatch):
    """Count every fault-free execution from here on: plain golden runs of
    either backend, read-summary recordings of the fast RTL engine and
    checkpoint-ladder recordings."""
    executions = []
    for backend in (Leon3RtlBackend, IssBackend):

        def run(self, max_instructions, faults=(), _run=backend.run):
            faults = list(faults)
            if not faults:
                executions.append(self.name)
            return _run(self, max_instructions=max_instructions, faults=faults)

        monkeypatch.setattr(backend, "run", run)

    def golden_with_reads(
        self, max_instructions, _record=Leon3RtlBackend.golden_with_reads
    ):
        executions.append("reads")
        return _record(self, max_instructions)

    monkeypatch.setattr(Leon3RtlBackend, "golden_with_reads", golden_with_reads)
    for runner in (IssCheckpointRunner, RtlCheckpointRunner):

        def record(self, _record=runner._record_ladder):
            executions.append("ladder")
            return _record(self)

        monkeypatch.setattr(runner, "_record_ladder", record)
    return executions


#: (backend factory, config) of every campaign flavour the store keys.
KEYED_CAMPAIGNS = {
    "rtl-permanent-iu": (Leon3RtlBackend, {"unit_scope": "iu", "sample_size": 4}),
    "rtl-transient": (
        Leon3RtlBackend,
        {"unit_scope": "iu", "sample_size": 3, "transient_windows": 2},
    ),
    "iss-transient": (
        IssBackend,
        {"unit_scope": "arch.regfile", "sample_size": 3, "transient_windows": 2},
    ),
    "rtl-shard-1-of-3": (
        Leon3RtlBackend,
        {"unit_scope": "iu", "sample_size": 4, "shards": 3, "shard_index": 1},
    ),
}


class TestKeyParity:
    """``run()`` commits under exactly the key ``store_key()`` reports —
    before or after the run — and reading it back costs no second golden."""

    @pytest.mark.parametrize("name", list(KEYED_CAMPAIGNS))
    def test_run_commits_under_store_key(
        self, name, small_program, store_path, monkeypatch
    ):
        factory, overrides = KEYED_CAMPAIGNS[name]
        config = CampaignConfig(seed=5, **overrides)
        before = CampaignEngine(
            small_program, config, backend_factory=factory
        ).store_key()
        executions = _count_golden_executions(monkeypatch)
        engine = CampaignEngine(small_program, config, backend_factory=factory)
        with CampaignStore(store_path) as store:
            engine.run(store=store)
            assert len(executions) == 1
            after = engine.store_key()
            assert len(executions) == 1
            assert [info.key for info in store.list_campaigns()] == [before]
        assert after == before


class TestStoredRowCompatibility:
    """The campaign row is written exactly as earlier stores hold it, so
    their campaigns keep serving cache hits and resuming through the CLI."""

    ROWS = {
        "permanent": (
            Leon3RtlBackend,
            {
                "unit_scope": "iu",
                "sample_size": 4,
                "fault_models": [FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0],
                "seed": 11,
            },
            "2f2a582e1092b6c319d5942943745d3835d39796d15493a1237634485ca4044b",
            '{"backend": "rtl", "fault_models": ["stuck_at_1", "stuck_at_0"], '
            '"max_instructions": 400000, "sample_size": 4, "seed": 11, '
            '"unit_scope": "iu", "workload": "small"}',
            8,
        ),
        "transient": (
            IssBackend,
            {
                "unit_scope": "arch.regfile",
                "sample_size": 3,
                "seed": 5,
                "transient_windows": 2,
            },
            "4f1564c8f73f8a21ffb610488c4f89d82879c1c9de133e7b17fc725e056dc96a",
            '{"backend": "iss", "fault_models": ["transient"], '
            '"max_instructions": 400000, "sample_size": 3, "seed": 5, '
            '"transient": {"duration": 1, "unit": "instructions", "windows": 2}, '
            '"unit_scope": "arch.regfile", "workload": "small"}',
            6,
        ),
    }

    @pytest.mark.parametrize("name", list(ROWS))
    def test_row_bytes_are_pinned(self, name, small_program, store_path):
        factory, overrides, key, config_json, total_jobs = self.ROWS[name]
        config = CampaignConfig(**overrides)
        engine = CampaignEngine(small_program, config, backend_factory=factory)
        with CampaignStore(store_path) as store:
            engine.run(store=store)
            row = store._conn.execute(
                "SELECT * FROM campaigns WHERE key = ?", (key,)
            ).fetchone()
        assert row is not None
        assert row["config_json"] == config_json
        assert row["total_jobs"] == total_jobs
        stored = json.loads(config_json)
        assert row["workload"] == stored["workload"]
        assert row["unit_scope"] == stored["unit_scope"]
        assert row["backend"] == stored["backend"]
        assert row["seed"] == stored["seed"]
        assert row["sample_size"] == stored["sample_size"]
        assert row["max_instructions"] == stored["max_instructions"]
        assert json.loads(row["fault_models"]) == stored["fault_models"]
        # The row rebuilds the campaign it was written from.
        assert CampaignConfig.from_row(stored) == config


class TestResume:
    def test_interrupted_then_resumed_is_bit_identical(
        self, small_program, store_path
    ):
        baseline = CampaignEngine(small_program, _config()).run()

        engine = CampaignEngine(small_program, _config(store_path))
        with pytest.raises(Interrupted):
            engine.run(progress=_interrupt_after(3))
        with CampaignStore(store_path) as store:
            (info,) = store.list_campaigns()
            assert info.status == "running"
            assert 0 < info.done_jobs < info.total_jobs
            assert store.counters()["jobs_executed"] == info.done_jobs

        resumed = CampaignEngine(small_program, _config(store_path)).run()
        _assert_identical(baseline, resumed)

        # Every injection executed exactly once across interrupt + resume.
        with CampaignStore(store_path) as store:
            assert store.counters()["jobs_executed"] == 8
            (info,) = store.list_campaigns()
            assert info.complete

    def test_interrupted_parallel_resumed_serial_is_bit_identical(
        self, small_program, store_path
    ):
        baseline = CampaignEngine(small_program, _config()).run()
        engine = CampaignEngine(
            small_program, _config(store_path, n_workers=2)
        )
        with pytest.raises(Interrupted):
            engine.run(progress=_interrupt_after(3))
        resumed = CampaignEngine(small_program, _config(store_path)).run()
        _assert_identical(baseline, resumed)

    def test_progress_streams_cached_and_fresh_jobs(self, small_program, store_path):
        engine = CampaignEngine(small_program, _config(store_path))
        with pytest.raises(Interrupted):
            engine.run(progress=_interrupt_after(3))
        seen = []
        CampaignEngine(small_program, _config(store_path)).run(
            progress=lambda done, total, outcome: seen.append((done, total))
        )
        assert seen == [(i, 8) for i in range(1, 9)]

    def test_resume_false_forces_re_execution(self, small_program, store_path):
        CampaignEngine(small_program, _config(store_path)).run()
        CampaignEngine(small_program, _config(store_path, resume=False)).run()
        with CampaignStore(store_path) as store:
            assert store.counters()["jobs_executed"] == 16
            (info,) = store.list_campaigns()
            assert info.complete


class TestCacheHit:
    def test_second_run_executes_zero_injections(self, small_program, store_path):
        first = CampaignEngine(small_program, _config(store_path)).run()
        second = CampaignEngine(small_program, _config(store_path)).run()
        _assert_identical(first, second)
        with CampaignStore(store_path) as store:
            counters = store.counters()
            (info,) = store.list_campaigns()
        assert counters["jobs_executed"] == 8  # first run only
        assert counters["jobs_cached"] == 8  # second run, fully served
        assert counters["campaign_hits"] == 1
        assert info.hit_count == 1

    def test_different_seed_is_a_different_campaign(self, small_program, store_path):
        CampaignEngine(small_program, _config(store_path)).run()
        CampaignEngine(small_program, _config(store_path, seed=12)).run()
        with CampaignStore(store_path) as store:
            assert len(store.list_campaigns()) == 2
            assert store.counters()["campaign_hits"] == 0

    def test_figure_driver_memoized_through_store(self, store_path):
        first = figure5_iu_faults(
            workloads=["intbench"], sample_size=2, store_path=store_path
        )
        with CampaignStore(store_path) as store:
            executed_after_first = store.counters()["jobs_executed"]
        assert executed_after_first == 2 * len(ALL_FAULT_MODELS)

        second = figure5_iu_faults(
            workloads=["intbench"], sample_size=2, store_path=store_path
        )
        _assert_identical(first["intbench"], second["intbench"])
        with CampaignStore(store_path) as store:
            counters = store.counters()
        assert counters["jobs_executed"] == executed_after_first  # zero new
        assert counters["campaign_hits"] == 1

    def test_table1_memoized_through_store(self, store_path):
        first = table1_characterization(
            workloads=["intbench"], store_path=store_path
        )
        second = table1_characterization(
            workloads=["intbench"], store_path=store_path
        )
        assert first == second
        assert second["intbench"].diversity > 0


class TestCli:
    def _run(self, *argv):
        return cli_main(list(argv))

    def test_run_status_report_ls_gc(self, store_path, capsys):
        args = (
            "--workload", "intbench", "--sites", "2", "--seed", "7",
            "--store", store_path, "--quiet",
        )
        assert self._run("campaign", "run", *args) == 0
        out_first = capsys.readouterr().out
        assert "executed 6 injections" in out_first

        # Second invocation: pure cache hit, zero executed.
        assert self._run("campaign", "run", *args) == 0
        out_second = capsys.readouterr().out
        assert "executed 0 injections" in out_second
        assert "served 6 from the store" in out_second

        assert self._run("campaign", "status", "--store", store_path) == 0
        out_status = capsys.readouterr().out
        assert "complete" in out_status and "6/6" in out_status

        with CampaignStore(store_path) as store:
            (info,) = store.list_campaigns()
        key_prefix = info.key[:12]
        assert self._run(
            "campaign", "report", "--key", key_prefix, "--store", store_path
        ) == 0
        assert "Pf" in capsys.readouterr().out

        assert self._run("store", "ls", "--store", store_path) == 0
        capsys.readouterr()
        assert self._run("store", "gc", "--store", store_path) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_cli_resume_completes_interrupted_campaign(self, store_path, capsys):
        # Interrupt a store-backed campaign through the Python API, with the
        # exact configuration `repro campaign run` would use...
        from repro.workloads import build_program

        program = build_program("intbench")
        config = CampaignConfig(
            unit_scope="iu", sample_size=2, seed=7, store_path=store_path
        )
        engine = CampaignEngine(program, config)
        with pytest.raises(Interrupted):
            engine.run(progress=_interrupt_after(2))
        with CampaignStore(store_path) as store:
            (info,) = store.list_campaigns()
            assert not info.complete
            key = info.key

        # ... then finish it from the CLI by key alone.
        assert self._run(
            "campaign", "resume", "--key", key[:10], "--store", store_path,
            "--quiet",
        ) == 0
        out = capsys.readouterr().out
        assert "executed 4 injections" in out
        assert "served 2 from the store" in out
        with CampaignStore(store_path) as store:
            assert store.campaign_info(key).complete

    def test_unknown_workload_fails_cleanly(self, store_path, capsys):
        rc = self._run(
            "campaign", "run", "--workload", "nope", "--store", store_path,
        )
        assert rc == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_gc_removes_incomplete_campaigns(self, store_path, capsys):
        from repro.workloads import build_program

        program = build_program("intbench")
        config = CampaignConfig(
            unit_scope="iu", sample_size=2, seed=7, store_path=store_path
        )
        with pytest.raises(Interrupted):
            CampaignEngine(program, config).run(progress=_interrupt_after(2))
        assert self._run("store", "gc", "--store", store_path) == 0
        assert "removed 1 unreferenced incomplete" in capsys.readouterr().out
        with CampaignStore(store_path) as store:
            assert store.list_campaigns() == []
