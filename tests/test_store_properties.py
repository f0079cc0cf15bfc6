"""Cross-cutting property tests of the store/engine contract.

Three families, complementing ``tests/test_store.py``'s behavioural suite:

* **Key canonicalisation** — content keys are insensitive to JSON payload
  insertion order (canonical serialisation) while staying sensitive to plan
  order (sites and models are an ordered sample, not a set).
* **Schema migration** — a populated v1 database opens under the current
  schema with every stored outcome reconstructing bit-identically, and a
  database stamped by a *newer* schema is refused (exit 2 at the CLI).
* **Garbage collection reachability** — ``store gc`` never collects an
  incomplete campaign that is still reachable from a run manifest or a
  shard row, whatever combination of campaigns a store holds; and a golden
  artifact referenced by any surviving campaign survives the sweep with it.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import shard_token
from repro.isa.assembler import assemble
from repro.rtl.faults import FaultModel
from repro.rtl.sites import FaultSite
from repro.store import (
    SCHEMA_VERSION,
    CampaignStore,
    StoreError,
    campaign_key,
    memo_key,
    report_payload,
)
from repro.store.cli import main as cli_main


@pytest.fixture(scope="module")
def small_program():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


# ---------------------------------------------------------------------------
# Key canonicalisation
# ---------------------------------------------------------------------------

_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    min_size=1,
    max_size=6,
)


class TestKeyCanonicalisation:
    @given(payload=_payloads, data=st.data())
    def test_memo_key_ignores_payload_insertion_order(self, payload, data):
        shuffled = dict(data.draw(st.permutations(list(payload.items()))))
        assert memo_key("table1", dict(shuffled)) == memo_key("table1", payload)

    def _key(self, program, sites, fault_models, transient=None):
        return campaign_key(
            program=program,
            sites=sites,
            fault_models=fault_models,
            seed=11,
            backend_id="rtl:repro.engine.backend.Leon3RtlBackend",
            unit_scope="iu",
            sample_size=4,
            max_instructions=400_000,
            transient=transient,
        )

    def test_campaign_key_ignores_transient_dict_order(self, small_program):
        forward = {"windows": 2, "duration": 1, "jobs": ["a", "b"]}
        backward = dict(reversed(list(forward.items())))
        assert self._key(small_program, [], [], transient=forward) == self._key(
            small_program, [], [], transient=backward
        )

    def test_campaign_key_is_sensitive_to_plan_order(self, small_program):
        """Sites and models are an *ordered* sample — the plan's job order —
        so reordering them is a different campaign, not a different spelling."""
        sites = [
            FaultSite(net="iu.reg", bit=0, unit="iu"),
            FaultSite(net="iu.pc", bit=3, unit="iu"),
        ]
        models = [FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0]
        base = self._key(small_program, sites, models)
        assert self._key(small_program, sites[::-1], models) != base
        assert self._key(small_program, sites, models[::-1]) != base


# ---------------------------------------------------------------------------
# Schema migration
# ---------------------------------------------------------------------------

#: The version-1 schema as PR 2 shipped it: no ``start_cycle``/``duration``
#: outcome columns, no ``manifests``, no ``shards``.
_V1_SCHEMA = """
CREATE TABLE campaigns (
    key                 TEXT PRIMARY KEY,
    workload            TEXT NOT NULL,
    unit_scope          TEXT NOT NULL,
    backend             TEXT NOT NULL,
    seed                INTEGER NOT NULL,
    sample_size         INTEGER,
    max_instructions    INTEGER NOT NULL,
    fault_models        TEXT NOT NULL,
    total_jobs          INTEGER NOT NULL,
    status              TEXT NOT NULL DEFAULT 'running'
                        CHECK (status IN ('running', 'complete')),
    golden_instructions INTEGER,
    golden_cycles       INTEGER,
    golden_transactions INTEGER,
    hit_count           INTEGER NOT NULL DEFAULT 0,
    config_json         TEXT NOT NULL DEFAULT '{}',
    created_at          TEXT NOT NULL,
    updated_at          TEXT NOT NULL
);
CREATE TABLE outcomes (
    campaign_key        TEXT NOT NULL
                        REFERENCES campaigns(key) ON DELETE CASCADE,
    job_index           INTEGER NOT NULL,
    fault_model         TEXT NOT NULL,
    net                 TEXT NOT NULL,
    bit                 INTEGER NOT NULL,
    unit                TEXT NOT NULL,
    cell_index          INTEGER,
    failure_class       TEXT NOT NULL,
    detection_cycle     INTEGER,
    faulty_instructions INTEGER NOT NULL,
    seconds             REAL NOT NULL DEFAULT 0.0,
    PRIMARY KEY (campaign_key, job_index)
);
CREATE TABLE memos (
    key        TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX idx_outcomes_campaign ON outcomes (campaign_key);
"""

_V1_KEY = "ab" * 32

_V1_OUTCOMES = (
    (0, "stuck_at_1", "iu.reg", 3, "iu", None, "no_effect", None, 118),
    (1, "stuck_at_0", "iu.pc", 7, "iu", None, "wrong_data", 42, 96),
)


def _write_v1_store(path):
    """A populated store exactly as schema version 1 would have left it."""
    conn = sqlite3.connect(path)
    conn.executescript(_V1_SCHEMA)
    conn.execute(
        """
        INSERT INTO campaigns (
            key, workload, unit_scope, backend, seed, sample_size,
            max_instructions, fault_models, total_jobs, status,
            golden_instructions, golden_cycles, golden_transactions,
            hit_count, config_json, created_at, updated_at
        ) VALUES (?, 'small', 'iu', 'rtl', 11, 2, 400000,
                  '["stuck_at_1", "stuck_at_0"]', 2, 'complete',
                  118, 236, 9, 0,
                  '{"fault_models": ["stuck_at_1", "stuck_at_0"]}',
                  '2025-01-01T00:00:00+00:00', '2025-01-01T00:00:00+00:00')
        """,
        (_V1_KEY,),
    )
    conn.executemany(
        """
        INSERT INTO outcomes (
            campaign_key, job_index, fault_model, net, bit, unit,
            cell_index, failure_class, detection_cycle, faulty_instructions
        ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
        """,
        [(_V1_KEY, *row) for row in _V1_OUTCOMES],
    )
    conn.execute("INSERT INTO counters (name, value) VALUES ('jobs_executed', 2)")
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()


def _begin_bare_campaign(store, program, seed):
    """Open a two-job permanent campaign row, keyed by *seed*, with no
    outcomes committed."""
    key = campaign_key(
        program=program,
        sites=[],
        fault_models=[FaultModel.STUCK_AT_1],
        seed=seed,
        backend_id="rtl:repro.engine.backend.Leon3RtlBackend",
        unit_scope="iu",
        sample_size=None,
        max_instructions=400_000,
    )
    config = {
        "workload": program.name,
        "unit_scope": "iu",
        "sample_size": None,
        "seed": seed,
        "max_instructions": 400_000,
        "fault_models": [FaultModel.STUCK_AT_1.value],
        "backend": "rtl",
    }
    return store.begin_campaign(key=key, config=config, total_jobs=2)


class TestSchemaMigration:
    def test_v1_store_migrates_in_place_and_round_trips(self, tmp_path):
        path = str(tmp_path / "v1.sqlite")
        _write_v1_store(path)
        with CampaignStore(path) as store:
            (version,) = store._conn.execute("PRAGMA user_version").fetchone()
            assert version == SCHEMA_VERSION
            columns = {
                row[1]
                for row in store._conn.execute("PRAGMA table_info(outcomes)")
            }
            assert {"start_cycle", "duration"} <= columns
            tables = {
                row[0]
                for row in store._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            assert {"manifests", "shards"} <= tables

            # Every v1 row reconstructs bit-identically as a permanent job.
            info = store.campaign_info(_V1_KEY)
            assert info.complete and info.done_jobs == info.total_jobs == 2
            records = store.stored_records(_V1_KEY)
            assert [
                (
                    r.job.index,
                    r.job.fault_model.value,
                    r.job.site.net,
                    r.job.site.bit,
                    r.job.site.unit,
                    r.job.site.index,
                    r.failure_class.value,
                    r.detection_cycle,
                    r.faulty_instructions,
                )
                for r in records
            ] == list(_V1_OUTCOMES)
            assert not any(hasattr(r.job, "start_cycle") for r in records)
            assert store.counters()["jobs_executed"] == 2
            assert store.shard_rows(_V1_KEY) == []

            # The migrated store is fully usable: report, manifests, shards.
            payload = report_payload(store, info)
            assert payload["done_jobs"] == 2
            assert [m["injections"] for m in payload["models"]] == [1, 1]
            store.put_manifest(_V1_KEY, {"manifest_version": 1})
            assert store.get_manifest(_V1_KEY) == {"manifest_version": 1}

    def test_v1_migration_is_stable_across_reopen(self, tmp_path):
        path = str(tmp_path / "v1.sqlite")
        _write_v1_store(path)
        with CampaignStore(path) as store:
            first = store.stored_records(_V1_KEY)
        with CampaignStore(path) as store:
            assert store.stored_records(_V1_KEY) == first

    def test_populated_v4_store_gains_artifact_tables(
        self, small_program, tmp_path
    ):
        """v4 -> v5 is purely additive: a populated v4 database (no
        ``artifacts``/``artifact_refs`` tables) opens under v5 with its
        campaign data untouched and the artifact cache immediately usable."""
        path = str(tmp_path / "v4.sqlite")
        with CampaignStore(path) as store:
            session = _begin_bare_campaign(store, small_program, seed=7)
            session.put_manifest({"manifest_version": 1})
            session.mark_complete()
            key = session.key
        # Rewind the file to exactly what schema v4 shipped.
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            DROP TABLE artifact_refs;
            DROP TABLE artifacts;
            PRAGMA user_version = 4;
            """
        )
        conn.commit()
        conn.close()
        with CampaignStore(path) as store:
            (version,) = store._conn.execute("PRAGMA user_version").fetchone()
            assert version == SCHEMA_VERSION
            info = store.campaign_info(key)
            assert info.total_jobs == 2
            assert store.get_manifest(key) == {"manifest_version": 1}
            assert store.list_artifacts() == []
            assert store.artifact_put("ab" * 32, "golden", "small", "rtl", b"x")
            store.artifact_ref("ab" * 32, key)
            assert store.artifact_get("ab" * 32) == b"x"
            (artifact,) = store.list_artifacts()
            assert artifact.refs == 1

    def test_newer_schema_is_refused(self, tmp_path):
        path = str(tmp_path / "future.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer schema"):
            CampaignStore(path)


# ---------------------------------------------------------------------------
# Garbage collection reachability
# ---------------------------------------------------------------------------


class TestGcReachability:
    def _begin(self, store, program, seed):
        return _begin_bare_campaign(store, program, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        flags=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans()),
            min_size=1,
            max_size=5,
        )
    )
    def test_gc_never_collects_reachable_campaigns(self, small_program, flags):
        """Whatever mix a store holds, ``gc()`` keeps exactly the campaigns
        that are complete, manifest-referenced or shard-referenced."""
        with CampaignStore(":memory:") as store:
            expected = set()
            for index, (complete, manifest, shard) in enumerate(flags):
                session = self._begin(store, small_program, seed=index)
                if manifest:
                    session.put_manifest({"manifest_version": 1})
                if shard:
                    session.record_shard(
                        shard_count=2,
                        shard_index=0,
                        token=shard_token(session.key, 2, 0),
                        job_lo=0,
                        job_hi=1,
                    )
                if complete:
                    session.mark_complete()
                if complete or manifest or shard:
                    expected.add(session.key)
            removed = store.gc()
            survivors = {info.key for info in store.list_campaigns()}
            assert survivors == expected
            assert removed["campaigns"] == len(flags) - len(expected)

            # --all overrides the reachability protection.
            store.gc(all_campaigns=True)
            assert store.list_campaigns() == []

    def test_gc_keeps_a_shard_store_campaign(self, small_program, tmp_path):
        path = str(tmp_path / "shard.sqlite")
        with CampaignStore(path) as store:
            session = self._begin(store, small_program, seed=1)
            session.record_shard(
                shard_count=3,
                shard_index=1,
                token=shard_token(session.key, 3, 1),
                job_lo=1,
                job_hi=2,
            )
            assert store.gc()["campaigns"] == 0
            assert len(store.list_campaigns()) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        flags=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans()),
            min_size=1,
            max_size=5,
        )
    )
    def test_gc_keeps_artifacts_of_surviving_campaigns(
        self, small_program, flags
    ):
        """A golden artifact lives exactly as long as some campaign
        references it: ``gc()`` sweeps artifacts whose every referencing
        campaign was collected (including incomplete-but-shard-referenced
        ones, which survive and keep their artifact alive), and never an
        artifact a surviving campaign still points at."""
        with CampaignStore(":memory:") as store:
            expected_artifacts = set()
            for index, (complete, manifest, shard) in enumerate(flags):
                session = self._begin(store, small_program, seed=index)
                artifact = f"{index:02d}" * 32
                store.artifact_put(
                    artifact, "golden", "small", "rtl", b"payload"
                )
                store.artifact_ref(artifact, session.key)
                if manifest:
                    session.put_manifest({"manifest_version": 1})
                if shard:
                    session.record_shard(
                        shard_count=2,
                        shard_index=0,
                        token=shard_token(session.key, 2, 0),
                        job_lo=0,
                        job_hi=1,
                    )
                if complete:
                    session.mark_complete()
                if complete or manifest or shard:
                    expected_artifacts.add(artifact)
            # One orphan with no referencing campaign at all: always swept.
            store.artifact_put("ff" * 32, "ladder", "small", "rtl", b"x")
            removed = store.gc()
            survivors = {info.key for info in store.list_artifacts()}
            assert survivors == expected_artifacts
            assert removed["artifacts"] == len(flags) + 1 - len(
                expected_artifacts
            )
            # Collecting the campaigns cascades their refs, so a full
            # --all pass leaves nothing for the artifact sweep to keep.
            store.gc(all_campaigns=True)
            assert store.list_artifacts() == []

    def test_artifact_gc_respects_refs_until_all(self, small_program):
        with CampaignStore(":memory:") as store:
            session = self._begin(store, small_program, seed=1)
            session.mark_complete()
            store.artifact_put("aa" * 32, "golden", "small", "rtl", b"used")
            store.artifact_ref("aa" * 32, session.key)
            store.artifact_put("bb" * 32, "golden", "small", "rtl", b"orphan")
            removed = store.artifact_gc()
            assert removed["artifacts"] == 1 and removed["bytes"] == 6
            assert [info.key for info in store.list_artifacts()] == ["aa" * 32]
            removed = store.artifact_gc(all_artifacts=True)
            assert removed["artifacts"] == 1
            assert store.list_artifacts() == []

    def test_ref_to_unknown_artifact_or_campaign_is_a_noop(
        self, small_program
    ):
        """Publication is best-effort (uncacheable goldens skip it), so the
        reachability edge must be safe to record unconditionally."""
        with CampaignStore(":memory:") as store:
            session = self._begin(store, small_program, seed=1)
            store.artifact_ref("cc" * 32, session.key)  # no such artifact
            store.artifact_put("dd" * 32, "golden", "small", "rtl", b"x")
            store.artifact_ref("dd" * 32, "ee" * 32)  # no such campaign
            refs = store._conn.execute(
                "SELECT COUNT(*) FROM artifact_refs"
            ).fetchone()[0]
            assert refs == 0


# ---------------------------------------------------------------------------
# CLI exit-code regression: unusable stores are exit 2, operational errors 1
# ---------------------------------------------------------------------------


class TestCliExitCodes:
    READ_ONLY_COMMANDS = (
        ("campaign", "status"),
        ("campaign", "report"),
        ("store", "ls"),
        ("store", "gc"),
    )

    def test_missing_store_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.sqlite")
        for command in self.READ_ONLY_COMMANDS:
            assert cli_main([*command, "--store", missing]) == 2
            assert "no store database" in capsys.readouterr().err

    def test_corrupt_store_is_exit_2(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.sqlite"
        corrupt.write_text("this is not a sqlite database\n" * 64)
        for command in self.READ_ONLY_COMMANDS:
            assert cli_main([*command, "--store", str(corrupt)]) == 2
            assert "not a usable SQLite database" in capsys.readouterr().err

    def test_newer_schema_store_is_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "future.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        assert cli_main(["campaign", "status", "--store", path]) == 2
        assert "newer schema" in capsys.readouterr().err

    def test_merge_with_missing_source_is_exit_2(self, tmp_path, capsys):
        dest = str(tmp_path / "dest.sqlite")
        assert cli_main(
            ["store", "merge", dest, str(tmp_path / "nope.sqlite")]
        ) == 2
        assert "no store database" in capsys.readouterr().err

    def test_operational_errors_stay_exit_1(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.sqlite")
        CampaignStore(empty).close()
        assert cli_main(["campaign", "report", "--store", empty]) == 1
        assert "store is empty" in capsys.readouterr().err
        assert cli_main(["campaign", "status", "--store", empty]) == 0
        assert "store is empty" in capsys.readouterr().out
