"""The golden-artifact cache: serialization round-trips, cache behaviour.

The acceptance property of the subsystem (``docs/store.md``): a campaign
whose golden run is *loaded* from the store's artifact cache is
bit-identical to the same campaign run with a freshly executed golden — on
every registry workload, on both backends, permanent and transient, sharded
and unsharded — and a warm store serves the golden with **zero** golden
executions, proven through the ``golden.cache.hit`` / ``golden.cache.miss``
telemetry counters rather than assumed.

Three layers of defence are exercised here:

* the typed JSON encoding round-trips every payload leaf exactly
  (bytes, tuples, int-keyed dicts),
* a loaded ladder is digest-verified rung by rung against the live engine
  before it is trusted (tampered recordings fall back to fresh execution),
* the artifact content address changes with everything that changes the
  recording's bytes (workload, backend identity, instruction ceiling, rung
  spacing) and with nothing else.
"""

import dataclasses
import json
import random
import zlib

import pytest

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import CampaignConfig, CampaignEngine
from repro.engine.backend import IssBackend, Leon3RtlBackend, watchdog_budget
from repro.engine.checkpoint import assert_run_results_identical
from repro.engine.sharding import run_sharded_campaign, shard_store_path
from repro.isa.assembler import assemble
from repro.obs.telemetry import TELEMETRY
from repro.rtl.faults import FaultModel, TransientFault
from repro.store import (
    KEY_VERSION,
    CampaignStore,
    artifact_key,
    campaign_key,
    memo_key,
    report_payload,
)
from repro.store.artifacts import (
    ARTIFACT_VERSION,
    ArtifactError,
    decode_value,
    encode_value,
    golden_to_payload,
    pack_artifact,
    payload_to_golden,
    unpack_artifact,
)
from repro.store.cli import main as cli_main
from repro.workloads import all_workloads, build_program

MAX_INSTRUCTIONS = 400_000

REGISTRY = sorted(all_workloads())


@pytest.fixture(scope="module")
def small_program():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


def _backend(kind: str):
    return Leon3RtlBackend() if kind == "rtl" else IssBackend()


def _golden_counters():
    counters = TELEMETRY.snapshot().get("counters", {})
    return (
        counters.get("golden.cache.hit", 0),
        counters.get("golden.cache.miss", 0),
    )


def _assert_identical(expected, actual):
    assert expected.keys() == actual.keys()
    for model in expected:
        assert expected[model].outcomes == actual[model].outcomes
        assert (
            expected[model].failure_probability
            == actual[model].failure_probability
        )


# ---------------------------------------------------------------------------
# Typed JSON encoding
# ---------------------------------------------------------------------------


class TestEncoding:
    CASES = [
        None,
        True,
        0,
        -(1 << 40),
        1.5,
        "text",
        b"\x00\xffbytes",
        (1, 2, "three"),
        [1, [2, (3, b"x")]],
        {"plain": 1, "nested": {"deep": (b"\x01",)}},
        {0: b"page", 0x1_0000_0040: [1, 2]},
        {"icc": [0], 5: [1]},
        (),
        {},
    ]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_round_trip_is_exact(self, value):
        encoded = encode_value(value)
        json.loads(json.dumps(encoded))  # must be pure JSON
        decoded = decode_value(encoded)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuple_and_list_do_not_alias(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert encode_value((1, 2)) != encode_value([1, 2])

    def test_unencodable_types_raise(self):
        with pytest.raises(ArtifactError):
            encode_value(object())
        with pytest.raises(ArtifactError):
            encode_value({1, 2})

    def test_unpack_rejects_garbage(self):
        with pytest.raises(ArtifactError):
            unpack_artifact(b"not zlib at all")
        with pytest.raises(ArtifactError):
            unpack_artifact(zlib.compress(b'"not a payload dict"'))
        with pytest.raises(ArtifactError):
            unpack_artifact(zlib.compress(b'{"no_version": 1}'))


# ---------------------------------------------------------------------------
# Ladder and golden round-trips (the bit-identity core)
# ---------------------------------------------------------------------------


def _round_trip_ladder(kind: str, name: str):
    """Record a ladder, serialize, restore into a *fresh* engine, and prove
    the restored runner is bit-identical on golden, rungs, and a fork."""
    program = build_program(name)
    backend = _backend(kind)
    backend.prepare(program)
    runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
    golden = runner.golden()

    payload = unpack_artifact(pack_artifact(runner.to_artifact()))

    restored_backend = _backend(kind)
    restored_backend.prepare(program)
    restored = restored_backend.checkpoint_runner(MAX_INSTRUCTIONS)
    assert not restored.recorded
    restored.from_artifact(payload)
    assert restored.recorded

    assert_run_results_identical(golden, restored.golden())
    original_rungs = runner.ladder().checkpoints
    restored_rungs = restored.ladder().checkpoints
    assert [
        (r.instructions, r.cycles, r.digest, r.txn_count)
        for r in original_rungs
    ] == [
        (r.instructions, r.cycles, r.digest, r.txn_count)
        for r in restored_rungs
    ]

    # The restored ladder must fork bit-identically to from-reset execution.
    budget = watchdog_budget(golden.instructions)
    horizon = (
        golden.cycles
        if restored_backend.transient_unit == "cycles"
        else golden.instructions
    )
    rng = random.Random(name)
    (site,) = restored_backend.sites.sample(1, seed=7, storage_only=True)
    fault = TransientFault(site, start_cycle=rng.randrange(horizon), duration=1)
    reference = backend.run(max_instructions=budget, faults=[fault])
    forked = restored.run_transient(fault, budget)
    assert_run_results_identical(reference, forked)


@pytest.mark.parametrize("workload", REGISTRY)
def test_iss_ladder_round_trip_across_registry(workload):
    _round_trip_ladder("iss", workload)


@pytest.mark.parametrize("workload", REGISTRY)
def test_rtl_ladder_round_trip_across_registry(workload):
    _round_trip_ladder("rtl", workload)


class TestGoldenRoundTrip:
    @pytest.mark.parametrize("kind", ["iss", "rtl"])
    def test_plain_golden_round_trips(self, kind, small_program):
        backend = _backend(kind)
        backend.prepare(small_program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        payload = unpack_artifact(pack_artifact(golden_to_payload(golden)))
        assert payload["artifact_version"] == ARTIFACT_VERSION
        assert_run_results_identical(golden, payload_to_golden(payload))

    def test_detailed_traces_are_not_cacheable(self, small_program):
        backend = IssBackend(True)  # detailed per-instruction trace
        backend.prepare(small_program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        with pytest.raises(ArtifactError):
            golden_to_payload(golden)

    def test_tampered_rung_digest_is_refused(self):
        program = build_program("intbench")
        backend = _backend("iss")
        backend.prepare(program)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        runner.golden()
        payload = unpack_artifact(pack_artifact(runner.to_artifact()))
        payload["checkpoints"][0]["digest"] = "0" * 64
        fresh = _backend("iss")
        fresh.prepare(program)
        restored = fresh.checkpoint_runner(MAX_INSTRUCTIONS)
        with pytest.raises(ArtifactError, match="digest"):
            restored.from_artifact(payload)


# ---------------------------------------------------------------------------
# Artifact content addresses
# ---------------------------------------------------------------------------


class TestArtifactKey:
    def _key(self, program, **overrides):
        params = {
            "kind": "golden",
            "backend_id": "rtl:repro.engine.backend.Leon3RtlBackend",
            "max_instructions": 400_000,
            "checkpoint_interval": None,
        }
        params.update(overrides)
        return artifact_key(program=program, **params)

    def test_key_version_stays_pinned(self):
        # The KEY_VERSION=1 regression gate: artifact keys share the pinned
        # derivation version of campaign/memo keys and must never force a
        # bump — adding the artifact namespace was purely additive.
        assert KEY_VERSION == 1

    def test_key_is_deterministic_and_ignores_name(self, small_program):
        renamed = dataclasses.replace(small_program, name="other")
        assert self._key(small_program) == self._key(small_program)
        assert self._key(small_program) == self._key(renamed)

    def test_key_changes_with_every_recording_input(self, small_program):
        base = self._key(small_program)
        assert self._key(small_program, kind="ladder") != base
        assert self._key(small_program, backend_id="iss:x.IssBackend") != base
        assert self._key(small_program, max_instructions=100) != base
        assert self._key(small_program, checkpoint_interval=64) != base
        changed = dataclasses.replace(
            small_program, text=list(small_program.text) + [0]
        )
        assert self._key(changed) != base

    @pytest.mark.parametrize("kind, address", [
        ("iss", "b60e9f9c05db92291f7745d6b680d6bebbf8ea1480e29bbe8b1e1ef1001f81a5"),
        ("rtl", "85d1c3659a610e055d36ffe913a07b2ba870b2b603a073d3acc47a20d04ec096"),
    ])
    def test_campaign_ladder_address_is_pinned(self, kind, address):
        # The address every existing store holds intbench transient ladders
        # under: campaigns record the adaptive ladder, so the digest keeps
        # its "checkpoint_interval": null entry and stored ladders keep
        # hitting.
        engine = CampaignEngine(
            build_program("intbench"),
            CampaignConfig(
                unit_scope="arch.regfile" if kind == "iss" else "iu",
                sample_size=4, seed=3, transient_windows=2,
            ),
            backend_factory=IssBackend if kind == "iss" else Leon3RtlBackend,
        )
        assert engine.artifact_address() == address

    def test_artifact_keys_are_their_own_namespace(self, small_program):
        # Same constituent inputs can never collide with a campaign or memo
        # key: the payload carries a "golden-artifact/<kind>" tag.
        artifact = self._key(small_program)
        campaign = campaign_key(
            program=small_program,
            sites=[],
            fault_models=[],
            seed=0,
            backend_id="rtl:repro.engine.backend.Leon3RtlBackend",
            unit_scope="iu",
            sample_size=None,
            max_instructions=400_000,
        )
        memo = memo_key("golden", {"program": small_program.name})
        assert len({artifact, campaign, memo}) == 3


# ---------------------------------------------------------------------------
# The campaign-level gate: cached golden == fresh golden, bit for bit
# ---------------------------------------------------------------------------


def _campaign(program, kind, store_path=None, transient=False, **overrides):
    params = {
        "unit_scope": "arch.regfile" if kind == "iss" else "iu",
        "sample_size": 3 if kind == "iss" else 2,
        "seed": 11,
        "store_path": store_path,
    }
    if transient:
        params["transient_windows"] = 2 if kind == "iss" else 1
    else:
        params["fault_models"] = [FaultModel.STUCK_AT_1]
    params.update(overrides)
    config = CampaignConfig(**params)
    factory = IssBackend if kind == "iss" else Leon3RtlBackend
    return CampaignEngine(program, config, backend_factory=factory)


class TestCampaignCache:
    @pytest.mark.parametrize("kind", ["iss", "rtl"])
    @pytest.mark.parametrize("transient", [False, True], ids=["perm", "seu"])
    def test_cached_golden_equals_fresh(
        self, kind, transient, small_program, tmp_path
    ):
        store_path = str(tmp_path / "c.sqlite")
        fresh = _campaign(small_program, kind, transient=transient).run()
        cold = _campaign(
            small_program, kind, store_path, transient=transient
        ).run()
        hits, misses = _golden_counters()
        assert (hits, misses) == (0, 1)
        warm = _campaign(
            small_program, kind, store_path, transient=transient, resume=False
        ).run()
        hits, misses = _golden_counters()
        assert misses == 0 and hits >= 1
        _assert_identical(fresh, cold)
        _assert_identical(fresh, warm)
        with CampaignStore(store_path) as store:
            (info,) = store.list_artifacts()
            expected_kind = "ladder" if transient else "golden"
            assert info.kind == expected_kind
            assert info.refs == 1
            assert info.hit_count >= 1

    def test_workers_load_from_the_cache(self, small_program, tmp_path):
        store_path = str(tmp_path / "c.sqlite")
        serial = _campaign(small_program, "iss", store_path, transient=True)
        serial_results = serial.run()
        pooled = _campaign(
            small_program, "iss", store_path, transient=True,
            resume=False, n_workers=2, scheduler="process",
        )
        pooled_results = pooled.run()
        hits, misses = _golden_counters()
        # Planner + every worker loaded the recording; nothing re-executed.
        assert misses == 0 and hits >= 2
        _assert_identical(serial_results, pooled_results)

    def test_memory_store_skips_the_cache(self, small_program):
        with CampaignStore(":memory:") as store:
            engine = _campaign(small_program, "iss", transient=True)
            engine.run(store=store)
            hits, misses = _golden_counters()
            assert (hits, misses) == (0, 0)
            assert store.list_artifacts() == []

    def test_corrupt_blob_falls_back_to_fresh_execution(
        self, small_program, tmp_path
    ):
        store_path = str(tmp_path / "c.sqlite")
        cold = _campaign(small_program, "iss", store_path, transient=True)
        cold_results = cold.run()
        with CampaignStore(store_path) as store:
            (info,) = store.list_artifacts()
            with store._conn:
                store._conn.execute(
                    "UPDATE artifacts SET payload = ? WHERE key = ?",
                    (b"corrupt", info.key),
                )
        warm = _campaign(
            small_program, "iss", store_path, transient=True, resume=False
        ).run()
        hits, misses = _golden_counters()
        assert (hits, misses) == (0, 1)  # unusable blob: counted as a miss
        _assert_identical(cold_results, warm)

    def test_tampered_payload_fails_verification_and_falls_back(
        self, small_program, tmp_path
    ):
        store_path = str(tmp_path / "c.sqlite")
        cold = _campaign(small_program, "iss", store_path, transient=True)
        cold_results = cold.run()
        with CampaignStore(store_path) as store:
            (info,) = store.list_artifacts()
            payload = unpack_artifact(store.artifact_get(info.key))
            payload["checkpoints"][-1]["digest"] = "f" * 64
            with store._conn:
                store._conn.execute(
                    "UPDATE artifacts SET payload = ? WHERE key = ?",
                    (pack_artifact(payload), info.key),
                )
        warm = _campaign(
            small_program, "iss", store_path, transient=True, resume=False
        ).run()
        hits, misses = _golden_counters()
        assert (hits, misses) == (0, 1)  # verification failed: treated a miss
        _assert_identical(cold_results, warm)


# ---------------------------------------------------------------------------
# Ladders written by earlier releases
# ---------------------------------------------------------------------------

#: A touch timeline in the shape earlier releases stored beside ISS ladders
#: (physical register slots, the "icc" pseudo-slot and memory-word keys, each
#: mapped to golden instruction indices).
LEGACY_TIMELINE = {8: [3, 17, 40], "icc": [5], (1 << 32) + 0x4000: [9]}


class TestLegacyLadderPayload:
    @pytest.mark.parametrize("kind, timeline", [
        ("iss", None), ("iss", LEGACY_TIMELINE), ("rtl", None),
    ], ids=["iss-null", "iss-timeline", "rtl-null"])
    def test_legacy_ladder_blob_serves_bit_identical_campaign(
        self, kind, timeline, small_program, tmp_path
    ):
        fresh = _campaign(small_program, kind, transient=True).run()

        backend = _backend(kind)
        backend.prepare(small_program)
        payload = backend.checkpoint_runner(MAX_INSTRUCTIONS).to_artifact()
        assert "timeline" not in payload
        payload["timeline"] = None if timeline is None else encode_value(timeline)
        assert payload["artifact_version"] == ARTIFACT_VERSION == 1

        store_path = str(tmp_path / "c.sqlite")
        engine = _campaign(small_program, kind, store_path, transient=True)
        with CampaignStore(store_path) as store:
            assert store.artifact_put(
                engine.artifact_address(), "ladder", small_program.name,
                backend.name, pack_artifact(payload),
            )
        served = engine.run()
        hits, misses = _golden_counters()
        assert (hits, misses) == (1, 0)  # loaded, never re-recorded
        _assert_identical(fresh, served)


# ---------------------------------------------------------------------------
# Sharded campaigns share one golden recording
# ---------------------------------------------------------------------------


class TestShardedCache:
    def test_shards_share_one_recording_and_merge_bit_identically(
        self, small_program, tmp_path
    ):
        canonical = str(tmp_path / "c.sqlite")
        config = CampaignConfig(
            unit_scope="arch.regfile", sample_size=3, seed=11,
            transient_windows=2, store_path=canonical,
        )
        run_sharded_campaign(
            small_program, config, IssBackend, shards=3, store_path=canonical
        )
        # Shards 1 and 2 loaded the recording shard 0 published.
        for index in (1, 2):
            with CampaignStore(shard_store_path(canonical, 3, index)) as store:
                (info,) = store.list_artifacts()
                assert info.hit_count >= 1

        unsharded = str(tmp_path / "u.sqlite")
        CampaignEngine(
            small_program,
            dataclasses.replace(config, store_path=unsharded),
            backend_factory=IssBackend,
        ).run()
        with CampaignStore(canonical) as merged, CampaignStore(
            unsharded
        ) as reference:
            (merged_info,) = merged.list_campaigns()
            (reference_info,) = reference.list_campaigns()
            assert merged_info.key == reference_info.key
            merged_report = report_payload(merged, merged_info)
            reference_report = report_payload(reference, reference_info)
            # The merged artifact cache survives the fold, with its
            # reachability edge intact.
            (artifact,) = merged.list_artifacts()
            assert artifact.refs == 1
        assert json.dumps(merged_report, sort_keys=True) == json.dumps(
            reference_report, sort_keys=True
        )


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestArtifactCli:
    def _populate(self, small_program, store_path):
        _campaign(small_program, "iss", store_path, transient=True).run()

    def test_artifacts_ls(self, small_program, tmp_path, capsys):
        store_path = str(tmp_path / "c.sqlite")
        self._populate(small_program, store_path)
        assert cli_main(["store", "artifacts", "ls", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "ladder" in out and "small" in out

    def test_artifacts_gc_keeps_referenced_rows(
        self, small_program, tmp_path, capsys
    ):
        store_path = str(tmp_path / "c.sqlite")
        self._populate(small_program, store_path)
        assert cli_main(["store", "artifacts", "gc", "--store", store_path]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert (
            cli_main(
                ["store", "artifacts", "gc", "--all", "--store", store_path]
            )
            == 0
        )
        assert "removed 1" in capsys.readouterr().out
        with CampaignStore(store_path) as store:
            assert store.list_artifacts() == []
