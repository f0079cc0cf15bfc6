"""Golden-artifact (de)serialization: the payload format of the cache.

A golden artifact is a *recording* of the one execution every campaign
repeats: the fault-free golden run.  Two kinds exist, matching the two
campaign shapes:

* ``"golden"`` — a serialized golden :class:`~repro.engine.backend.RunResult`
  (permanent campaigns, where workers otherwise re-run the workload from
  reset once per process just to obtain the comparison reference).  A fast
  RTL engine's recording also carries an additive ``"reads"`` field: the
  storage-array read summary the planner prunes dormant faults with
  (:mod:`repro.engine.pruning`).  Payloads without it still load; their
  campaigns simply simulate every job.
* ``"ladder"`` — a full :class:`~repro.engine.checkpoint.CheckpointLadder`
  recording (transient campaigns): every rung's restore payload, state
  digest, cumulative per-mnemonic counts and transaction-prefix length, plus
  the golden result.  Ladders written by earlier releases may also carry a
  ``"timeline"`` field; it is ignored on load.

The format is a tagged, type-faithful JSON encoding compressed with zlib.
Type fidelity matters because the rung payloads are handed straight back to
the fast engines' ``restore_state`` (bytes for dirty memory pages, integer
dict keys for page indices, tuples where the engines capture tuples), and
because loading asserts **bit-identity before trusting the bytes**: every
deserialized rung is restored into the live engine and its recomputed
``state_digest`` must equal the stored one
(:meth:`repro.engine.checkpoint._CheckpointRunnerBase.from_artifact`).  A
blob that fails decompression, decoding, or digest verification raises
:class:`ArtifactError` — the cache then falls back to re-executing, it never
serves doubtful state.

Execution traces are deliberately *not* serialized structurally: the
aggregate :class:`~repro.iss.trace.ExecutionTrace` is a pure function of the
per-mnemonic counts (:func:`~repro.engine.checkpoint.trace_from_counts`, the
same contract the early-convergence splice relies on), so artifacts store
the counts dict and rebuild a value-identical trace on load.  Detailed
(per-instruction record) traces cannot be rebuilt that way and are refused —
callers gate on ``trace.detailed`` and skip the cache instead.

Keys live in :func:`repro.store.keys.artifact_key` (their own
``"kind"``-tagged namespace; ``KEY_VERSION`` stays 1); rows live in the
schema-v5 ``artifacts`` table (:mod:`repro.store.schema`); reachability for
``gc`` is tracked in ``artifact_refs``.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import Any, Dict, Optional

from repro.engine.backend import RunResult
from repro.engine.checkpoint import (
    Checkpoint,
    CheckpointLadder,
    trace_from_counts,
)
from repro.engine.pruning import ReadSummary
from repro.iss.trace import OffCoreTransaction
from repro.store.schema import StoreError

#: Bump on any incompatible change to the serialized payload layout.  Loads
#: of a different version raise :class:`ArtifactError` and callers fall back
#: to re-executing — but their publish under the same key is a no-op
#: (``artifact_put`` is ``ON CONFLICT DO NOTHING``), so a stale row is never
#: replaced and every later load of that key misses and re-records.  Prefer
#: layout changes old payloads still decode under (as dropping the ladder's
#: ``"timeline"`` field was).
ARTIFACT_VERSION = 1

__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "encode_value",
    "decode_value",
    "golden_to_payload",
    "payload_to_golden",
    "payload_to_reads",
    "ladder_to_payload",
    "payload_to_ladder",
    "pack_artifact",
    "unpack_artifact",
]


class ArtifactError(StoreError):
    """An artifact blob that cannot be trusted: unknown version, undecodable
    payload, or (raised by the runners' ``from_artifact``) a rung whose
    recomputed state digest disagrees with the stored one."""


# -- tagged value encoding --------------------------------------------------------
#
# JSON alone loses exactly the three shapes the engines' capture payloads
# rely on: bytes (dirty pages), tuples (cache snapshots, touched-line sets)
# and non-string dict keys (page indices).  Each gets a
# single-key tag object; everything else passes through untouched.

_BYTES_TAG = "__bytes__"
_TUPLE_TAG = "__tuple__"
_DICT_TAG = "__dict__"
_TAGS = (_BYTES_TAG, _TUPLE_TAG, _DICT_TAG)


def encode_value(value: Any) -> Any:
    """*value* as a JSON-serializable structure, type-faithfully.

    Supports the closed set of types the fast engines' ``capture_state``
    payloads are built from; anything else
    fails loud — silently coercing an unknown type would surface later as a
    digest mismatch on load, far from its cause.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        if all(
            isinstance(key, str) and key not in _TAGS for key in value
        ):
            return {key: encode_value(item) for key, item in value.items()}
        return {
            _DICT_TAG: [
                [encode_value(key), encode_value(item)]
                for key, item in value.items()
            ]
        }
    raise ArtifactError(
        f"cannot serialize a {type(value).__module__}.{type(value).__qualname__} "
        f"into a golden artifact"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (exact type round-trip)."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            if _BYTES_TAG in value:
                return base64.b64decode(value[_BYTES_TAG])
            if _TUPLE_TAG in value:
                return tuple(decode_value(item) for item in value[_TUPLE_TAG])
            if _DICT_TAG in value:
                return {
                    decode_value(key): decode_value(item)
                    for key, item in value[_DICT_TAG]
                }
        return {key: decode_value(item) for key, item in value.items()}
    return value


# -- RunResult --------------------------------------------------------------------


def golden_to_payload(
    result: RunResult, reads: Optional[ReadSummary] = None
) -> Dict[str, Any]:
    """Serialize a golden :class:`RunResult` (artifact kind ``"golden"``),
    with the run's storage-array read summary when one was recorded.

    Refuses detailed traces: their per-instruction records cannot be rebuilt
    from counts, so such runs are simply not cacheable.
    """
    payload: Dict[str, Any] = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "golden",
        "golden": _result_to_payload(result),
    }
    if reads is not None:
        payload["reads"] = {name: [list(mask) for mask in masks]
                            for name, masks in reads.items()}
    return payload


def payload_to_golden(payload: Dict[str, Any]) -> RunResult:
    """Deserialize an artifact of kind ``"golden"``."""
    _check_version(payload, "golden")
    return _payload_to_result(payload["golden"])


def payload_to_reads(payload: Dict[str, Any]) -> Optional[ReadSummary]:
    """The read summary of a ``"golden"`` artifact; ``None`` when it carries
    none (written without one, or malformed) — its campaigns then simulate
    every job."""
    reads = payload.get("reads")
    if not isinstance(reads, dict):
        return None
    for masks in reads.values():
        if not (
            isinstance(masks, list)
            and len(masks) == 3
            and all(isinstance(mask, list) for mask in masks)
        ):
            return None
    return reads


def _result_to_payload(result: RunResult) -> Dict[str, Any]:
    if result.trace.detailed:
        raise ArtifactError(
            "detailed execution traces cannot be cached (per-instruction "
            "records are not reconstructible from aggregate counts)"
        )
    return {
        "backend": result.backend,
        "transactions": [
            [txn.kind, txn.address, txn.value, txn.size]
            for txn in result.transactions
        ],
        "trace_counts": dict(result.trace.opcode_counts),
        "instructions": result.instructions,
        "cycles": result.cycles,
        "halted": result.halted,
        "exit_code": result.exit_code,
        "trap_kind": result.trap_kind,
        "transaction_cycles": list(result.transaction_cycles),
    }


def _payload_to_result(payload: Dict[str, Any]) -> RunResult:
    return RunResult(
        backend=payload["backend"],
        transactions=[
            OffCoreTransaction(kind, address, value, size)
            for kind, address, value, size in payload["transactions"]
        ],
        trace=trace_from_counts(payload["trace_counts"]),
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        halted=payload["halted"],
        exit_code=payload["exit_code"],
        trap_kind=payload["trap_kind"],
        transaction_cycles=list(payload["transaction_cycles"]),
    )


# -- CheckpointLadder -------------------------------------------------------------


def ladder_to_payload(ladder: CheckpointLadder) -> Dict[str, Any]:
    """Serialize a recorded golden ladder (artifact kind ``"ladder"``)."""
    return {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "ladder",
        "interval": ladder.interval,
        "checkpoints": [
            {
                "instructions": rung.instructions,
                "cycles": rung.cycles,
                "digest": rung.digest,
                "payload": encode_value(rung.payload),
                "txn_count": rung.txn_count,
                "counts": dict(rung.counts),
            }
            for rung in ladder.checkpoints
        ],
        "golden": _result_to_payload(ladder.golden),
        "final_counts": dict(ladder.final_counts),
    }


def payload_to_ladder(payload: Dict[str, Any]) -> CheckpointLadder:
    """Deserialize an artifact of kind ``"ladder"``.

    Callers must still verify bit-identity against the live engine before
    use — see the runners' ``from_artifact``.
    """
    _check_version(payload, "ladder")
    checkpoints = [
        Checkpoint(
            instructions=rung["instructions"],
            cycles=rung["cycles"],
            digest=rung["digest"],
            payload=decode_value(rung["payload"]),
            txn_count=rung["txn_count"],
            counts=dict(rung["counts"]),
        )
        for rung in payload["checkpoints"]
    ]
    return CheckpointLadder(
        interval=payload["interval"],
        checkpoints=checkpoints,
        golden=_payload_to_result(payload["golden"]),
        final_counts=dict(payload["final_counts"]),
    )


# -- blob packing -----------------------------------------------------------------


def pack_artifact(payload: Dict[str, Any]) -> bytes:
    """Canonical compressed bytes of *payload* (what the store persists).

    Canonical JSON (sorted keys, no whitespace) at a fixed zlib level, so
    one recording always packs to the same bytes — artifact rows merge
    across shard stores with the same conflict-refusing discipline as
    memos.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.compress(canonical.encode("utf-8"), 6)


def unpack_artifact(blob: bytes) -> Dict[str, Any]:
    """Inverse of :func:`pack_artifact`; raises :class:`ArtifactError` on
    anything undecodable (corruption never escalates past the cache)."""
    try:
        decoded = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, ValueError) as error:
        raise ArtifactError(f"undecodable artifact blob: {error}") from error
    if not isinstance(decoded, dict) or "artifact_version" not in decoded:
        raise ArtifactError("artifact blob carries no version header")
    return decoded


def _check_version(payload: Dict[str, Any], kind: str) -> None:
    version = payload.get("artifact_version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {version!r} "
            f"(supported: {ARTIFACT_VERSION})"
        )
    if payload.get("kind") != kind:
        raise ArtifactError(
            f"artifact kind {payload.get('kind')!r} where {kind!r} was expected"
        )
