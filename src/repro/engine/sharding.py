"""Deterministic campaign sharding: one plan, N disjoint shard slices.

Sharding splits the canonical job list of one campaign into ``shards``
contiguous, disjoint, covering slices so that independent processes (or
hosts) can execute one slice each against their own store file and the
partial stores can later be folded back into the canonical store by
:mod:`repro.store.merge`.  The split is safe by construction because of two
invariants this module owns:

* **The partition is a pure function of the plan.**  ``shard_bounds`` is
  balanced contiguous slicing of ``range(total)`` — no randomness, no
  ambient state — so every participant (each shard runner, the merge step,
  ``repro campaign status``) derives the same partition from
  ``(total_jobs, shards)`` alone.  Contiguity also preserves the plan's
  canonical job order inside each shard, which keeps the by-start-time
  locality of transient plans (neighbouring jobs fork from neighbouring
  checkpoint rungs) intact.
* **Every shard inherits the parent campaign identity.**  A shard is not a
  new campaign: it commits outcomes under the *parent* campaign's
  content-addressed key with the *parent* plan's job indices.
  ``CampaignConfig.shards``/``shard_index`` are result-transparent
  (registered in ``RESULT_TRANSPARENT``; the pinned-key test in
  ``tests/test_sharding.py`` holds the key byte-identical), and the
  :func:`shard_token` is *derived from* the store key, so shard stores can
  only ever merge with siblings of the exact same campaign.

The merge step (``repro store merge``, :func:`repro.store.merge.merge_stores`)
folds shard stores together with conflict detection — the same
``(campaign key, job index)`` with a different outcome is a hard error —
and the whole pipeline is gated on ``merge(shards) == unsharded``
bit-identity of the aggregated report (``tests/test_sharding.py``, plus the
3-shard CI smoke gate).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple, TypeVar, Union

if TYPE_CHECKING:
    from repro.engine.campaign import CampaignConfig
    from repro.isa.assembler import Program
    from repro.store.merge import MergeReport

_JobT = TypeVar("_JobT")

#: Version of the shard-token derivation.  Part of every token digest, so a
#: future change to the derivation can never alias an old token.
SHARD_TOKEN_VERSION = 1


def shard_bounds(total: int, shards: int) -> List[Tuple[int, int]]:
    """Balanced contiguous partition of ``range(total)`` into *shards* slices.

    Returns ``shards`` half-open ``(lo, hi)`` index ranges that are disjoint,
    cover ``[0, total)`` exactly, appear in ascending order, and differ in
    size by at most one (the first ``total % shards`` slices take the extra
    job).  Shards beyond ``total`` come out empty rather than failing — a
    49-job campaign split 50 ways is wasteful, not wrong.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    base, extra = divmod(total, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def shard_slice(total: int, shards: int, shard_index: int) -> Tuple[int, int]:
    """The ``(lo, hi)`` job-index range of one shard of the partition."""
    if not 0 <= shard_index < shards:
        raise ValueError(
            f"shard_index must be in [0, shards), got shard {shard_index} "
            f"of {shards}"
        )
    return shard_bounds(total, shards)[shard_index]


def select_shard(
    jobs: Sequence[_JobT], shards: int, shard_index: int
) -> List[_JobT]:
    """The slice of *jobs* that shard ``shard_index`` of ``shards`` executes.

    ``shards == 1`` returns the whole plan — the unsharded path is the
    degenerate single-shard partition, so sharded and unsharded execution
    share every line of engine code.
    """
    lo, hi = shard_slice(len(jobs), shards, shard_index)
    return list(jobs[lo:hi])


def shard_token(campaign_key: str, shards: int, shard_index: int) -> str:
    """Stable identity token of one shard of one campaign (64 hex chars).

    Derived from the parent campaign's content-addressed store key plus the
    shard coordinates, so the token inherits everything the key pins down
    (workload bytes, site sample, seed, backend, config) and two shards can
    only share a token if they are the *same slice of the same campaign*.
    The merge step records tokens in the ``shards`` table and refuses to
    fold a shard row whose token disagrees with the locally derived one.
    """
    payload: Dict[str, Any] = {
        "token_version": SHARD_TOKEN_VERSION,
        "campaign": campaign_key,
        "shards": shards,
        "shard_index": shard_index,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def shard_store_path(
    store_path: Union[str, Path], shards: int, shard_index: int
) -> str:
    """The conventional per-shard store file beside a canonical store path.

    ``campaigns.sqlite`` becomes ``campaigns.shard0of3.sqlite`` and so on —
    purely a naming convention (any path works; shard identity lives in the
    store rows, not the filename), shared by :func:`run_sharded_campaign`
    and the docs/CI recipes so the artifacts are recognisable.
    """
    if not 0 <= shard_index < shards:
        raise ValueError(
            f"shard_index must be in [0, shards), got shard {shard_index} "
            f"of {shards}"
        )
    path = Path(store_path)
    return str(path.with_name(f"{path.stem}.shard{shard_index}of{shards}{path.suffix}"))


def run_sharded_campaign(
    program: "Program",
    config: "CampaignConfig",
    backend_factory: Any = None,
    *,
    shards: int,
    store_path: Union[str, Path, None] = None,
) -> "MergeReport":
    """Run every shard of a campaign in this process, then merge the stores.

    The in-process reference pipeline for the sharded workflow (each shard
    normally runs as its own ``repro campaign run --shards N --shard-index i``
    process): shard *i* executes against ``shard_store_path(store, N, i)``
    with the same configuration, and the partial stores are folded into the
    canonical store at *store_path* (default: ``config.store_path``) by
    :func:`repro.store.merge.merge_stores`, whose conflict detection and
    coverage checks gate the merge.  Returns the merge report.
    """
    # Imported lazily: campaign.py and the store subsystem import this
    # module for the partition helpers, so the orchestration layer must not
    # import them back at module load.
    from repro.engine.backend import Leon3RtlBackend
    from repro.engine.campaign import CampaignEngine
    from repro.store.merge import donate_artifacts, merge_stores

    if backend_factory is None:
        backend_factory = Leon3RtlBackend
    canonical = store_path if store_path is not None else config.store_path
    if canonical is None:
        raise ValueError(
            "run_sharded_campaign needs a canonical store path "
            "(config.store_path or the store_path argument)"
        )
    shard_paths: List[str] = []
    for shard_index in range(shards):
        path = shard_store_path(canonical, shards, shard_index)
        shard_config = dataclasses.replace(
            config, shards=shards, shard_index=shard_index, store_path=path
        )
        if shard_paths:
            # Seed this shard's store with the golden recording the first
            # shard published, so all N shards of the campaign share a
            # single golden execution (content addressing makes the copy a
            # no-op if this shard would derive different bytes).
            donate_artifacts(path, shard_paths[0])
        CampaignEngine(
            program, shard_config, backend_factory=backend_factory
        ).run()
        shard_paths.append(path)
    return merge_stores(canonical, shard_paths)
