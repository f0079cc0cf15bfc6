"""Dormant-fault pruning of permanent campaigns (``repro.engine.pruning``).

The contract under test:

* **pruned == simulated** — a fast-engine campaign, which resolves dormant
  storage-array jobs from the golden read summary, stores exactly the
  outcomes (class, detection cycle, instruction count) and renders exactly
  the report bytes of the same campaign on the reference engine, which
  simulates every job.  Serial, on a two-worker pool, and as three shards
  folded by ``repro store merge``.
* **Activation oracle** — whenever the predicate calls a fault dormant, the
  reference core's from-reset faulty run is identical to its golden run.
* **Artifacts** — a summary loaded from the golden artifact prunes the same
  jobs as a freshly recorded one; a golden artifact without a summary (the
  earlier payload layout) serves a bit-identical, unpruned campaign.
* **Telemetry** — ``campaign.jobs_pruned`` counts the pruned jobs, and they
  still count as classified outcomes.
"""

import functools
import json
import multiprocessing

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.engine import CampaignConfig, CampaignEngine, Leon3RtlBackend
from repro.engine.backend import watchdog_budget
from repro.engine.checkpoint import assert_run_results_identical
from repro.engine.pruning import is_dormant
from repro.leon3.fastcore import STORAGE_ARRAYS, _ArrayReadRecorder
from repro.obs.telemetry import TELEMETRY, split_series_name
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel, PermanentFault
from repro.rtl.sites import FaultSite
from repro.store import CampaignStore, report_payload
from repro.store.artifacts import golden_to_payload, pack_artifact
from repro.store.cli import main as cli_main
from repro.workloads import build_program

REFERENCE = functools.partial(Leon3RtlBackend, fast=False)

#: (workload, iterations, unit scope, sample size): IU (register file and
#: nets) and CMEM (cache arrays) scopes, each with dormant and activated jobs.
CAMPAIGNS = {
    "canrdr-cmem": ("canrdr", 1, "cmem", 12),
    "intbench-iu": ("intbench", 1, "iu", 6),
    "excerpt_rspeed-iu": ("excerpt_rspeed", None, "iu", 8),
}


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _config(campaign, **overrides):
    _, _, scope, sample = CAMPAIGNS[campaign]
    return CampaignConfig(unit_scope=scope, sample_size=sample, seed=5, **overrides)


def _program(campaign):
    name, iterations, _, _ = CAMPAIGNS[campaign]
    return build_program(name, iterations=iterations)


def _stored(store_path):
    """(report bytes, outcome signatures) of the store's single campaign."""
    with CampaignStore(store_path) as store:
        (info,) = store.list_campaigns()
        report = json.dumps(report_payload(store, info), indent=2, sort_keys=True)
        signatures = [
            (r.job.index, r.failure_class, r.detection_cycle, r.faulty_instructions)
            for r in store.stored_records(info.key)
        ]
    return report, signatures


@pytest.fixture(scope="module")
def reference_stores(tmp_path_factory):
    """Each campaign run once, unpruned, on the reference engine."""
    stores = {}
    for campaign in CAMPAIGNS:
        path = str(tmp_path_factory.mktemp("reference") / f"{campaign}.sqlite")
        config = _config(campaign, store_path=path, telemetry=False)
        CampaignEngine(_program(campaign), config, backend_factory=REFERENCE).run()
        stores[campaign] = _stored(path)
    return stores


def _pruned_and_executed():
    counters = TELEMETRY.snapshot()["counters"]
    return counters.get("campaign.jobs_pruned", 0), counters["campaign.jobs_executed"]


class TestPrunedEqualsSimulated:
    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_serial(self, campaign, reference_stores, tmp_path):
        path = str(tmp_path / "fast.sqlite")
        CampaignEngine(_program(campaign), _config(campaign, store_path=path)).run()
        pruned, executed = _pruned_and_executed()
        assert 0 < pruned < executed  # both paths taken: the check is not vacuous
        assert _stored(path) == reference_stores[campaign]

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_two_workers(self, campaign, reference_stores, tmp_path):
        path = str(tmp_path / "pool.sqlite")
        config = _config(campaign, store_path=path, n_workers=2)
        CampaignEngine(_program(campaign), config).run()
        assert _pruned_and_executed()[0] > 0
        assert _stored(path) == reference_stores[campaign]

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
    def test_three_shards_merged(self, campaign, reference_stores, tmp_path):
        paths = []
        for index in range(3):
            path = str(tmp_path / f"shard{index}.sqlite")
            config = _config(campaign, store_path=path, shards=3, shard_index=index)
            CampaignEngine(_program(campaign), config).run()
            paths.append(path)
        merged = str(tmp_path / "merged.sqlite")
        assert cli_main(["store", "merge", merged, *paths]) == 0
        assert _stored(merged) == reference_stores[campaign]

    def test_all_dormant_campaign_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("an all-dormant campaign started a pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        config = CampaignConfig(unit_scope="cmem", sample_size=6, seed=1, n_workers=2)
        results = CampaignEngine(build_program("excerpt_rspeed"), config).run()
        assert _pruned_and_executed() == (18, 18)
        assert all(result.failures == 0 for result in results.values())

    def test_reference_engine_never_prunes(self):
        config = _config("excerpt_rspeed-iu")
        CampaignEngine(_program("excerpt_rspeed-iu"), config, REFERENCE).run()
        assert "campaign.jobs_pruned" not in TELEMETRY.snapshot()["counters"]


# -- activation oracle --------------------------------------------------------------

ORACLE_PROGRAMS = (
    ("canrdr", 1),
    ("intbench", 1),
    ("membench", 1),
    ("excerpt_rspeed", None),
)
MAX_INSTRUCTIONS = 400_000


@functools.lru_cache(maxsize=None)
def _oracle_setup(name, iterations):
    """(reference backend, reference golden, fast-engine read summary)."""
    program = build_program(name, iterations=iterations)
    fast = Leon3RtlBackend()
    fast.prepare(program)
    fast_golden, reads = fast.golden_with_reads(MAX_INSTRUCTIONS)
    reference = Leon3RtlBackend(fast=False)
    reference.prepare(program)
    golden = reference.run(MAX_INSTRUCTIONS)
    assert_run_results_identical(golden, fast_golden)
    return reference, golden, reads


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(data=st.data())
def test_dormant_faults_leave_the_reference_run_golden(data):
    reference, golden, reads = _oracle_setup(*data.draw(st.sampled_from(ORACLE_PROGRAMS)))
    name = data.draw(st.sampled_from(STORAGE_ARRAYS))
    ones, zeros, _ = reads[name]
    # A cell the golden run reads: a never-read cell is trivially dormant.
    read_cells = [cell for cell in range(len(ones)) if ones[cell] | zeros[cell]]
    cell = data.draw(
        st.sampled_from(read_cells) if read_cells else st.integers(0, len(ones) - 1)
    )
    array = reference.core.netlist.array(name)
    bit = data.draw(st.integers(0, array.width - 1))
    model = data.draw(st.sampled_from(ALL_FAULT_MODELS))
    fault = PermanentFault(reference.core.netlist.site_for(name, bit, cell), model)
    assume(is_dormant(reads, fault))
    faulty = reference.run(watchdog_budget(golden.instructions), faults=[fault])
    assert_run_results_identical(golden, faulty)


def test_open_line_latch_is_per_array():
    """Cell 0 always reads 1, but the read before it (cell 1) read 0: an
    open line on cell 0 retains that 0, so it is activated even though a
    stuck-at-1 there is dormant."""
    recorder = _ArrayReadRecorder(width=1, cells=2)
    for cell, value in ((0, 1), (1, 0), (0, 1)):
        assert recorder.read(cell, value) == value
    reads = {"dcache.valid": recorder.masks()}
    assert reads["dcache.valid"] == ([1, 0], [0, 1], [1, 1])

    def dormant(cell, model):
        site = FaultSite(net="dcache.valid", bit=0, unit="cmem.dcache", index=cell)
        return is_dormant(reads, PermanentFault(site, model))

    assert dormant(0, FaultModel.STUCK_AT_1)
    assert not dormant(0, FaultModel.STUCK_AT_0)
    assert not dormant(0, FaultModel.OPEN_LINE)
    assert dormant(1, FaultModel.STUCK_AT_0)
    assert not dormant(1, FaultModel.OPEN_LINE)


def test_summary_covers_every_array_cell():
    _, _, reads = _oracle_setup("excerpt_rspeed", None)
    netlist = Leon3RtlBackend(fast=False).core.netlist
    assert set(reads) == set(STORAGE_ARRAYS)
    for name, masks in reads.items():
        array = netlist.array(name)
        for mask in masks:
            assert len(mask) == array.cells
            assert all(0 <= value <= (1 << array.width) - 1 for value in mask)


# -- artifacts ------------------------------------------------------------------------


class TestArtifactSummary:
    def test_loaded_summary_prunes_the_same_jobs(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        program = _program("canrdr-cmem")
        cold = CampaignEngine(program, _config("canrdr-cmem", store_path=path))
        cold.run()
        cold_counters = TELEMETRY.snapshot()["counters"]
        warm = CampaignEngine(
            program, _config("canrdr-cmem", store_path=path, resume=False)
        )
        warm.run()
        warm_counters = TELEMETRY.snapshot()["counters"]
        assert warm_counters.get("golden.cache.miss", 0) == 0
        assert warm_counters["golden.cache.hit"] >= 1

        def dormant(engine):
            return [
                job.index
                for job in engine._identity().jobs
                if is_dormant(engine._reads, job.fault)
            ]

        assert dormant(warm) == dormant(cold)
        assert warm_counters["campaign.jobs_pruned"] == len(dormant(cold)) > 0
        assert cold_counters["campaign.jobs_pruned"] == len(dormant(cold))

    def test_summary_less_golden_serves_an_unpruned_identical_campaign(
        self, tmp_path
    ):
        program = _program("canrdr-cmem")
        pruned_path = str(tmp_path / "pruned.sqlite")
        CampaignEngine(program, _config("canrdr-cmem", store_path=pruned_path)).run()

        # A golden artifact in the earlier layout: no "reads" field.
        path = str(tmp_path / "old-artifact.sqlite")
        engine = CampaignEngine(program, _config("canrdr-cmem", store_path=path))
        backend = Leon3RtlBackend()
        backend.prepare(program)
        golden = backend.run(MAX_INSTRUCTIONS)
        with CampaignStore(path) as store:
            store.artifact_put(
                engine.artifact_address(), "golden", program.name, "rtl",
                pack_artifact(golden_to_payload(golden)),
            )
        engine.run()
        counters = TELEMETRY.snapshot()["counters"]
        assert counters["golden.cache.hit"] == 1
        assert counters.get("campaign.jobs_pruned", 0) == 0
        assert _stored(path) == _stored(pruned_path)


# -- telemetry ------------------------------------------------------------------------


class TestTelemetry:
    def test_pruned_jobs_count_as_classified_outcomes(self):
        CampaignEngine(_program("intbench-iu"), _config("intbench-iu")).run()
        counters = TELEMETRY.snapshot()["counters"]
        outcomes = sum(
            value
            for series, value in counters.items()
            if split_series_name(series)[0] == "engine.outcomes"
        )
        assert outcomes == counters["campaign.jobs_executed"]
        assert 0 < counters["campaign.jobs_pruned"] < outcomes

    def test_cli_shows_pruned_jobs(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        run = ["campaign", "run", "--workload", "rspeed", "--backend", "rtl",
               "--scope", "cmem", "--sites", "4", "--store", path, "--quiet"]
        assert cli_main(run) == 0
        pruned = TELEMETRY.snapshot()["counters"]["campaign.jobs_pruned"]
        assert pruned > 0
        out = capsys.readouterr().out
        assert f"executed 12 injections ({pruned} dormant, not simulated)" in out
        assert cli_main(["campaign", "metrics", "--store", path]) == 0
        out = capsys.readouterr().out
        assert f"pruned: {pruned} of 12 executed jobs" in out
