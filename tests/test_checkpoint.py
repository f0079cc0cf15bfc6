"""Bit-identity of the checkpointed transient runtime.

The contract (mirroring ``test_fastpath.py``/``test_fastcore.py``): for every
workload in the registry, on both backends, a transient fault executed
through fork-from-checkpoint — early-convergence exit included — yields a
:class:`~repro.engine.backend.RunResult` identical on every observable to
the naive from-reset execution of the same fault.  The golden recorded by
the ladder must equal a plain golden run, and the campaign layers (plans,
schedulers, store) must preserve all of it.
"""

import functools
import random

import pytest

from repro.engine.backend import IssBackend, Leon3RtlBackend, watchdog_budget
from repro.engine.campaign import CampaignConfig, CampaignEngine
from repro.engine.checkpoint import (
    ADAPTIVE_BASE_INTERVAL,
    MAX_RUNGS,
    assert_run_results_identical,
    make_checkpoint_runner,
)
from repro.engine.jobs import TransientJob, plan_transient_jobs
from repro.rtl.faults import FaultModel, TransientFault
from repro.rtl.sites import FaultSite
from repro.workloads import all_workloads, build_program

MAX_INSTRUCTIONS = 400_000

#: Workloads exercised by the exhaustive registry sweep.
REGISTRY = sorted(all_workloads())


def _backend(kind: str):
    backend = Leon3RtlBackend() if kind == "rtl" else IssBackend()
    return backend


def _horizon(backend, golden) -> int:
    return golden.cycles if backend.transient_unit == "cycles" else (
        golden.instructions
    )


def _check_workload(kind: str, name: str, sites: int = 4, windows: int = 2):
    """From-reset vs fork-from-checkpoint on every sampled fault of *name*."""
    program = build_program(name)
    backend = _backend(kind)
    backend.prepare(program)
    golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
    assert golden.normal_exit
    budget = watchdog_budget(golden.instructions)
    runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
    assert runner is not None
    # The ladder's golden is the plain golden run, bit for bit.
    assert_run_results_identical(golden, runner.golden())
    horizon = _horizon(backend, golden)
    site_list = backend.sites.sample(sites, seed=5, storage_only=True)
    rng = random.Random(name)
    for site in site_list:
        for _ in range(windows):
            fault = TransientFault(
                site, start_cycle=rng.randrange(horizon), duration=1
            )
            reference = backend.run(max_instructions=budget, faults=[fault])
            forked = runner.run_transient(fault, budget)
            assert_run_results_identical(reference, forked)
    assert runner.forks == len(site_list) * windows


@pytest.mark.parametrize("workload", REGISTRY)
def test_iss_fork_bit_identity_across_registry(workload):
    _check_workload("iss", workload)


@pytest.mark.parametrize("workload", REGISTRY)
def test_rtl_fork_bit_identity_across_registry(workload):
    _check_workload("rtl", workload)


class TestGoldenSplice:
    """The fault-free corner: a flip that cannot disturb anything must take
    the early exit and splice a result identical to the golden run."""

    @pytest.mark.parametrize("kind", ["iss", "rtl"])
    def test_dead_cell_flip_splices_golden(self, kind):
        program = build_program("rspeed")
        backend = _backend(kind)
        backend.prepare(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        budget = watchdog_budget(golden.instructions)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        # Cell 0 of either storage universe is %g0: reads short-circuit to 0
        # without touching the array, so the upset is invisible.
        net = "regfile" if kind == "iss" else "rf.cells"
        unit = "arch.regfile" if kind == "iss" else "iu.regfile"
        fault = TransientFault(
            FaultSite(net=net, bit=3, unit=unit, index=0),
            start_cycle=_horizon(backend, golden) // 2,
        )
        reference = backend.run(max_instructions=budget, faults=[fault])
        forked = runner.run_transient(fault, budget)
        assert_run_results_identical(reference, forked)
        assert_run_results_identical(golden, forked)
        assert runner.early_exits == 1


class TestLadder:
    def test_adaptive_ladder_thins_to_cap(self):
        program = build_program("rspeed", iterations=8)
        backend = IssBackend()
        backend.prepare(program)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        ladder = runner.ladder()
        golden = ladder.golden
        assert golden.instructions > ADAPTIVE_BASE_INTERVAL * MAX_RUNGS
        assert len(ladder.checkpoints) <= MAX_RUNGS + 1
        assert ladder.interval > ADAPTIVE_BASE_INTERVAL
        # Rungs sit on contiguous multiples of the final interval.
        for index, rung in enumerate(ladder.checkpoints):
            assert rung.instructions == index * ladder.interval

    def test_explicit_interval_is_honoured(self):
        program = build_program("intbench")
        backend = IssBackend()
        backend.prepare(program)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS, interval=100)
        ladder = runner.ladder()
        assert ladder.interval == 100
        assert [rung.instructions for rung in ladder.checkpoints[:3]] == [
            0, 100, 200,
        ]

    def test_reference_engines_do_not_checkpoint(self):
        assert not IssBackend(fast=False).supports_checkpoints
        assert not Leon3RtlBackend(fast=False).supports_checkpoints
        assert not IssBackend(detailed_trace=True).supports_checkpoints
        backend = IssBackend(fast=False)
        backend.prepare(build_program("intbench"))
        assert make_checkpoint_runner(backend, MAX_INSTRUCTIONS) is None

    def test_rtl_net_site_forks_from_the_ladder(self):
        program = build_program("intbench")
        backend = Leon3RtlBackend()
        backend.prepare(program)
        golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
        budget = watchdog_budget(golden.instructions)
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        site = backend.core.netlist.site_for("alu.adder.sum", 0)
        fault = TransientFault(site, start_cycle=golden.cycles // 2, duration=4)
        reference = backend.run(max_instructions=budget, faults=[fault])
        forked = runner.run_transient(fault, budget)
        assert_run_results_identical(reference, forked)
        assert runner.forks == 1

    def test_invalid_iss_site_raises_the_backend_error(self):
        # Every site the ISS backend accepts forks; one it rejects raises the
        # same ValueError through the runner as through a from-reset run.
        backend = IssBackend()
        backend.prepare(build_program("intbench"))
        runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
        fault = TransientFault(
            FaultSite(net="rf.cells", bit=0, unit="iu.regfile", index=4),
            start_cycle=10,
        )
        with pytest.raises(ValueError) as direct:
            backend.run(max_instructions=MAX_INSTRUCTIONS, faults=[fault])
        with pytest.raises(ValueError) as forked:
            runner.run_transient(fault, MAX_INSTRUCTIONS)
        assert str(forked.value) == str(direct.value)


@pytest.mark.parametrize("net, bit", [
    ("iu.fe.inst", 19),  # fetch: the decoded op changes
    ("alu.adder.sum", 2),  # ALU datapath
    ("psr.icc", 2),  # latched state
])
def test_rtl_net_transient_fork_bit_identity(net, bit):
    """Net transients fork from the ladder and match from-reset runs."""
    program = build_program("rspeed")
    backend = Leon3RtlBackend()
    backend.prepare(program)
    golden = backend.run(max_instructions=MAX_INSTRUCTIONS)
    budget = watchdog_budget(golden.instructions)
    runner = backend.checkpoint_runner(MAX_INSTRUCTIONS)
    site = backend.core.netlist.site_for(net, bit)
    rng = random.Random(net)
    windows = [(0, 1)] + [
        (rng.randrange(golden.cycles), duration) for duration in (1, 4, 1, 60)
    ]
    for start, duration in windows:
        fault = TransientFault(site, start_cycle=start, duration=duration)
        reference = backend.run(max_instructions=budget, faults=[fault])
        forked = runner.run_transient(fault, budget)
        assert_run_results_identical(reference, forked)
    assert runner.forks == len(windows)


class TestTransientPlanning:
    def test_plan_is_deterministic_and_sorted(self):
        sites = [FaultSite("rf.cells", b, "iu.regfile", index=4) for b in range(3)]
        jobs_a = plan_transient_jobs(sites, 5000, windows=4, duration=2,
                                     seed=7, workload="w")
        jobs_b = plan_transient_jobs(sites, 5000, windows=4, duration=2,
                                     seed=7, workload="w")
        assert jobs_a == jobs_b
        starts = [job.start_cycle for job in jobs_a]
        assert starts == sorted(starts)
        assert [job.index for job in jobs_a] == list(range(12))
        assert all(job.duration == 2 for job in jobs_a)
        assert all(0 <= job.start_cycle < 5000 for job in jobs_a)

    def test_different_seed_different_sample(self):
        sites = [FaultSite("rf.cells", 0, "iu.regfile", index=4)]
        jobs_a = plan_transient_jobs(sites, 50_000, 8, 1, seed=1, workload="w")
        jobs_b = plan_transient_jobs(sites, 50_000, 8, 1, seed=2, workload="w")
        assert [j.start_cycle for j in jobs_a] != [j.start_cycle for j in jobs_b]

    def test_transient_job_reporting_bucket(self):
        job = TransientJob(index=0, site=FaultSite("rf.cells", 0, "iu.regfile",
                                                   index=1),
                           start_cycle=10, duration=1, workload="w")
        assert job.fault_model is FaultModel.TRANSIENT
        assert job.fault == TransientFault(job.site, start_cycle=10, duration=1)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            plan_transient_jobs([], 0, 1, 1, seed=0, workload="w")

    def test_transient_config_selects_storage_sites_only(self):
        program = build_program("intbench")
        config = CampaignConfig(
            unit_scope="iu", sample_size=40, transient_windows=1
        )
        engine = CampaignEngine(program, config)
        sites = engine.select_sites()
        assert sites
        assert all(site.index is not None for site in sites)


class TestCampaignIntegration:
    # One named test per backend (not a parametrization), so the RTL test
    # keeps its established id.
    def test_serial_equals_parallel_transient_campaign(self):
        self._check_serial_equals_parallel("rtl")

    def test_serial_equals_parallel_iss_transient_campaign(self):
        self._check_serial_equals_parallel("iss")

    @staticmethod
    def _check_serial_equals_parallel(kind):
        program = build_program("intbench")
        base = {
            "unit_scope": "iu" if kind == "rtl" else "arch.regfile",
            "sample_size": 5, "seed": 3, "transient_windows": 2,
        }
        factory = Leon3RtlBackend if kind == "rtl" else IssBackend
        serial = CampaignEngine(
            program, CampaignConfig(**base), backend_factory=factory
        ).run()
        parallel = CampaignEngine(
            program,
            CampaignConfig(**base, n_workers=2, scheduler="process"),
            backend_factory=factory,
        ).run()
        left = serial[FaultModel.TRANSIENT]
        right = parallel[FaultModel.TRANSIENT]
        assert [o.failure_class for o in left.outcomes] == [
            o.failure_class for o in right.outcomes
        ]
        assert [o.fault for o in left.outcomes] == [
            o.fault for o in right.outcomes
        ]
        assert left.injections == 10

    def test_forked_campaign_equals_reference_core_from_reset(self):
        """The reference core cannot checkpoint, so its campaign runs every
        transient from reset; the fast core's forks (with the early exit)
        must agree outcome for outcome."""
        program = build_program("intbench")
        config = CampaignConfig(
            unit_scope="iu", sample_size=5, seed=3, transient_windows=2
        )
        forked = CampaignEngine(program, config).run()
        from_reset = CampaignEngine(
            program, config,
            backend_factory=functools.partial(Leon3RtlBackend, fast=False),
        ).run()
        assert (
            forked[FaultModel.TRANSIENT].outcomes
            == from_reset[FaultModel.TRANSIENT].outcomes
        )

    def test_transient_campaign_on_reference_interpreter(self):
        """Backends without snapshot support run transients from reset and
        agree with the checkpointed fast path."""
        program = build_program("intbench")
        base = {
            "unit_scope": "arch.regfile",
            "sample_size": 4,
            "seed": 3,
            "transient_windows": 2,
        }
        fast = CampaignEngine(
            program, CampaignConfig(**base), backend_factory=IssBackend
        ).run()
        reference = CampaignEngine(
            program,
            CampaignConfig(**base),
            backend_factory=functools.partial(IssBackend, fast=False),
        ).run()
        assert [
            o.failure_class for o in fast[FaultModel.TRANSIENT].outcomes
        ] == [o.failure_class for o in reference[FaultModel.TRANSIENT].outcomes]


class TestStoreIntegration:
    def test_transient_store_roundtrip_and_cache_hit(self, tmp_path):
        from repro.store import CampaignStore

        program = build_program("intbench")
        store_path = str(tmp_path / "campaigns.sqlite")
        config = CampaignConfig(
            unit_scope="iu", sample_size=4, seed=3, transient_windows=2,
            store_path=store_path,
        )
        first = CampaignEngine(program, config).run()[FaultModel.TRANSIENT]
        second = CampaignEngine(program, config).run()[FaultModel.TRANSIENT]
        assert [o.failure_class for o in first.outcomes] == [
            o.failure_class for o in second.outcomes
        ]
        assert [o.fault for o in first.outcomes] == [
            o.fault for o in second.outcomes
        ]
        with CampaignStore(store_path) as store:
            counters = store.counters()
            assert counters["campaign_hits"] == 1
            assert counters["jobs_executed"] == 8
            assert counters["jobs_cached"] == 8
            (info,) = store.list_campaigns()
            records = store.stored_records(info.key)
        assert all(isinstance(record.job, TransientJob) for record in records)
        assert [record.job for record in records] == [
            TransientJob(
                index=outcome_index,
                site=outcome.fault.site,
                start_cycle=outcome.fault.start_cycle,
                duration=outcome.fault.duration,
                workload="intbench",
            )
            for outcome_index, outcome in enumerate(first.outcomes)
        ]

    def test_permanent_key_is_byte_identical_to_pre_transient_era(self):
        """The transient key extension must not move permanent keys: this is
        the exact key PR 2..4 stored rspeed/sample8/seed7 campaigns under."""
        program = build_program("rspeed")
        engine = CampaignEngine(
            program, CampaignConfig(sample_size=8, seed=7)
        )
        assert engine.store_key() == (
            "5acce84097c754ea00e3c4196e2da8a32df18b74f5e12fa660f98fb2d2d01e17"
        )

    def test_transient_key_differs_from_permanent(self):
        program = build_program("intbench")
        permanent = CampaignEngine(
            program, CampaignConfig(unit_scope="iu", sample_size=4, seed=3)
        ).store_key()
        transient = CampaignEngine(
            program,
            CampaignConfig(
                unit_scope="iu", sample_size=4, seed=3, transient_windows=2
            ),
        ).store_key()
        assert permanent != transient
