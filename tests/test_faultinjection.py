"""Tests for the fault-injection framework (comparison, injection, campaign)."""

import pytest

from repro.engine import CampaignConfig, CampaignEngine, Leon3RtlBackend
from repro.engine.backend import watchdog_budget
from repro.faultinjection.comparison import FailureClass, compare_runs
from repro.faultinjection.results import CampaignResult, InjectionOutcome
from repro.isa.assembler import assemble
from repro.isa.instructions import FunctionalUnit
from repro.iss.trace import OffCoreTransaction
from repro.leon3.core import RtlExecutionResult, run_program_rtl
from repro.rtl.faults import FaultModel, PermanentFault
from repro.rtl.sites import FaultSite

from conftest import SMALL_PROGRAM_SOURCE


def _result_with(transactions, cycles=None, halted=True, trap=None, exit_code=0):
    from repro.iss.trace import ExecutionTrace

    return RtlExecutionResult(
        transactions=list(transactions),
        transaction_cycles=list(cycles if cycles is not None else range(len(transactions))),
        trace=ExecutionTrace(),
        instructions=10,
        cycles=100,
        halted=halted,
        exit_code=exit_code,
        trap_kind=trap,
    )


GOLDEN = _result_with(
    [
        OffCoreTransaction("store", 0x100, 1, 4),
        OffCoreTransaction("store", 0x104, 2, 4),
        OffCoreTransaction("store", 0x108, 3, 4),
    ]
)


class TestComparison:
    def test_identical_runs_are_no_effect(self):
        faulty = _result_with(list(GOLDEN.transactions))
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.NO_EFFECT
        assert not comparison.is_failure

    def test_wrong_data_detected(self):
        transactions = list(GOLDEN.transactions)
        transactions[1] = OffCoreTransaction("store", 0x104, 99, 4)
        comparison = compare_runs(GOLDEN, _result_with(transactions))
        assert comparison.failure_class is FailureClass.WRONG_DATA
        assert comparison.divergence_index == 1

    def test_wrong_address_detected(self):
        transactions = list(GOLDEN.transactions)
        transactions[0] = OffCoreTransaction("store", 0x200, 1, 4)
        comparison = compare_runs(GOLDEN, _result_with(transactions))
        assert comparison.failure_class is FailureClass.WRONG_ADDRESS

    def test_missing_activity_detected(self):
        comparison = compare_runs(GOLDEN, _result_with(GOLDEN.transactions[:1]))
        assert comparison.failure_class is FailureClass.MISSING_ACTIVITY

    def test_extra_activity_detected(self):
        transactions = list(GOLDEN.transactions) + [OffCoreTransaction("store", 0x10C, 4, 4)]
        comparison = compare_runs(GOLDEN, _result_with(transactions))
        assert comparison.failure_class is FailureClass.EXTRA_ACTIVITY

    def test_trap_classified_when_prefix_matches(self):
        faulty = _result_with(GOLDEN.transactions[:2], trap="memory", exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.TRAP

    def test_hang_classified_for_watchdog(self):
        faulty = _result_with(GOLDEN.transactions[:2], halted=False, exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.HANG

    def test_same_stores_but_trap_still_failure(self):
        faulty = _result_with(GOLDEN.transactions, trap="window", exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.is_failure
        assert comparison.failure_class is FailureClass.TRAP

    def test_detection_cycle_reported(self):
        transactions = list(GOLDEN.transactions)
        transactions[2] = OffCoreTransaction("store", 0x108, 7, 4)
        faulty = _result_with(transactions, cycles=[10, 20, 30])
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.detection_cycle == 30


class TestComparisonEdgeCases:
    """Boundary behaviour of the comparator: empty streams, hang truncation
    and self-comparison (the NO_EFFECT fixed point)."""

    def test_both_streams_empty_is_no_effect(self):
        golden = _result_with([])
        faulty = _result_with([])
        comparison = compare_runs(golden, faulty)
        assert comparison.failure_class is FailureClass.NO_EFFECT
        assert comparison.divergence_index is None

    def test_empty_golden_with_extra_faulty_activity(self):
        golden = _result_with([])
        faulty = _result_with([OffCoreTransaction("store", 0x100, 1, 4)])
        comparison = compare_runs(golden, faulty)
        assert comparison.failure_class is FailureClass.EXTRA_ACTIVITY
        assert comparison.divergence_index == 0

    def test_empty_faulty_stream_with_normal_exit_is_missing_activity(self):
        comparison = compare_runs(GOLDEN, _result_with([]))
        assert comparison.failure_class is FailureClass.MISSING_ACTIVITY
        assert comparison.divergence_index == 0

    def test_empty_faulty_stream_from_trap_classified_as_trap(self):
        faulty = _result_with([], trap="memory", exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.TRAP

    def test_empty_streams_but_hung_faulty_run_is_hang(self):
        golden = _result_with([])
        faulty = _result_with([], halted=False, exit_code=None)
        comparison = compare_runs(golden, faulty)
        assert comparison.failure_class is FailureClass.HANG

    def test_hang_truncated_stream_detection_falls_back_to_final_cycle(self):
        # A hang that truncates the stream and carries no per-transaction
        # cycle stamps must still report a detection cycle (the final one).
        faulty = _result_with(
            GOLDEN.transactions[:1], cycles=[], halted=False, exit_code=None
        )
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.HANG
        assert comparison.divergence_index == 1
        assert comparison.detection_cycle == faulty.cycles

    def test_hang_with_empty_truncated_stream_detects_at_first_index(self):
        faulty = _result_with([], halted=False, exit_code=None)
        comparison = compare_runs(GOLDEN, faulty)
        assert comparison.failure_class is FailureClass.HANG
        assert comparison.divergence_index == 0

    def test_golden_self_comparison_is_no_effect(self):
        comparison = compare_runs(GOLDEN, GOLDEN)
        assert comparison.failure_class is FailureClass.NO_EFFECT
        assert not comparison.is_failure
        assert comparison.divergence_index is None
        assert comparison.detection_cycle is None

    def test_real_golden_run_self_comparison_is_no_effect(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="self_cmp")
        golden = run_program_rtl(program, max_instructions=100_000)
        comparison = compare_runs(golden, golden)
        assert comparison.failure_class is FailureClass.NO_EFFECT


class TestResults:
    def _outcome(self, unit="iu.alu.adder", failure=FailureClass.WRONG_DATA, cycle=50):
        site = FaultSite(net="x", bit=0, unit=unit)
        return InjectionOutcome(
            fault=PermanentFault(site, FaultModel.STUCK_AT_1),
            failure_class=failure,
            detection_cycle=cycle,
        )

    def test_failure_probability(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [
            self._outcome(),
            self._outcome(failure=FailureClass.NO_EFFECT),
        ]
        assert result.failure_probability == 0.5
        assert result.failures == 1
        assert result.injections == 2

    def test_empty_campaign_probability_is_zero(self):
        assert CampaignResult("w", FaultModel.STUCK_AT_1, "iu").failure_probability == 0.0

    def test_per_unit_breakdown(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [
            self._outcome(unit="iu.alu.adder"),
            self._outcome(unit="iu.alu.adder", failure=FailureClass.NO_EFFECT),
            self._outcome(unit="iu.alu.shifter", failure=FailureClass.NO_EFFECT),
        ]
        per_unit = result.per_unit_probabilities()
        assert per_unit[FunctionalUnit.ALU_ADDER] == 0.5
        assert per_unit[FunctionalUnit.SHIFTER] == 0.0
        assert result.per_unit_injections()[FunctionalUnit.ALU_ADDER] == 2

    def test_latency_statistics(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [self._outcome(cycle=80), self._outcome(cycle=160)]
        assert result.max_detection_latency_us == pytest.approx(160 / 80e6 * 1e6)
        assert result.mean_detection_latency_us == pytest.approx(120 / 80e6 * 1e6)

    def test_classification_histogram_and_summary(self):
        result = CampaignResult("w", FaultModel.STUCK_AT_1, "iu")
        result.outcomes = [self._outcome(), self._outcome(failure=FailureClass.NO_EFFECT)]
        histogram = result.classification_histogram()
        assert histogram[FailureClass.WRONG_DATA] == 1
        summary = result.summary()
        assert summary["failure_probability"] == 0.5
        assert summary["fault_model"] == "stuck_at_1"


@pytest.fixture(scope="module")
def small_program_module():
    return assemble(SMALL_PROGRAM_SOURCE, name="small")


class TestInjector:
    """Golden and faulty runs of one program: the engine caches its golden
    run, and one backend instance is reused across faulty runs, so each run
    must start from a clean state."""

    @staticmethod
    def _backend(program):
        backend = Leon3RtlBackend()
        backend.prepare(program)
        return backend

    def test_golden_run_cached_and_normal(self, small_program_module):
        engine = CampaignEngine(small_program_module)
        golden = engine.golden_run()
        assert golden.normal_exit
        assert engine.golden_run() is golden

    def test_faulty_budget_exceeds_golden(self, small_program_module):
        golden = self._backend(small_program_module).run(max_instructions=400_000)
        assert golden.normal_exit
        assert watchdog_budget(golden.instructions) > golden.instructions

    def test_run_with_fault_restores_state_for_next_run(self, small_program_module):
        backend = self._backend(small_program_module)
        golden = backend.run(max_instructions=400_000)
        budget = watchdog_budget(golden.instructions)
        site = backend.core.netlist.site_for("alu.adder.sum", 0)
        backend.run(budget, [PermanentFault(site, FaultModel.STUCK_AT_1)])
        # A subsequent clean faulty run with a harmless fault must match golden.
        harmless_site = backend.core.netlist.site_for("alu.div.quotient", 0)
        harmless = PermanentFault(harmless_site, FaultModel.STUCK_AT_1)
        clean = backend.run(budget, [harmless])
        assert len(clean.transactions) == len(golden.transactions)
        assert all(a.matches(b) for a, b in zip(golden.transactions, clean.transactions))

    def test_multi_fault_injection_supported(self, small_program_module):
        backend = self._backend(small_program_module)
        golden = backend.run(max_instructions=400_000)
        netlist = backend.core.netlist
        faults = [
            PermanentFault(netlist.site_for("alu.adder.sum", bit), FaultModel.STUCK_AT_1)
            for bit in (0, 1)
        ]
        result = backend.run(watchdog_budget(golden.instructions), faults)
        assert result.instructions > 0


class TestCampaign:
    def test_campaign_runs_and_reports(self, small_program_module):
        config = CampaignConfig(
            unit_scope="iu", sample_size=12, fault_models=[FaultModel.STUCK_AT_1], seed=1
        )
        results = CampaignEngine(small_program_module, config).run()
        result = results[FaultModel.STUCK_AT_1]
        assert result.injections == 12
        assert 0.0 <= result.failure_probability <= 1.0
        assert result.unit_scope == "iu"
        assert result.simulation_seconds > 0

    def test_same_sites_reused_across_models(self, small_program_module):
        config = CampaignConfig(
            unit_scope="iu",
            sample_size=6,
            fault_models=[FaultModel.STUCK_AT_1, FaultModel.STUCK_AT_0],
            seed=3,
        )
        results = CampaignEngine(small_program_module, config).run()
        sites_sa1 = [o.fault.site for o in results[FaultModel.STUCK_AT_1].outcomes]
        sites_sa0 = [o.fault.site for o in results[FaultModel.STUCK_AT_0].outcomes]
        assert sites_sa1 == sites_sa0

    def test_sampling_is_reproducible(self, small_program_module):
        config = CampaignConfig(unit_scope="iu", sample_size=8, seed=9)
        first = CampaignEngine(small_program_module, config).select_sites()
        second = CampaignEngine(small_program_module, config).select_sites()
        assert first == second

    def test_scope_restricts_sites(self, small_program_module):
        config = CampaignConfig(unit_scope="cmem", sample_size=10, seed=2)
        engine = CampaignEngine(small_program_module, config)
        assert all(site.unit.startswith("cmem") for site in engine.select_sites())
