"""Fast-path ISS interpreter: bit-identity contract, decode cache, dispatch.

The fast interpreter's whole value proposition is that it is *not* a second
implementation of SPARC semantics from the campaign's point of view: every
observable must match the reference interpreter bit for bit.  These tests
enforce that contract across the full workload registry, fault-free and under
injected architectural faults, plus the decode-cache invalidation rule and
the delayed control-transfer corner cases that live in the hot loop.
"""

import functools

import pytest

from conftest import SMALL_PROGRAM_SOURCE

import repro.iss.fastpath as fastpath
from repro.engine import CampaignConfig, CampaignEngine, IssBackend
from repro.engine.backend import ARCH_REGFILE_UNIT
from repro.isa import encoding
from repro.isa.assembler import assemble
from repro.isa.encoding import OP_ARITH
from repro.iss.emulator import Emulator
from repro.iss.fastpath import FastEmulator, verify_bit_identity
from repro.iss.faults import ArchitecturalFault
from repro.iss.memory import Memory
from repro.rtl.faults import FaultModel
from repro.store.keys import backend_identity
from repro.workloads.registry import all_workloads, build_program

EMULATOR_CLASSES = [Emulator, FastEmulator]


def run_on(emulator_cls, source: str, max_instructions: int = 10_000):
    program = assemble(source, name="test")
    emulator = emulator_cls(memory=Memory())
    emulator.load_program(program)
    return emulator.run(max_instructions=max_instructions), emulator


# ---------------------------------------------------------------------------
# Bit-identity: the contract
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_registered_workload_fault_free(self, name):
        program = all_workloads()[name].build()
        reference, fast = verify_bit_identity(program, max_instructions=400_000)
        assert reference.normal_exit

    @pytest.mark.parametrize(
        "fault",
        [
            ArchitecturalFault(register=9, bit=3, model="stuck_at_1"),
            ArchitecturalFault(register=10, bit=0, model="stuck_at_0"),
            ArchitecturalFault(register=14, bit=2, model="stuck_at_1"),
            ArchitecturalFault(register=8, bit=7, model="bit_flip", trigger_index=100),
            ArchitecturalFault(register=22, bit=31, model="bit_flip", trigger_index=7),
        ],
        ids=lambda fault: f"{fault.model}-r{fault.register}b{fault.bit}",
    )
    @pytest.mark.parametrize("name", ["rspeed", "membench", "tblook"])
    def test_under_injected_faults(self, name, fault):
        program = all_workloads()[name].build()
        verify_bit_identity(program, max_instructions=400_000, fault=fault)

    def test_watchdog_truncated_runs(self):
        # Budget exhaustion mid-loop must leave identical partial state.
        program = build_program("rspeed")
        for budget in (1, 37, 500):
            reference, fast = verify_bit_identity(program, max_instructions=budget)
            assert reference.trap is not None and reference.trap.kind == "watchdog"

    def test_run_fast_program_matches_run_program(self):
        from repro.iss.emulator import run_program
        from repro.iss.fastpath import run_fast_program

        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference = run_program(program)
        fast = run_fast_program(program)
        assert fast.transactions == reference.transactions
        assert fast.trace == reference.trace
        assert fast.exit_code == reference.exit_code

    def test_detailed_trace_runs_identically(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference, fast = verify_bit_identity(program, detailed_trace=True)
        assert fast.trace.records  # detailed records were produced and compared


# ---------------------------------------------------------------------------
# Decode cache
# ---------------------------------------------------------------------------


class TestDecodeCache:
    def test_loops_decode_each_pc_once(self):
        result, emulator = run_on(FastEmulator, SMALL_PROGRAM_SOURCE)
        assert result.normal_exit
        # The 10-iteration loop re-executes its body from the cache: far
        # fewer decode fills than executed instructions, exactly one fill
        # per cached PC.
        assert emulator.decode_fills < result.instructions
        assert emulator.decode_fills == len(emulator._decode_cache)

    def test_store_to_code_page_invalidates_cached_decode(self):
        # Overwrite an already-executed (hence cached) instruction with
        # "mov 7, %o0" and loop back over it: the fast interpreter must
        # re-decode and execute the patched word, like the reference does.
        patch_word = encoding.Format3Imm(
            op=OP_ARITH, op3=0x02, rd=8, rs1=0, simm13=7
        ).encode()  # or %g0, 7, %o0
        source = f"""
        .text
        set     patch, %o3
        set     {patch_word:#010x}, %o4
        set     out, %l1
        mov     0, %o5
loop:
patch:
        mov     1, %o0
        st      %o0, [%l1]
        cmp     %o5, 0
        bne     done
        nop
        inc     %o5
        st      %o4, [%o3]
        ba      loop
        nop
done:
        ta      0
        .data
out:
        .space  8
"""
        program = assemble(source, name="selfmod")
        reference, fast = verify_bit_identity(program)
        out_values = [
            t.value for t in fast.transactions if t.value in (1, 7)
        ]
        assert out_values == [1, 7]  # pass 1 pre-patch, pass 2 patched

    def test_load_program_flushes_decode_cache(self):
        first = assemble(SMALL_PROGRAM_SOURCE, name="small")
        emulator = FastEmulator(memory=Memory())
        emulator.load_program(first)
        emulator.run()
        assert emulator._decode_cache
        emulator.load_program(assemble("        .text\n        ta 0\n", name="tiny"))
        assert not emulator._decode_cache
        assert not emulator._code_pages


# ---------------------------------------------------------------------------
# SimulationError containment (hot-path bugfix)
# ---------------------------------------------------------------------------


class TestSimulationErrorTrap:
    SOURCE = """
        .text
        mov     3, %o0
        mov     5, %o1
        xnor    %o0, %o1, %o2
        ta      0
"""

    def test_reference_interpreter_traps_instead_of_raising(self, monkeypatch):
        original = Emulator._execute_alu

        def poisoned(self, instruction):
            if instruction.defn.mnemonic == "xnor":
                from repro.iss.emulator import SimulationError

                raise SimulationError("no ALU semantics for xnor")
            return original(self, instruction)

        monkeypatch.setattr(Emulator, "_execute_alu", poisoned)
        result, _ = run_on(Emulator, self.SOURCE)
        assert result.halted
        assert result.trap is not None
        assert result.trap.kind == "simulation_error"

    def test_fast_interpreter_traps_instead_of_raising(self, monkeypatch):
        monkeypatch.setitem(
            fastpath._HANDLER_TABLE, "xnor", fastpath._h_unimplemented
        )
        result, _ = run_on(FastEmulator, self.SOURCE)
        assert result.halted
        assert result.trap is not None
        assert result.trap.kind == "simulation_error"
        assert "xnor" in result.trap.detail


# ---------------------------------------------------------------------------
# Delayed control-transfer corner cases, asserted on both interpreters
# ---------------------------------------------------------------------------


def _cti_program(body: str) -> str:
    return f"""
        .text
        set     out, %l1
        mov     0, %o0
{body}
        st      %o0, [%l1]
        ta      0
        .data
out:
        .space  8
"""


@pytest.mark.parametrize("emulator_cls", EMULATOR_CLASSES, ids=["reference", "fast"])
class TestDelayedControlTransfer:
    def test_taken_ba_annul_skips_delay_slot(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        ba,a    target
        mov     1, %o0                 ! annulled
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 0

    def test_bn_executes_delay_slot(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        bn      target
        mov     1, %o0                 ! delay slot of an untaken branch
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 1

    def test_bn_annul_skips_delay_slot_unconditionally(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        bn,a    target
        mov     1, %o0                 ! annulled: bn,a always annuls
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 0

    def test_untaken_conditional_annul_skips_delay_slot(self, emulator_cls):
        result, _ = run_on(emulator_cls, _cti_program("""
        cmp     %o0, 0                 ! %o0 == 0 -> Z set
        bne,a   target
        mov     1, %o0                 ! annulled because bne is not taken
target:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 0

    def test_branch_in_delay_slot_couples(self, emulator_cls):
        # A taken branch whose delay slot is itself a taken branch: the
        # first target's instruction executes once, then control reaches the
        # second target (the emulators' sequential pc/npc model).
        result, _ = run_on(emulator_cls, _cti_program("""
        ba      first
        ba      second
        nop
first:
        mov     1, %o0                 ! executes between the two transfers
second:
"""))
        assert result.normal_exit
        assert result.transactions[-1].value == 1

    def test_annul_pending_at_watchdog_boundary(self, emulator_cls):
        # `ba,a loop` alternates one executed branch with one annulled slot;
        # the budget expires with an annul pending.  Annulled instructions
        # must consume no budget and the run must end in a watchdog trap.
        source = """
        .text
loop:
        ba,a    loop
        nop
"""
        result, _ = run_on(emulator_cls, source, max_instructions=5)
        assert not result.halted
        assert result.trap is not None and result.trap.kind == "watchdog"
        assert result.instructions == 5
        assert result.trace.opcode_counts == {"ba": 5}

    def test_watchdog_boundary_is_bit_identical(self, emulator_cls):
        if emulator_cls is Emulator:
            pytest.skip("pairwise comparison runs once")
        program = assemble("        .text\nloop:\n        ba,a    loop\n        nop\n",
                           name="annul-loop")
        for budget in (1, 2, 5, 6):
            verify_bit_identity(program, max_instructions=budget)


# ---------------------------------------------------------------------------
# Backend / engine selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_iss_backend_defaults_to_fast(self):
        assert IssBackend().fast is True
        assert IssBackend(fast=False).fast is False

    def test_backend_runs_identical_under_fault(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        results = {}
        for fast in (True, False):
            backend = IssBackend(fast=fast)
            backend.prepare(program)
            site = backend.sites.sample(1, units=[ARCH_REGFILE_UNIT], seed=7)[0]
            from repro.rtl.faults import PermanentFault

            fault = PermanentFault(site=site, model=FaultModel.STUCK_AT_1)
            results[fast] = backend.run(max_instructions=100_000, faults=[fault])
        fast_result, reference_result = results[True], results[False]
        assert fast_result.transactions == reference_result.transactions
        assert fast_result.trace == reference_result.trace
        assert fast_result.instructions == reference_result.instructions
        assert fast_result.cycles == reference_result.cycles
        assert fast_result.halted == reference_result.halted
        assert fast_result.exit_code == reference_result.exit_code
        assert fast_result.trap_kind == reference_result.trap_kind

    def test_campaign_config_selects_interpreter(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        config = CampaignConfig(unit_scope=ARCH_REGFILE_UNIT, sample_size=2)
        engine = CampaignEngine(
            program, config,
            backend_factory=functools.partial(IssBackend, fast=False),
        )
        assert engine.backend.fast is False
        default_engine = CampaignEngine(program, config, backend_factory=IssBackend)
        assert default_engine.backend.fast is True
        # Both interpreter choices share one store identity: the flag is
        # result-transparent and must not fork the campaign cache.
        assert backend_identity("iss", engine.backend_factory) == backend_identity(
            "iss", default_engine.backend_factory
        ) == backend_identity("iss", IssBackend)

    def test_result_affecting_partials_get_their_own_identity(self):
        # Only the ISS interpreter flags are result-transparent: a partial
        # binding anything else (e.g. RTL cache geometry) must not alias the
        # bare factory's stored campaigns.
        from repro.engine import Leon3RtlBackend

        bare = backend_identity("rtl", Leon3RtlBackend)
        tuned = backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, icache_lines=8)
        )
        assert tuned != bare
        assert "icache_lines=8" in tuned
        # Every IssBackend partial collapses to the bare class: its only
        # constructor parameters are the result-transparent interpreter flags.
        for factory in (
            functools.partial(IssBackend, fast=False),
            functools.partial(IssBackend, True),
            functools.partial(IssBackend, False, False),
        ):
            assert backend_identity("iss", factory) == backend_identity(
                "iss", IssBackend
            )

    def test_object_bound_partials_are_refused(self):
        # An object's default repr embeds its memory address (key never
        # matches again), and rendering by type would alias
        # differently-configured instances (silently serving wrong stored
        # results) — so object-valued bound arguments must fail loud.
        from repro.engine import Leon3RtlBackend
        from repro.leon3.core import Leon3Core

        with pytest.raises(ValueError, match="named zero-argument factory"):
            backend_identity(
                "rtl", functools.partial(Leon3RtlBackend, core=Leon3Core())
            )
        # Class-valued bound arguments are fine: qualified names are stable.
        identity = backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, core_cls=Leon3Core)
        )
        assert "Leon3Core" in identity and "0x" not in identity

    def test_reused_faulty_emulators_stay_identical_after_reset(self):
        # reset() restarts the experiment on both interpreters: the transient
        # flip re-arms, and the second run matches bit for bit.
        from repro.iss.faults import _FaultyEmulator

        program = build_program("rspeed")
        fault = ArchitecturalFault(register=9, bit=5, model="bit_flip",
                                   trigger_index=40)
        reference = _FaultyEmulator(fault, memory=Memory())
        fast = FastEmulator(memory=Memory(), fault=fault)
        for emulator in (reference, fast):
            emulator.load_program(program)
            emulator.run(max_instructions=100_000)
            emulator.reset(entry_point=program.entry_point)
        second_reference = reference.run(max_instructions=100_000)
        second_fast = fast.run(max_instructions=100_000)
        fastpath.assert_results_identical(
            reference, second_reference, fast, second_fast
        )
        assert reference._flip_done and fast._flip_done

    def test_reference_interpreter_campaign_matches_fast(self):
        program = build_program("rspeed")
        config = CampaignConfig(
            unit_scope=ARCH_REGFILE_UNIT,
            sample_size=6,
            fault_models=[FaultModel.STUCK_AT_1],
            seed=11,
        )
        fast_engine = CampaignEngine(program, config, backend_factory=IssBackend)
        reference_engine = CampaignEngine(
            program, config,
            backend_factory=functools.partial(IssBackend, fast=False),
        )
        assert reference_engine.store_key() == fast_engine.store_key()
        fast = fast_engine.run()
        reference = reference_engine.run()
        for model in fast:
            assert fast[model].outcomes == reference[model].outcomes
            assert (
                fast[model].failure_probability
                == reference[model].failure_probability
            )
