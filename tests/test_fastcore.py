"""Fast LEON3 cycle engine: bit-identity contract, fault compilation, plumbing.

The fast cycle engine's whole value proposition is that it is *not* a second
implementation of the structural model from the campaign's point of view:
every observable must match the reference core bit for bit.  These tests
enforce that contract across the workload registry, fault-free and under
injected faults (storage-array sites and net sites, both native; the
exhaustive per-net sweep lives in ``test_native_nets.py``), plus the
specialisation-cache invalidation rules,
the backend/config/store plumbing of the ``fast`` flag, and the
result-transparency fix the contract depends on.
"""

import contextlib
import functools

import pytest

from conftest import SMALL_PROGRAM_SOURCE

from repro.engine import CampaignConfig, CampaignEngine, Leon3RtlBackend
from repro.engine.backend import watchdog_budget
from repro.isa.assembler import assemble
from repro.leon3.core import Leon3Core
from repro.leon3.fastcore import (
    Leon3FastCore,
    assert_rtl_results_identical,
    run_program_fast_rtl,
    verify_rtl_bit_identity,
)
from repro.rtl.faults import ALL_FAULT_MODELS, FaultModel, PermanentFault
from repro.rtl.sites import FaultSite
from repro.store.keys import backend_identity
from repro.workloads.registry import all_workloads, build_program


def _sampled_faults():
    """Site x model pairs drawn from both campaign scopes plus edge sites."""
    universe = Leon3Core().sites
    sites = universe.sample(6, units=["iu"], seed=5)
    sites += universe.sample(6, units=["cmem"], seed=7)
    # Handpicked sites covering every array and two tapped nets.
    sites += [
        FaultSite(net="rf.cells", bit=3, unit="iu.regfile", index=38),  # %sp cell
        FaultSite(net="icache.data", bit=13, unit="cmem.icache", index=17),
        FaultSite(net="icache.tags", bit=2, unit="cmem.icache", index=1),
        FaultSite(net="dcache.valid", bit=0, unit="cmem.dcache", index=4),
        FaultSite(net="psr.icc", bit=2, unit="iu.psr"),  # latched state net
        FaultSite(net="alu.adder.sum", bit=0, unit="iu.alu.adder"),  # datapath net
    ]
    pairs = []
    for index, site in enumerate(sites):
        # Rotate through the three models so every model sees every site kind
        # without tripling the runtime.
        model = ALL_FAULT_MODELS[index % len(ALL_FAULT_MODELS)]
        pairs.append(pytest.param(
            PermanentFault(site=site, model=model),
            id=f"{model.value}-{site.net}"
               f"{'' if site.index is None else f'[{site.index}]'}b{site.bit}",
        ))
    return pairs


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(all_workloads()))
    def test_every_registered_workload_fault_free(self, name):
        program = all_workloads()[name].build()
        reference, fast = verify_rtl_bit_identity(program, max_instructions=400_000)
        assert reference.normal_exit

    @pytest.mark.parametrize("fault", _sampled_faults())
    def test_under_injected_faults(self, fault):
        program = build_program("rspeed")
        verify_rtl_bit_identity(program, faults=[fault], max_instructions=8_000)

    @pytest.mark.parametrize("fault", [
        PermanentFault(
            site=FaultSite(net="dcache.data", bit=7, unit="cmem.dcache", index=40),
            model=FaultModel.STUCK_AT_1,
        ),
        PermanentFault(
            site=FaultSite(net="rf.cells", bit=31, unit="iu.regfile", index=24),
            model=FaultModel.OPEN_LINE,
        ),
    ], ids=["dcache-data", "rf-open-line"])
    @pytest.mark.parametrize("name", ["membench", "intbench"])
    def test_injected_faults_on_other_workloads(self, name, fault):
        program = build_program(name)
        verify_rtl_bit_identity(program, faults=[fault], max_instructions=8_000)

    def test_watchdog_truncated_runs(self):
        program = build_program("rspeed")
        for budget in (1, 37, 500):
            reference, fast = verify_rtl_bit_identity(
                program, max_instructions=budget
            )
            assert not reference.halted  # budget exhaustion, not a trap

    def test_detailed_trace_runs_identically(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference, fast = verify_rtl_bit_identity(program, detailed_trace=True)
        assert fast.trace.records  # detailed records were produced and compared

    def test_non_default_cache_geometry(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        verify_rtl_bit_identity(
            program, icache_lines=4, dcache_lines=8, words_per_line=4
        )

    def test_run_program_fast_matches_reference_helper(self):
        from repro.leon3.core import run_program_rtl

        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        reference = run_program_rtl(program)
        fast = run_program_fast_rtl(program)
        assert fast.transactions == reference.transactions
        assert fast.trace == reference.trace
        assert fast.exit_code == reference.exit_code
        assert fast.cycles == reference.cycles


class TestTrapCorners:
    """Every trap path of the pipeline, asserted bit-identical."""

    @pytest.mark.parametrize("body, expected_kind", [
        ("        ta      1\n", "software_trap"),
        ("        set     bogus, %o0\n        jmpl    %o0, 0, %g0\n"
         "        nop\n", "illegal_instruction"),  # jump into undecodable data
        ("        set     3, %o0\n        jmpl    %o0, 0, %g0\n        nop\n",
         "memory"),  # misaligned jump target
        ("        mov     0, %o1\n        udiv    %o0, %o1, %o2\n",
         "division_by_zero"),
        ("        " + "save    %sp, -64, %sp\n        " * 9 + "nop\n", "window"),
        ("        restore\n", "window"),
        ("        ld      [%g0 + 1], %o0\n", None),  # decodes, misaligned access
    ], ids=["software-trap", "illegal", "jmpl-misaligned", "div-zero",
            "save-overflow", "restore-underflow", "misaligned-load"])
    def test_trap_kinds_match(self, body, expected_kind):
        source = (
            "        .text\n" + body + "        ta      0\n"
            "        .data\nbogus:\n        .word   0x01800000\n"  # op2=6
        )
        program = assemble(source, name="trap-corner")
        reference, fast = verify_rtl_bit_identity(program, max_instructions=100)
        if expected_kind is not None:
            assert reference.trap_kind == expected_kind
        else:
            assert reference.trap_kind is not None

    def test_io_accesses_match(self):
        source = """
        .text
        set     0x80000010, %l0
        mov     0x5A, %o0
        st      %o0, [%l0]
        stb     %o0, [%l0 + 4]
        sth     %o0, [%l0 + 6]
        ld      [%l0], %o1
        ldub    [%l0 + 4], %o2
        std     %o2, [%l0 + 8]
        ldd     [%l0 + 8], %o4
        ta      0
"""
        program = assemble(source, name="io")
        reference, fast = verify_rtl_bit_identity(program, max_instructions=100)
        assert any(t.kind == "io" for t in reference.transactions)

    def test_subword_and_signed_memory_ops_match(self):
        source = """
        .text
        set     buffer, %l0
        mov     0x8F, %o0
        stb     %o0, [%l0 + 1]
        sth     %o0, [%l0 + 2]
        ldsb    [%l0 + 1], %o1
        ldsh    [%l0 + 2], %o2
        ldub    [%l0 + 1], %o3
        lduh    [%l0 + 2], %o4
        st      %o1, [%l0 + 4]
        ta      0
        .data
buffer:
        .space  16
"""
        program = assemble(source, name="subword")
        reference, fast = verify_rtl_bit_identity(program, max_instructions=100)
        assert reference.normal_exit


class TestSpecialisationCache:
    def test_loops_specialise_each_pc_once(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        core = Leon3FastCore()
        core.load_program(program)
        result = core.run(max_instructions=10_000)
        assert result.normal_exit
        assert core.decode_fills < result.instructions
        assert core.decode_fills == len(core._op_cache)

    def test_store_to_code_page_stays_identical(self):
        # The RTL model's icache is not coherent with stores: patching an
        # already-cached instruction leaves the *stale* word executing while
        # the trace decodes the patched memory image.  The fast engine must
        # replicate both halves of that behaviour exactly.
        from repro.isa import encoding
        from repro.isa.encoding import OP_ARITH

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
        reference, fast = verify_rtl_bit_identity(program)
        out_values = [t.value for t in fast.transactions if t.value in (1, 7)]
        # Both passes execute the stale cached instruction (unlike the ISS,
        # whose store invalidates its decode cache *and* its "icache" is the
        # memory image itself).
        assert out_values == [1, 1]

    def test_reload_restores_patched_memory(self):
        core = Leon3FastCore()
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        core.load_program(program)
        first = core.run(max_instructions=10_000)
        core.reload()
        second = core.run(max_instructions=10_000)
        assert first.transactions == second.transactions
        assert first.cycles == second.cycles


@contextlib.contextmanager
def _reference_runs_forbidden():
    """Fail the test if anything runs the reference core meanwhile."""

    def run(self, max_instructions=200_000):
        raise AssertionError("the fast core ran the reference core")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Leon3Core, "run", run)
        yield


class TestFaultCompilation:
    def test_array_faults_run_on_the_fast_engine(self):
        core = Leon3FastCore()
        core.load_program(build_program("intbench"))
        site = core.netlist.site_for("rf.cells", 5, index=20)
        core.inject([PermanentFault(site=site, model=FaultModel.STUCK_AT_1)])
        assert core._rf_fault is not None
        assert core._net_ops is None  # the untapped run loop

    def test_net_faults_run_natively(self):
        core = Leon3FastCore()
        program = build_program("intbench")
        core.load_program(program)
        site = core.netlist.site_for("alu.adder.sum", 1)
        fault = PermanentFault(site=site, model=FaultModel.STUCK_AT_1)
        core.inject([fault])

        with _reference_runs_forbidden():
            fast = core.run(max_instructions=8_000)

        reference_core = Leon3Core()
        reference_core.load_program(program)
        reference_core.inject([fault])
        reference = reference_core.run(max_instructions=8_000)
        assert_rtl_results_identical(reference_core, reference, core, fast)

    def test_clear_faults_restores_the_fast_engine(self):
        core = Leon3FastCore()
        program = build_program("intbench")
        core.load_program(program)
        core.inject([PermanentFault(
            site=core.netlist.site_for("alu.adder.sum", 1),
            model=FaultModel.STUCK_AT_1,
        )])
        assert core._net_ops is not None
        core.run(max_instructions=8_000)
        core.clear_faults()
        core.reload()
        assert core._net_ops is None
        assert core.netlist.active_faults() == []

        with _reference_runs_forbidden():
            fast = core.run(max_instructions=8_000)
        reference_core = Leon3Core()
        reference_core.load_program(program)
        reference = reference_core.run(max_instructions=8_000)
        assert_rtl_results_identical(reference_core, reference, core, fast)

    def test_invalid_sites_fail_loud(self):
        from repro.rtl.netlist import NetlistError

        core = Leon3FastCore()
        core.load_program(build_program("intbench"))
        bogus = FaultSite(net="rf.cells", bit=40, unit="iu.regfile", index=3)
        with pytest.raises(NetlistError):
            core.inject([PermanentFault(site=bogus, model=FaultModel.STUCK_AT_1)])


class TestResultTransparency:
    """Open-line outcomes must not depend on what ran before on the backend.

    Regression test for the ``StorageArray._last_read`` reset: the open-line
    model's "previous value" must start from the post-reset state every run,
    so a backend reused across jobs (every scheduler does this) classifies a
    fault exactly like a fresh one.
    """

    def _entry_valid_fault(self, backend, program):
        # The valid cell of the entry point's icache line is the first cell
        # of its array read in every run — the site where leaked last_read
        # state would be observable.
        cache = (
            backend.core.cmem.icache
            if isinstance(backend.core, Leon3Core)
            else backend.core.icache
        )
        index = (program.entry_point >> cache.index_shift) & (cache.lines - 1)
        site = backend.core.netlist.site_for("icache.valid", 0, index=index)
        return PermanentFault(site=site, model=FaultModel.OPEN_LINE)

    @pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
    def test_reused_backend_matches_fresh_backend(self, fast):
        program = build_program("intbench")
        reused = Leon3RtlBackend(fast=fast)
        reused.prepare(program)
        golden = reused.run(max_instructions=400_000)  # pollutes reused state
        fault = self._entry_valid_fault(reused, program)
        budget = watchdog_budget(golden.instructions)
        from_reused = reused.run(max_instructions=budget, faults=[fault])

        fresh = Leon3RtlBackend(fast=fast)
        fresh.prepare(program)
        from_fresh = fresh.run(max_instructions=budget, faults=[fault])
        assert from_reused == from_fresh


class TestSelection:
    def test_rtl_backend_defaults_to_fast(self):
        assert isinstance(Leon3RtlBackend().core, Leon3FastCore)
        assert isinstance(Leon3RtlBackend(fast=False).core, Leon3Core)

    def test_explicit_core_pins_the_backend(self):
        core = Leon3Core()
        backend = Leon3RtlBackend(core=core)
        assert backend.core is core

    def test_backend_runs_identical_under_fault(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        results = {}
        for fast in (True, False):
            backend = Leon3RtlBackend(fast=fast)
            backend.prepare(program)
            site = backend.sites.sample(1, units=["cmem"], seed=3)[0]
            fault = PermanentFault(site=site, model=FaultModel.STUCK_AT_1)
            results[fast] = backend.run(max_instructions=100_000, faults=[fault])
        assert results[True] == results[False]

    def test_campaign_config_selects_cycle_engine(self):
        program = assemble(SMALL_PROGRAM_SOURCE, name="small")
        config = CampaignConfig(sample_size=2)
        engine = CampaignEngine(
            program, config,
            backend_factory=functools.partial(Leon3RtlBackend, fast=False),
        )
        assert isinstance(engine.backend.core, Leon3Core)
        default_engine = CampaignEngine(program, config)
        assert isinstance(default_engine.backend.core, Leon3FastCore)
        # Both cycle-engine choices share one store identity: the flag is
        # result-transparent and must not fork the campaign cache.
        assert backend_identity("rtl", engine.backend_factory) == backend_identity(
            "rtl", default_engine.backend_factory
        ) == backend_identity("rtl", Leon3RtlBackend)

    def test_geometry_partials_keep_their_own_identity(self):
        bare = backend_identity("rtl", Leon3RtlBackend)
        assert backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, fast=False)
        ) == bare
        assert backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, fast=True)
        ) == bare
        tuned = backend_identity(
            "rtl", functools.partial(Leon3RtlBackend, fast=True, icache_lines=8)
        )
        assert tuned != bare
        assert "icache_lines=8" in tuned
        assert "fast" not in tuned

    def test_object_bound_partials_are_refused(self):
        # Mirrors the ISS-side contract: an object's default repr embeds its
        # memory address (the key never matches again), so object-valued
        # bound arguments must fail loud even with the fast flag present.
        with pytest.raises(ValueError, match="named zero-argument factory"):
            backend_identity(
                "rtl",
                functools.partial(Leon3RtlBackend, fast=True, core=Leon3FastCore()),
            )

    def test_reference_core_campaign_matches_fast(self):
        program = build_program("intbench")
        config = CampaignConfig(
            sample_size=5, fault_models=[FaultModel.STUCK_AT_1], seed=11
        )
        fast_engine = CampaignEngine(program, config)
        reference_engine = CampaignEngine(
            program, config,
            backend_factory=functools.partial(Leon3RtlBackend, fast=False),
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


class TestStoreRoundTrip:
    def test_fast_and_reference_engines_share_one_stored_campaign(self, tmp_path):
        from repro.store import CampaignStore

        program = build_program("intbench")
        store_path = str(tmp_path / "campaigns.db")
        shared = {
            "unit_scope": "cmem", "sample_size": 4,
            "fault_models": [FaultModel.STUCK_AT_1], "seed": 3,
            "store_path": store_path,
        }
        fast_results = CampaignEngine(
            program, CampaignConfig(**shared), backend_factory=Leon3RtlBackend
        ).run()
        with CampaignStore(store_path) as store:
            after_fast = store.counters()
        assert after_fast["jobs_executed"] == 4

        # The reference engine must hit the fast engine's stored campaign:
        # same key, zero new injections, bit-identical outcomes.
        reference_results = CampaignEngine(
            program, CampaignConfig(**shared),
            backend_factory=functools.partial(Leon3RtlBackend, fast=False),
        ).run()
        with CampaignStore(store_path) as store:
            after_reference = store.counters()
        assert after_reference["jobs_executed"] == after_fast["jobs_executed"]
        assert after_reference["jobs_cached"] == after_fast["jobs_cached"] + 4
        assert after_reference["campaign_hits"] == after_fast["campaign_hits"] + 1
        for model in fast_results:
            assert fast_results[model].outcomes == reference_results[model].outcomes
