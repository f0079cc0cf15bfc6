"""Native net-site faults on the fast LEON3 core: the exhaustive gate.

:class:`~repro.leon3.fastcore.Leon3FastCore` applies stuck-at-0, stuck-at-1
and open-line faults on combinational nets itself, through taps that replay
the reference netlist's drives.  This module holds that to bit identity on
*every* bit of *every* declared net under all three permanent models, on a
program that provably drives every net (a drive-recording reference run
asserts the coverage, so the sweep cannot pass vacuously).  It also guards
the per-run fault state against leaking across jobs on a reused backend and
checks transient net faults, which the checkpoint runtime now forks.
"""

import functools
from collections import defaultdict

import pytest

from repro.engine.backend import Leon3RtlBackend, watchdog_budget
from repro.isa.assembler import assemble
from repro.leon3.core import Leon3Core
from repro.leon3.fastcore import (
    Leon3FastCore,
    _core_state,
    assert_rtl_results_identical,
    verify_rtl_bit_identity,
)
from repro.rtl.faults import (
    ALL_FAULT_MODELS,
    FaultModel,
    PermanentFault,
    TransientFault,
)

#: Drives every declared net: every instruction class (sub-word, signed,
#: doubleword and I/O memory accesses, multiply/divide, Y/PSR access,
#: taken/untaken/annulled branches, call/save/restore/ret, the exit trap).
#: It has no counted loop — a datapath fault on a loop counter would hang
#: most runs into the watchdog — so the pcs of ``work`` re-execute through
#: two call sites instead, which exercises the tapped op table's
#: revalidation under history-dependent (open-line) decode faults.
NET_PROGRAM_SOURCE = """
        .text
start:
        set     data, %l0
        set     0x80000000, %l7
        ld      [%l0], %o0
        ld      [%l0 + 4], %o1
        call    work
        nop
        addx    %o0, %o1, %l2
        subcc   %l2, %o0, %l3
        subx    %l3, 3, %l3
        andn    %o0, %l2, %l4
        orn     %l4, 5, %l4
        xnor    %l4, %l3, %l4
        xor     %l4, %o1, %l4
        sll     %l4, 3, %l5
        srl     %l5, %o1, %l5
        sra     %l5, 1, %l5
        smulcc  %l5, -3, %l6
        wr      %g0, 0, %y
        udiv    %l6, %o1, %o3
        sdiv    %o3, -2, %o3
        stb     %o3, [%l0 + 8]
        sth     %o3, [%l0 + 10]
        ldub    [%l0 + 8], %o4
        ldsb    [%l0 + 8], %o5
        lduh    [%l0 + 10], %g2
        ldsh    [%l0 + 10], %g3
        std     %o4, [%l0 + 24]
        ldd     [%l0 + 24], %g4
        call    work
        st      %o0, [%l0 + 16]
        subcc   %o0, %o0, %g0
        bne     skip
        nop
        bne,a   skip
        add     %o0, 1, %o0
        be      skip
        nop
skip:
        ba,a    done
        add     %o0, 2, %o0
done:
        st      %o0, [%l7 + 4]
        ld      [%l7 + 8], %o2
        ta      0

work:
        save    %sp, -96, %sp
        addcc   %i0, %i1, %l1
        umul    %l1, %i0, %i1
        rd      %y, %i0
        ret
        restore

        .data
data:
        .word   0x12345687, 0x9abcdef1
        .space  40
"""


@functools.lru_cache(maxsize=None)
def _program():
    return assemble(NET_PROGRAM_SOURCE, name="net-sweep")


def _net_sites():
    """Every net bit of the ``iu`` + ``cmem`` scopes, grouped by net."""
    by_net = defaultdict(list)
    for site in Leon3Core().sites.iter_sites(["iu", "cmem"]):
        if site.index is None:
            by_net[site.net].append(site)
    return dict(by_net)


NET_SITES = _net_sites()


@functools.lru_cache(maxsize=None)
def _budget() -> int:
    core = Leon3Core()
    core.load_program(_program())
    golden = core.run()
    assert golden.normal_exit
    return watchdog_budget(golden.instructions)


def test_program_drives_every_declared_net():
    core = Leon3Core()
    core.load_program(_program())
    driven = set()
    drive = core.netlist.drive

    def recording_drive(name, value):
        driven.add(name)
        return drive(name, value)

    core.netlist.drive = recording_drive
    assert core.run().normal_exit
    assert len(NET_SITES) == 64
    assert sum(len(sites) for sites in NET_SITES.values()) == 1368
    assert sorted(set(NET_SITES) - driven) == []


@pytest.mark.parametrize("net", sorted(NET_SITES))
def test_every_net_bit_matches_the_reference(net):
    program = _program()
    budget = _budget()
    for site in NET_SITES[net]:
        for model in ALL_FAULT_MODELS:
            fault = PermanentFault(site=site, model=model)
            try:
                verify_rtl_bit_identity(
                    program, faults=[fault], max_instructions=budget
                )
            except AssertionError as exc:
                raise AssertionError(f"{fault.describe()}: {exc}") from exc


@pytest.mark.parametrize("net", sorted(NET_SITES))
def test_transient_net_faults_match_the_reference(net):
    program = _program()
    budget = _budget()
    sites = NET_SITES[net]
    for site in {sites[0], sites[len(sites) // 2], sites[-1]}:
        for start, duration in ((0, 1), (40, 3), (150, 1000)):
            fault = TransientFault(site, start_cycle=start, duration=duration)
            verify_rtl_bit_identity(program, faults=[fault], max_instructions=budget)


class TestCrossJobLeakage:
    """A backend reused across jobs (every scheduler does this) must give
    each job the result of a fresh reference run: no tapped op, tap or
    open-line latch may survive into the next job — the same class of bug
    as the ``_last_read`` leak documented in ``StorageArray.reset``."""

    @staticmethod
    def _jobs(netlist):
        def net(name, bit, model=FaultModel.OPEN_LINE):
            return [PermanentFault(netlist.site_for(name, bit), model)]

        return [
            net("rf.waddr", 1),  # the reset latch (%sp write) is 14
            [],
            [PermanentFault(
                netlist.site_for("rf.cells", 4, index=16), FaultModel.STUCK_AT_1
            )],
            net("iu.de.cond", 3, FaultModel.STUCK_AT_1),  # changes the op
            net("rf.wdata", 4),  # the reset latch is the stack top
            [],
            net("psr.cwp", 0),
            net("iu.de.rd", 0),  # history-dependent decode
            [],
        ]

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_interleaved_jobs_match_fresh_reference_runs(self, order):
        program = _program()
        budget = _budget()
        reused = Leon3RtlBackend()
        reused.prepare(program)
        jobs = self._jobs(reused.core.netlist)
        if order == "reverse":
            jobs.reverse()
        for faults in jobs:
            observed = reused.run(max_instructions=budget, faults=faults)
            fresh = Leon3RtlBackend(fast=False)
            fresh.prepare(program)
            expected = fresh.run(max_instructions=budget, faults=faults)
            label = faults[0].describe() if faults else "fault-free"
            assert observed == expected, label
            assert _core_state(reused.core) == _core_state(fresh.core), label

    @pytest.mark.parametrize("net, bit", [("rf.waddr", 0), ("rf.wdata", 2)])
    def test_open_line_latch_resets_with_the_core(self, net, bit):
        # A lone open line only ever re-latches the bit it started from; a
        # flip of the first drive makes the latch end elsewhere, so a latch
        # that failed to reset would show in the second run.
        program = _program()
        budget = _budget()
        core = Leon3FastCore()
        core.load_program(program)
        site = core.netlist.site_for(net, bit)
        faults = [
            PermanentFault(site, FaultModel.OPEN_LINE),
            TransientFault(site, start_cycle=0, duration=1),
        ]
        core.inject(faults)
        first = core.run(max_instructions=budget)
        core.reload()  # faults stay injected; the latch must restart
        second = core.run(max_instructions=budget)

        reference_core = Leon3Core()
        reference_core.load_program(program)
        reference_core.inject(faults)
        reference = reference_core.run(max_instructions=budget)
        assert first == second
        assert_rtl_results_identical(reference_core, reference, core, second)
