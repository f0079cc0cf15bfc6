"""Lockstep N-way replica execution: one shared front end, many replicas.

A transient campaign runs hundreds of near-identical replicas of one
workload; after the checkpointed runtime (:mod:`repro.engine.checkpoint`)
removed the redundancy *within* each run, the dominant remaining redundancy
is *across* replicas — every faulty run re-executes a mostly-golden
instruction stream one at a time.  This module removes exactly that
redundancy while staying **bit-identical to the from-reset execution of each
fault** (the same contract the fast interpreters and the checkpoint runtime
honour, enforced by ``tests/test_lockstep.py`` and re-verified by
``benchmarks/bench_lockstep_throughput.py`` before any number is reported):

* **Pack leader** — a pack of N faulty replicas executes through a single
  shared fetch/decode front end: one fault-free :class:`FastEmulator` (the
  *leader*) replays the golden trajectory, and every in-pack replica is
  represented as a sparse *delta* — the physical register slots (plus the
  ``"icc"``/``"y"`` pseudo-slots) where its architectural state differs from
  the leader's.  (The per-replica state arrays of the dense formulation
  degenerate to these deltas precisely because in-pack replicas share the
  leader's control flow and memory image — see the invariant below.)

* **Propagate across the pack** — when an instruction's input set intersects
  a live delta, the shared front end applies the op across the whole pack:
  for ALU-class ops (add/sub/logic/shift/multiply, ``sethi``, ``rd``/``wr``)
  the leader *double-executes* — the replica's delta values are patched into
  the leader's register file (and ICC/Y), the already-resolved handler runs
  once more against them, the replica's outputs are captured, and the leader
  is rolled back exactly — so the replica's divergent results flow into its
  delta without leaving the pack.  Conditional branches compare the
  replica's branch outcome (its delta ICC through the same
  ``evaluate_condition``) against the leader's.  Memory stays shared through
  per-replica *word deltas*: a load whose address agrees with the leader
  reads through the replica's patched view of the one shared image, and a
  store of divergent data lands in the replica's word delta plus a *patched
  store transaction* over the golden off-core stream — the replica's
  observable history with its own store data in place — instead of forking
  the memory image.

* **Demote on divergence** — a replica leaves the pack the moment it stops
  agreeing with the leader's control flow or memory addresses: a different
  branch outcome, a touched op that can trap or redirect control (``jmpl``,
  ``ticc``, division, register-window save/restore), a memory access whose
  *address* registers are touched (the replica accesses somewhere else
  entirely), or any touched access aimed at the I/O region (reads there are
  observable).  The demoted replica is handed to the existing scalar fast
  path at that exact instruction boundary — the leader's captured state plus
  the replica's delta — which runs it forward alone, with the checkpoint
  runtime's golden-tail splice when its convergence digest matches a ladder
  rung.  Demotion *before* the divergent instruction executes is what keeps
  the sparse deltas a complete replica representation.

* **Converge on overwrite** — an instruction whose output set overwrites a
  delta slot with an untouched-input result makes the replica's value equal
  the leader's again, and a propagated result that matches the leader's
  converges the same way (a golden-valued store erases a dirty memory word
  just like a register overwrite erases a register delta).  A transient
  replica whose deltas empty — and whose store history carries no patch, a
  patched history being a permanent observable difference — has re-converged
  to the golden trajectory: since the leader *is* the golden run, its result
  is the golden result — the pack resolves it immediately, without the
  rung-boundary digest wait of the scalar runtime.  This is also how a
  demoted replica "rejoins" the pack: rejoining the golden-replay leader and
  splicing the golden tail are the same operation.

* **Event-driven front end** — the golden trajectory is fixed, so the runner
  records (once, lazily) a *touch timeline*: for every physical slot,
  pseudo-slot and accessed memory word, the sorted executed-instruction
  indices where the golden run reads or writes it.  Between events — the
  next fault trigger and the next
  golden touch of any live delta slot — nothing in the pack can change, so
  the leader fast-forwards at full scalar speed (restoring the latest golden
  ladder rung first, which forks the whole pack from the checkpoint in one
  restore) and the per-instruction pack bookkeeping runs *only* on the
  instructions that can matter.  Replicas whose flip lands in ``%g0`` or in
  a never-touched slot therefore cost almost nothing — exactly the runs
  that are the scalar runtime's worst case (a dead-register flip never
  digest-matches and runs to the golden end).  Packs carrying permanent
  faults re-apply them before every instruction, so those step the golden
  stream instruction by instruction instead.

Per-instruction fault semantics replicate :class:`FastEmulator` exactly:
annulled delay slots are skipped before any fault bookkeeping, a ``bit_flip``
fires once when the executed-instruction count reaches its trigger, and
permanent (stuck-at) faults re-apply to the replica's register image before
every executed instruction — kept sticky in the delta and re-derived under
the current window pointer, so ``save``/``restore`` renaming behaves exactly
like the scalar path's physical register file.

The pack runtime is ISS-only (the RTL backend falls back to the scalar
checkpoint runtime) and plugs in beneath the campaign layer through
``CampaignConfig.lockstep_width`` / ``repro campaign run --lockstep N``;
like the interpreter choice and the checkpoint knobs it is an execution
strategy, not a result input, and is excluded from the campaign store key
(see :data:`repro.store.keys.KEY_VERSION`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.isa.ccodes import ConditionCodes, evaluate_condition
from repro.isa.decoder import DecodeError
from repro.isa.instructions import INSTRUCTION_SET
from repro.isa.registers import NUM_GLOBALS, RegisterWindowError
from repro.iss.emulator import IO_BASE, SimulationError, TrapEvent
from repro.iss import fastpath as _fastpath
from repro.iss.fastpath import FastEmulator
from repro.iss.faults import ArchitecturalFault
from repro.iss.memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Memory, MemoryError_
from repro.iss.trace import OffCoreTransaction

from repro.engine.backend import RunResult
from repro.engine.checkpoint import (
    CheckpointLadder,
    splice_golden_tail,
    trace_from_counts,
)
from repro.obs.telemetry import TELEMETRY, TelemetryRegistry

__all__ = [
    "LockstepPackRunner",
    "PackOutcome",
    "make_pack_runner",
]

_PLAIN_LOADS = frozenset({"ld", "ldub", "lduh", "ldsb", "ldsh"})
_PLAIN_STORES = frozenset({"st", "stb", "sth"})

#: Delta / timeline key: a physical register slot, the ``"icc"``/``"y"``
#: pseudo-slots (ICC stored as its packed ``as_bits()`` integer so it patches
#: straight into ``capture_state`` payloads and compares by value), or a
#: memory word — ``_MEM_KEY_BASE + aligned word address``, disjoint from
#: every register slot index.
_Key = Union[int, str]

#: The memory split of one load/store op — ``(address_regs, data_regs,
#: is_store, is_double)`` — in architectural-register form
#: (:func:`_arch_effects`) or physical-slot form (:class:`_EffectsCache`).
_MemInfo = Tuple[Tuple[_Key, ...], Tuple[_Key, ...], bool, bool]

_MEM_KEY_BASE = 0x1_0000_0000

_BRANCH_HANDLER = _fastpath._h_branch
_TICC_HANDLER = _fastpath._h_ticc

#: Handlers safe to double-execute on the leader: they read only registers /
#: ICC / Y, write only their destination slots / ICC / Y, never touch memory
#: or transactions, never trap and never redirect control flow.  (Division
#: propagates too, but through its own triage branch — its only trap is a
#: zero divisor, so each replica's divisor view is checked first; everything
#: else that can trap or compute a control target demotes.)
_PROPAGATE_HANDLERS = frozenset(
    _fastpath._ALU_HANDLERS[base]
    for base in (
        "add", "addx", "sub", "subx", "and", "andn", "or", "orn",
        "xor", "xnor", "sll", "srl", "sra", "umul", "smul",
    )
) | frozenset({_fastpath._h_sethi, _fastpath._h_call, _fastpath._h_rd,
               _fastpath._h_wr})

_ICC_READERS = frozenset(
    {_fastpath._ALU_HANDLERS["addx"], _fastpath._ALU_HANDLERS["subx"]}
)
_Y_READERS = frozenset(
    {_fastpath._h_rd, _fastpath._ALU_HANDLERS["udiv"],
     _fastpath._ALU_HANDLERS["sdiv"]}
)
_Y_WRITERS = frozenset(
    {_fastpath._h_wr, _fastpath._ALU_HANDLERS["umul"],
     _fastpath._ALU_HANDLERS["smul"]}
)
_DIV_HANDLERS = frozenset(
    {_fastpath._ALU_HANDLERS["udiv"], _fastpath._ALU_HANDLERS["sdiv"]}
)
_WINDOW_HANDLERS = frozenset({_fastpath._h_save, _fastpath._h_restore})

#: Demote a replica after this many touched instructions.  A replica whose
#: divergent slots feed nearly every instruction (a corrupted loop counter
#: or accumulator) pays a per-touch propagation cost comparable to scalar
#: execution *plus* the pack's bookkeeping, so past this budget the scalar
#: path is strictly cheaper.  Purely a performance valve: demotion is exact
#: at any boundary, so the cutoff never changes an observable.  Replicas
#: that converge do so within a few touches; genuine riders are touched
#: rarely and stay far below the budget.
PROPAGATION_BUDGET = 48

#: ``bn``/``ba`` (and ``tn``/``ta``): conditions that never consult the ICC.
_UNCONDITIONAL_CONDS = (0x0, 0x8)


def _arch_effects(
    op: Any,
) -> Tuple[
    Tuple[_Key, ...], Tuple[_Key, ...], Optional[str], bool, Optional[_MemInfo]
]:
    """Architectural input/output sets of one cached op.

    Returns ``(inputs, outputs, window_shift, propagatable, memory)``.
    *inputs* and *outputs* mix architectural register indices with the
    ``"icc"``/``"y"`` pseudo-keys; *window_shift* marks ``save``/``restore``
    (their destination register is written under the *new* window);
    *propagatable* marks ops the pack applies to touched replicas by
    double-execution instead of demoting; *memory* is ``None`` except for the
    ten load/store mnemonics, where it is ``(address_regs, data_regs,
    is_store, is_double)`` — the split the pack's memory fast path uses to
    demote on a divergent *address* while keeping divergent *data* in pack.

    Inputs are conservative supersets of what the handler may read —
    ``ticc`` always lists ``%o0`` (the exit-code read) and its trap-number
    register even though both are only consulted when the condition passes —
    which can only cause an early demotion, never a missed one.  Outputs are
    **exact**: a listed slot is always written when the op executes (that
    exactness is what makes converge-on-overwrite sound).  ``%g0`` is
    filtered by the physical mapping (it reads as a constant and ignores
    writes, so it can never carry a delta).
    """
    handler = op.handler
    mnemonic = op.mnemonic
    rs2 = () if op.use_imm else (op.rs2,)
    if handler is _BRANCH_HANDLER:
        icc_in = () if op.cond in _UNCONDITIONAL_CONDS else ("icc",)
        return icc_in, (), None, False, None
    if mnemonic == "call":
        return (), (15,), None, True, None
    if mnemonic == "sethi":
        return (), (op.rd,), None, True, None
    if mnemonic == "jmpl":
        return (op.rs1,) + rs2, (op.rd,), None, False, None
    if mnemonic == "ticc":
        ticc_in = rs2 + (8,)
        if op.cond not in _UNCONDITIONAL_CONDS:
            ticc_in += ("icc",)
        return ticc_in, (), None, False, None
    if mnemonic == "save":
        return (op.rs1,) + rs2, (op.rd,), "save", False, None
    if mnemonic == "restore":
        return (op.rs1,) + rs2, (op.rd,), "restore", False, None
    if mnemonic == "rd":
        return ("y",), (op.rd,), None, True, None
    if mnemonic == "wr":
        return (op.rs1,) + rs2, ("y",), None, True, None
    address_regs = (op.rs1,) + rs2
    if mnemonic in _PLAIN_STORES:
        return (address_regs + (op.rd,), (), None, False,
                (address_regs, (op.rd,), True, False))
    if mnemonic == "std":
        even = op.rd & ~1
        return (address_regs + (even, even | 1), (), None, False,
                (address_regs, (even, even | 1), True, True))
    if mnemonic == "ldd":
        even = op.rd & ~1
        return (address_regs, (even, even | 1), None, False,
                (address_regs, (), False, True))
    if mnemonic in _PLAIN_LOADS:
        return (address_regs, (op.rd,), None, False,
                (address_regs, (), False, False))
    # Every remaining opcode dispatches through the ALU table (unimplemented
    # ALU semantics trap in the handler, which a golden replay never reaches).
    inputs: Tuple[_Key, ...] = (op.rs1,) + rs2
    outputs: Tuple[_Key, ...] = (op.rd,)
    if handler in _ICC_READERS:
        inputs += ("icc",)
    if handler in _Y_READERS:
        inputs += ("y",)
    if op.sets_icc:
        outputs += ("icc",)
    if handler in _Y_WRITERS:
        outputs += ("y",)
    return inputs, outputs, None, handler in _PROPAGATE_HANDLERS, None


class _EffectsCache:
    """Physical-slot input/output sets, memoised per cached op per CWP.

    Delta keys are *physical* register slots (globals ``1..7`` keep their
    index; window registers map through
    :meth:`~repro.isa.registers.RegisterFile._physical_index` offset by
    ``NUM_GLOBALS``) plus the ``"icc"``/``"y"`` pseudo-slots, so a delta
    survives ``save``/``restore`` renaming without any remapping — exactly
    like the physical register file itself.  Entries pin their op object, so
    an ``id()`` can never be reused while its memo entry is alive.
    """

    def __init__(self, registers: Any) -> None:
        self._registers = registers
        self._nwindows = registers.nwindows
        self._by_op: Dict[int, Tuple[Any, List[Any]]] = {}

    def _slots(self, keys: Tuple[_Key, ...], cwp: int) -> Tuple[_Key, ...]:
        physical_index = self._registers._physical_index
        out: List[_Key] = []
        for key in keys:
            if type(key) is str:
                out.append(key)
            elif key != 0:
                out.append(
                    key if key < NUM_GLOBALS
                    else NUM_GLOBALS + physical_index(key, cwp)
                )
        return tuple(out)

    def get(
        self, op: Any, cwp: int
    ) -> Tuple[Tuple[_Key, ...], Tuple[_Key, ...], bool, Optional[_MemInfo],
               Tuple[_Key, ...]]:
        entry = self._by_op.get(id(op))
        if entry is None:
            entry = (op, [None] * self._nwindows)
            self._by_op[id(op)] = entry
        effects = entry[1][cwp]
        if effects is None:
            inputs, outputs, window_shift, propagatable, memory = _arch_effects(op)
            out_cwp = cwp
            if window_shift == "save":
                out_cwp = (cwp + 1) % self._nwindows
            elif window_shift == "restore":
                out_cwp = (cwp - 1) % self._nwindows
            if memory is not None:
                address_regs, data_regs, is_store, is_double = memory
                memory = (
                    self._slots(address_regs, cwp),
                    self._slots(data_regs, cwp),
                    is_store,
                    is_double,
                )
            input_slots = self._slots(inputs, cwp)
            output_slots = self._slots(outputs, out_cwp)
            effects = (
                input_slots,
                output_slots,
                propagatable,
                memory,
                # Merged, deduplicated touch set: what the timeline recorder
                # marks per executed instruction (reads and writes land in
                # one list there anyway).
                input_slots + tuple(
                    slot for slot in output_slots if slot not in input_slots
                ),
            )
            entry[1][cwp] = effects
        return effects


class _Replica:
    """One pack member: its fault plus its sparse divergence from the leader."""

    __slots__ = ("fault", "sticky", "delta", "mem_delta", "txn_patches",
                 "touches", "outcome")

    def __init__(self, fault: ArchitecturalFault):
        self.fault = fault
        #: Stuck-at faults re-apply before every instruction; ``bit_flip``
        #: (transient upsets and the open-line degradation) fires once.
        self.sticky = fault.model != "bit_flip"
        #: Physical slot / pseudo-slot -> replica's value where it differs
        #: from the leader.  Empty delta == architecturally identical to
        #: golden.
        self.delta: Dict[_Key, int] = {}
        #: Memory word key (``_MEM_KEY_BASE + aligned address``) -> the
        #: replica's 32-bit word where its memory image differs from the
        #: leader's (created by stores of divergent data, erased when a later
        #: golden-valued store overwrites the word).
        self.mem_delta: Dict[int, int] = {}
        #: Golden transaction stream index -> the replica's divergent
        #: :class:`OffCoreTransaction` at that position (a store that wrote
        #: different data through the same control flow).  A patched history
        #: is permanent — the replica's observables can never equal golden's
        #: again, so it rides the pack to the end and resolves to the golden
        #: result with these patches applied.
        self.txn_patches: Dict[int, OffCoreTransaction] = {}
        #: Times this replica's divergence intersected an instruction's
        #: inputs (each costs a per-replica propagation / triage pass).
        #: Past :data:`PROPAGATION_BUDGET` the replica demotes — see there.
        self.touches = 0
        self.outcome: Optional[PackOutcome] = None


@dataclass
class PackOutcome:
    """How one replica of a pack resolved."""

    #: Bit-identical to ``backend.run(max_instructions=budget, faults=[...])``.
    result: Optional[RunResult]
    #: ``"golden"`` (never diverged / re-converged in pack), ``"rode_pack"``
    #: (reached the golden end carrying a live register/memory delta or a
    #: patched store history), ``"spliced"`` (demoted, then digest-matched a
    #: golden rung) or ``"demoted"`` (demoted, ran to its own end on the
    #: scalar path).
    resolution: str
    #: ``capture_state`` payload of the replica's final architectural and
    #: timing state (only with ``capture_final_state=True``).
    final_state: Optional[Dict[str, Any]] = None


class LockstepPackRunner:
    """Execute packs of faulty replicas through one shared front end.

    With a :class:`CheckpointLadder` (transient campaigns) the leader forks
    whole packs from golden rungs and demoted replicas splice the golden
    tail; without one (permanent campaigns) the leader sweeps from reset and
    demoted replicas run to their own end.  Construction is cheap next to a
    golden run; the leader, the demotion emulator and the lazily recorded
    touch timeline are all reused across packs, mirroring the per-worker
    backend reuse of the schedulers.
    """

    def __init__(
        self,
        backend: Any,
        max_instructions: int,
        width: int,
        ladder: Optional[CheckpointLadder] = None,
        timeline: Optional[Dict[_Key, List[int]]] = None,
    ) -> None:
        if width < 1:
            raise ValueError(f"lockstep width must be >= 1, got {width}")
        program = backend.program
        if program is None:
            raise RuntimeError("backend not prepared: call prepare(program) first")
        self._backend = backend
        self._max_instructions = max_instructions
        self.width = width
        self._ladder = ladder
        leader = FastEmulator(memory=Memory())
        leader.collect_raw_counts = True
        leader.load_program(program)
        self._leader = leader
        demote = FastEmulator(memory=Memory())
        demote.collect_raw_counts = True
        demote.load_program(program)
        self._demote_emulator = demote
        self._base_pages = {
            index: bytes(page) for index, page in leader.memory._pages.items()
        }
        if ladder is not None:
            self._reset_payload = ladder.checkpoints[0].payload
            self._rung_times = [rung.instructions for rung in ladder.checkpoints]
        else:
            self._reset_payload = leader.capture_state(self._base_pages)
            self._rung_times = []
        self._effects = _EffectsCache(leader.registers)
        #: Slot / pseudo-slot -> sorted executed-instruction indices where
        #: the golden run reads or writes it.  Recorded lazily, once — or
        #: donated up front from a cached golden artifact, in which case
        #: the recording pass never runs in this process.
        self._timeline: Optional[Dict[_Key, List[int]]] = timeline
        #: Golden result / final-state capture, taken from the ladder or
        #: recorded lazily by the first sweep that needs it.
        self._golden_result: Optional[RunResult] = (
            ladder.golden if ladder is not None else None
        )
        self._golden_final: Optional[Dict[str, Any]] = None
        # Sweep-local accumulators (reset per pack).
        self._transactions: List[Any] = []
        self._counts: Dict[str, int] = {}
        self._pending: Dict[str, int] = {}
        self._executed = 0
        # Observability for tests and the benchmark.  Plain integer
        # attributes stay the hot-loop representation; :meth:`run_pack`
        # folds per-pack deltas into the :data:`~repro.obs.telemetry.TELEMETRY`
        # registry only when it is enabled, so the disabled path pays one
        # boolean check per pack.
        self.packs = 0
        self.replicas = 0
        self.demotions = 0
        self.propagations = 0
        self.in_pack_convergences = 0
        self.golden_riders = 0
        self.demoted_splices = 0
        #: Demotion cause -> count (see the ``reason`` strings passed to
        #: :meth:`_demote_touched` at its six call sites).
        self.demotion_reasons: Dict[str, int] = {}

    # -- sweep bookkeeping --------------------------------------------------------

    def _fold_pending(self) -> None:
        """Fold the pack loop's deferred per-mnemonic counts into the
        leader's timing model and the cumulative counts.  The fold is
        additive and order-transparent, but it must happen before any
        capture, digest or packaging so cycle totals match the scalar
        path's per-slice folds."""
        pending = self._pending
        if not pending:
            return
        timing = self._leader.timing
        counts = self._counts
        by_mnemonic = INSTRUCTION_SET.by_mnemonic
        for mnemonic, count in pending.items():
            timing.account_bulk(by_mnemonic(mnemonic), count)
            counts[mnemonic] = counts.get(mnemonic, 0) + count
        pending.clear()

    def _leader_slot_value(self, slot: int) -> int:
        registers = self._leader.registers
        if slot < NUM_GLOBALS:
            return registers._globals[slot]
        return registers._windows[slot - NUM_GLOBALS]

    def _set_leader_slot(self, slot: int, value: int) -> None:
        registers = self._leader.registers
        if slot < NUM_GLOBALS:
            registers._globals[slot] = value
        else:
            registers._windows[slot - NUM_GLOBALS] = value

    def _leader_key_value(self, key: _Key) -> int:
        if key == "icc":
            return self._leader.icc.as_bits()
        if key == "y":
            return self._leader.y_register
        return self._leader_slot_value(key)

    def _slot_of(self, register: int, cwp: int) -> int:
        if register < NUM_GLOBALS:
            return register
        return NUM_GLOBALS + self._leader.registers._physical_index(register, cwp)

    def _replica_reg(self, replica: "_Replica", register: int, cwp: int) -> int:
        """The replica's architectural view of *register* (its delta value
        where one exists, else the shared leader value; ``%g0`` reads 0)."""
        if register == 0:
            return 0
        slot = self._slot_of(register, cwp)
        value = replica.delta.get(slot)
        return self._leader_slot_value(slot) if value is None else value

    def _replica_word(self, replica: "_Replica", word_address: int) -> int:
        """The replica's view of the aligned memory word at *word_address*
        (its memory delta where one exists, else the shared leader image)."""
        value = replica.mem_delta.get(_MEM_KEY_BASE + word_address)
        return self._leader.memory.read_word(word_address) if value is None else value

    def _fault_slot(self, fault: ArchitecturalFault) -> Optional[int]:
        register = fault.register
        if register == 0:
            return None  # %g0 ignores writes: the fault is architecturally inert
        if register < NUM_GLOBALS:
            return register
        registers = self._leader.registers
        return NUM_GLOBALS + registers._physical_index(register, registers.cwp)

    def _apply_flip(self, replica: _Replica) -> None:
        """The pack equivalent of the scalar flip
        ``registers.write(reg, fault.apply(registers.read(reg)))`` that runs
        between the instruction count and the handler."""
        slot = self._fault_slot(replica.fault)
        if slot is None:
            return
        leader_value = self._leader_slot_value(slot)
        faulted = replica.fault.apply(replica.delta.get(slot, leader_value))
        if faulted == leader_value:
            replica.delta.pop(slot, None)
        else:
            replica.delta[slot] = faulted

    # -- the golden touch timeline ------------------------------------------------

    def _ensure_timeline(self) -> Dict[_Key, List[int]]:
        """Record, once, the executed-instruction indices at which the golden
        run touches (reads or writes) each physical slot and pseudo-slot.

        The recording pass steps the golden stream on the demotion emulator
        (which is restored before every other use, so the mutation is free)
        with the same annul-skip / decode / execute ordering as
        :meth:`_step_pack`; reads and writes land in one merged list because
        the event step itself sorts out which touches propagate, demote or
        converge.
        """
        if self._timeline is not None:
            return self._timeline
        emulator = self._demote_emulator
        emulator.restore_state(self._reset_payload, self._base_pages, 0, None)
        effects = self._effects
        timeline: Dict[_Key, List[int]] = {}
        timeline_get = timeline.get
        scratch: List[Any] = []
        executed = 0
        budget = self._max_instructions
        while executed < budget:
            if emulator._annul_next:
                emulator._annul_next = False
                emulator.pc = emulator.npc
                emulator.npc += 4
                continue
            pc = emulator.pc
            op = emulator._decode_cache.get(pc)
            if op is None:
                try:
                    op = emulator._fill(pc)
                except (MemoryError_, DecodeError):
                    break
            _, _, _, memory, touches = effects.get(op, emulator.registers.cwp)
            for key in touches:
                lst = timeline_get(key)
                if lst is None:
                    timeline[key] = [executed]
                else:
                    lst.append(executed)
            if memory is not None:
                # The accessed words count as touches too: a load from a
                # replica's dirty word must propagate, a store over one must
                # reconcile (converge or re-diverge) the replica's view.
                read = emulator.registers.read
                address = (
                    read(op.rs1) + (op.imm_u32 if op.use_imm else read(op.rs2))
                ) & 0xFFFFFFFF
                if memory[3]:
                    word_keys = (_MEM_KEY_BASE + address,
                                 _MEM_KEY_BASE + address + 4)
                else:
                    word_keys = (_MEM_KEY_BASE + (address & ~3),)
                for key in word_keys:
                    lst = timeline_get(key)
                    if lst is None:
                        timeline[key] = [executed]
                    else:
                        lst.append(executed)
            executed += 1
            try:
                outcome = op.handler(emulator, op, pc, scratch)
            except (RegisterWindowError, MemoryError_, ZeroDivisionError,
                    SimulationError):
                break
            if outcome is None:
                emulator.pc = emulator.npc
                emulator.npc += 4
            elif type(outcome) is tuple:
                emulator.pc = emulator.npc
                emulator.npc = outcome[0]
                emulator._annul_next = outcome[1]
            else:
                break  # the golden exit trap
        self._timeline = timeline
        return timeline

    # -- packaging ----------------------------------------------------------------

    def _package(
        self,
        transactions: Sequence[Any],
        counts: Dict[str, int],
        executed: int,
        cycles: int,
        halted: bool,
        exit_code: Optional[int],
        trap: Optional[TrapEvent],
    ) -> RunResult:
        return RunResult(
            backend=self._backend.name,
            transactions=list(transactions),
            trace=trace_from_counts(counts),
            instructions=executed,
            cycles=cycles,
            halted=halted,
            exit_code=exit_code,
            trap_kind=self._backend.normalize_trap_kind(trap),
        )

    def _golden_final_payload(self) -> Dict[str, Any]:
        """Final-state capture of the golden run (for replicas that resolve
        onto the golden trajectory), recorded lazily on the demotion emulator
        so the leader's sweep position is never disturbed."""
        if self._golden_final is None:
            emulator = self._demote_emulator
            if self._ladder is not None:
                rung = self._ladder.checkpoints[-1]
                emulator.restore_state(
                    rung.payload, self._base_pages, rung.instructions, None
                )
            else:
                emulator.restore_state(self._reset_payload, self._base_pages, 0, None)
            emulator.run(max_instructions=self._max_instructions)
            self._golden_final = emulator.capture_state(self._base_pages)
        return self._golden_final

    def _payload_with_delta(
        self, payload: Dict[str, Any], delta: Dict[_Key, int]
    ) -> Dict[str, Any]:
        if not delta:
            return payload
        patched = dict(payload)
        patched["globals"] = list(payload["globals"])
        patched["windows"] = list(payload["windows"])
        for slot, value in delta.items():
            if slot == "icc":
                patched["icc"] = value
            elif slot == "y":
                patched["y"] = value
            elif slot < NUM_GLOBALS:
                patched["globals"][slot] = value
            else:
                patched["windows"][slot - NUM_GLOBALS] = value
        return patched

    def _payload_with_replica(
        self, payload: Dict[str, Any], replica: _Replica
    ) -> Dict[str, Any]:
        """*payload* with the replica's register **and** memory deltas
        patched in — the replica's full ``capture_state`` equivalent."""
        patched = self._payload_with_delta(payload, replica.delta)
        if not replica.mem_delta:
            return patched
        if patched is payload:
            patched = dict(payload)
        dirty = dict(patched["dirty_pages"])
        base_pages = self._base_pages
        for key, value in replica.mem_delta.items():
            address = key - _MEM_KEY_BASE
            page_index = address >> PAGE_SHIFT
            image = dirty.get(page_index)
            if image is None:
                image = base_pages.get(page_index, b"\x00" * PAGE_SIZE)
            page = bytearray(image)
            offset = address & PAGE_MASK
            page[offset:offset + 4] = value.to_bytes(4, "big")
            dirty[page_index] = bytes(page)
        patched["dirty_pages"] = dirty
        return patched

    def _rider_result(self, replica: _Replica) -> RunResult:
        """The golden result with the replica's divergent store transactions
        patched in — exactly the observable stream its from-reset run emits
        (same control flow, counts, cycles and exit, different store data)."""
        golden = self._golden_result
        assert golden is not None  # riders resolve only after golden packaging
        if not replica.txn_patches:
            return golden
        transactions = list(golden.transactions)
        for index, txn in replica.txn_patches.items():
            transactions[index] = txn
        return replace(golden, transactions=transactions)

    # -- demotion to the scalar fast path -----------------------------------------

    def _demote(
        self,
        replica: _Replica,
        leader_capture: Dict[str, Any],
        budget: int,
        capture_final: bool,
        reason: str,
    ) -> PackOutcome:
        """Hand one replica to the scalar fast path at the current
        instruction boundary: leader state plus delta, golden observable
        prefix, and (for sticky faults) the still-armed fault.  Mirrors the
        checkpoint runtime's fork loop, including the rung-aligned digest
        checks that splice the golden tail on re-convergence."""
        self.demotions += 1
        self.demotion_reasons[reason] = self.demotion_reasons.get(reason, 0) + 1
        payload = self._payload_with_replica(leader_capture, replica)
        # A fired bit_flip lives entirely in the delta; re-arming it would
        # flip twice.  Sticky faults keep applying on the scalar path (the
        # demoted run re-applies at the hand-off instruction too — stuck-at
        # application is idempotent, so the image is unchanged).
        fault = replica.fault if replica.sticky else None
        emulator = self._demote_emulator
        emulator.restore_state(payload, self._base_pages, self._executed, fault)
        if not replica.sticky:
            # The flip is spent: open the early-exit digest gate exactly as a
            # scalar in-run flip would have.
            emulator._flip_done = True
        transactions = list(self._transactions)
        for index, txn in replica.txn_patches.items():
            # The replica's observable prefix is the golden stream with its
            # divergent store data patched in.
            transactions[index] = txn
        counts = dict(self._counts)
        executed = self._executed
        ladder = self._ladder
        rungs = ladder.checkpoints if ladder is not None else []
        interval = ladder.interval if ladder is not None else None
        while True:
            if interval is None:
                slice_budget = budget - executed
            else:
                boundary = (executed // interval + 1) * interval
                slice_budget = min(boundary - executed, budget - executed)
            result = emulator.run(max_instructions=slice_budget)
            executed += result.instructions
            transactions.extend(result.transactions)
            for mnemonic, count in emulator.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted or executed >= budget:
                run_result = self._package(
                    transactions, counts, executed, result.cycles,
                    result.halted, result.exit_code, result.trap,
                )
                final = (
                    emulator.capture_state(self._base_pages) if capture_final else None
                )
                return PackOutcome(run_result, "demoted", final)
            if interval is None or not emulator._flip_done:
                continue
            index, remainder = divmod(executed, interval)
            if (
                remainder == 0
                and index < len(rungs)
                and rungs[index].instructions == executed
                and emulator.state_digest(self._base_pages) == rungs[index].digest
            ):
                assert ladder is not None  # interval is set only with a ladder
                self.demoted_splices += 1
                run_result = splice_golden_tail(
                    ladder, rungs[index], transactions, counts
                )
                final = self._golden_final_payload() if capture_final else None
                return PackOutcome(run_result, "spliced", final)

    def _demote_touched(
        self,
        touched: List[_Replica],
        live_slots: Dict[_Key, List[_Replica]],
        sticky: List[_Replica],
        budget: int,
        capture_final: bool,
        reason: str,
    ) -> None:
        """Demote every replica in *touched* at the current boundary.

        *reason* names the divergence that forced the hand-off (one of
        ``propagation_budget``, ``address_divergence``, ``branch_divergence``,
        ``trap_divergence``, ``div_zero``, ``unsupported_op``) and feeds the
        per-cause demotion histogram."""
        self._fold_pending()
        leader_capture = self._leader.capture_state(self._base_pages)
        for replica in touched:
            for keys in (replica.delta, replica.mem_delta):
                for slot in keys:
                    bucket = live_slots.get(slot)
                    if bucket is not None:
                        bucket.remove(replica)
                        if not bucket:
                            del live_slots[slot]
            if replica.sticky:
                sticky.remove(replica)
            replica.outcome = self._demote(
                replica, leader_capture, budget, capture_final, reason,
            )

    # -- in-pack propagation ------------------------------------------------------

    def _propagate_outputs(
        self,
        op: Any,
        pc: int,
        touched: List[_Replica],
        input_slots: Tuple[_Key, ...],
        output_slots: Tuple[_Key, ...],
    ) -> Dict[_Replica, Dict[_Key, int]]:
        """Double-execute *op* on the leader for every touched replica.

        For each replica the leader's register file (and ICC/Y) is patched
        with the replica's delta values over the op's input and output slots,
        the already-resolved handler runs against them, the replica's output
        values are captured, and the leader is rolled back exactly — the op
        is applied across the whole pack through the one shared front end.
        Only :data:`_PROPAGATE_HANDLERS` ops and zero-divisor-screened
        divisions reach here: they never touch memory, transactions, control
        flow or the annul flag, so rolling back the register slots, ICC and
        Y restores the leader completely.
        """
        leader = self._leader
        self.propagations += len(touched)
        saved_regs: Dict[int, int] = {}
        for slot in input_slots:
            if type(slot) is not str and slot not in saved_regs:
                saved_regs[slot] = self._leader_slot_value(slot)
        for slot in output_slots:
            if type(slot) is not str and slot not in saved_regs:
                saved_regs[slot] = self._leader_slot_value(slot)
        saved_icc = leader.icc
        saved_y = leader.y_register
        handler = op.handler
        scratch: List[Any] = []
        results: Dict[_Replica, Dict[_Key, int]] = {}
        for replica in touched:
            delta = replica.delta
            for slot, original in saved_regs.items():
                self._set_leader_slot(slot, delta.get(slot, original))
            icc_bits = delta.get("icc")
            if icc_bits is not None:
                leader.icc = ConditionCodes.from_bits(icc_bits)
            y_value = delta.get("y")
            if y_value is not None:
                leader.y_register = y_value
            handler(leader, op, pc, scratch)
            outs: Dict[_Key, int] = {}
            for slot in output_slots:
                if slot == "icc":
                    outs[slot] = leader.icc.as_bits()
                elif slot == "y":
                    outs[slot] = leader.y_register
                else:
                    outs[slot] = self._leader_slot_value(slot)
            results[replica] = outs
            for slot, original in saved_regs.items():
                self._set_leader_slot(slot, original)
            leader.icc = saved_icc
            leader.y_register = saved_y
        return results

    def _replica_load_outputs(
        self, replica: _Replica, op: Any, address: int, cwp: int
    ) -> Dict[_Key, int]:
        """The destination values a touched replica loads at *address*.

        The address registers agree with the leader (else the replica was
        demoted), so the replica reads the same — necessarily aligned, the
        golden run executed it — address through its own memory view: the
        shared image with its word deltas patched over it.  Mirrors the
        ``_h_ld*`` handlers' big-endian extraction exactly.
        """
        mnemonic = op.mnemonic
        if mnemonic == "ldd":
            pairs = (
                (op.rd & ~1, self._replica_word(replica, address)),
                ((op.rd & ~1) | 1, self._replica_word(replica, address + 4)),
            )
        else:
            word = self._replica_word(replica, address & ~3)
            if mnemonic == "ld":
                value = word
            elif mnemonic == "ldub":
                value = (word >> ((3 - (address & 3)) * 8)) & 0xFF
            elif mnemonic == "ldsb":
                raw = (word >> ((3 - (address & 3)) * 8)) & 0xFF
                value = (raw - 0x100) & 0xFFFFFFFF if raw & 0x80 else raw
            elif mnemonic == "lduh":
                value = (word >> ((2 - (address & 2)) * 8)) & 0xFFFF
            else:  # ldsh
                raw = (word >> ((2 - (address & 2)) * 8)) & 0xFFFF
                value = (raw - 0x10000) & 0xFFFFFFFF if raw & 0x8000 else raw
            pairs = ((op.rd, value),)
        outs: Dict[_Key, int] = {}
        for register, value in pairs:
            if register:
                outs[self._slot_of(register, cwp)] = value
        return outs

    def _replica_store_effects(
        self, replica: _Replica, op: Any, address: int, cwp: int
    ) -> Tuple[Tuple[int, ...], Tuple[OffCoreTransaction, ...]]:
        """The memory words and transactions a touched replica's store
        produces at *address* — computed against the pre-store image, before
        the leader executes the golden store.  Mirrors the ``_h_st*``
        handlers' write layout and transaction records exactly."""
        mnemonic = op.mnemonic
        if mnemonic == "st":
            value = self._replica_reg(replica, op.rd, cwp)
            return (value,), (OffCoreTransaction("store", address, value, 4),)
        if mnemonic == "stb":
            value = self._replica_reg(replica, op.rd, cwp) & 0xFF
            old = self._replica_word(replica, address & ~3)
            shift = (3 - (address & 3)) * 8
            word = (old & ~(0xFF << shift)) | (value << shift)
            return (word,), (OffCoreTransaction("store", address, value, 1),)
        if mnemonic == "sth":
            value = self._replica_reg(replica, op.rd, cwp) & 0xFFFF
            old = self._replica_word(replica, address & ~3)
            shift = (2 - (address & 2)) * 8
            word = (old & ~(0xFFFF << shift)) | (value << shift)
            return (word,), (OffCoreTransaction("store", address, value, 2),)
        # std: two aligned words, two transaction records.
        even = op.rd & ~1
        high = self._replica_reg(replica, even, cwp)
        low = self._replica_reg(replica, even | 1, cwp)
        return (high, low), (
            OffCoreTransaction("store", address, high, 4),
            OffCoreTransaction("store", address + 4, low, 4),
        )

    # -- leader fast-forward ------------------------------------------------------

    def _fast_forward(self, target: int) -> Optional[Any]:
        """Advance the quiescent pack to *target* executed instructions (or
        the golden end, whichever comes first): restore the latest usable
        golden rung — forking the whole pack from the checkpoint in one
        restore — then run the remaining gap at full scalar speed.  Exact
        because between the current position and *target* the golden stream
        touches no live delta slot and no fault trigger fires.  Returns the
        leader's ``ExecutionResult`` if it halted, else ``None``."""
        self._fold_pending()
        ladder = self._ladder
        leader = self._leader
        if ladder is not None and self._rung_times:
            index = bisect_right(self._rung_times, target) - 1
            if index >= 0:
                rung = ladder.checkpoints[index]
                if rung.instructions > self._executed:
                    leader.restore_state(
                        rung.payload, self._base_pages, rung.instructions, None
                    )
                    self._executed = rung.instructions
                    self._transactions = list(
                        ladder.golden.transactions[: rung.txn_count]
                    )
                    self._counts = dict(rung.counts)
        while self._executed < target:
            result = leader.run(max_instructions=target - self._executed)
            self._executed += result.instructions
            self._transactions.extend(result.transactions)
            counts = self._counts
            for mnemonic, count in leader.last_counts.items():
                counts[mnemonic] = counts.get(mnemonic, 0) + count
            if result.halted:
                return result
        return None

    # -- the pack sweep -----------------------------------------------------------

    def run_pack(
        self,
        faults: Sequence[ArchitecturalFault],
        budget: int,
        capture_final_state: bool = False,
    ) -> List[PackOutcome]:
        """Run one pack of replicas; element *i* of the returned list is
        bit-identical (result and, on request, final state) to
        ``backend.run(max_instructions=budget, faults=[faults[i]])``."""
        if len(faults) > self.width:
            raise ValueError(
                f"pack of {len(faults)} exceeds lockstep width {self.width}"
            )
        self.packs += 1
        self.replicas += len(faults)
        telemetry = TELEMETRY if TELEMETRY.enabled else None
        stats_before: Optional[Tuple[int, int, Dict[str, int]]] = None
        if telemetry is not None:
            stats_before = (
                self.propagations,
                self.demoted_splices,
                dict(self.demotion_reasons),
            )
        replicas = [_Replica(fault) for fault in faults]
        leader = self._leader
        leader.restore_state(self._reset_payload, self._base_pages, 0, None)
        self._executed = 0
        self._transactions = []
        self._counts = {}
        self._pending = {}
        #: Transient replicas waiting for their trigger; soonest at the end,
        #: so the hot loop pops in firing order.
        pending = sorted(
            (replica for replica in replicas if not replica.sticky),
            key=lambda replica: replica.fault.trigger_index,
            reverse=True,
        )
        sticky = [replica for replica in replicas if replica.sticky]
        #: Physical slot / pseudo-slot -> in-pack replicas whose delta covers
        #: that slot.
        live_slots: Dict[_Key, List[_Replica]] = {}
        halt_trap: Optional[TrapEvent] = None
        halted_flag = False
        exit_code: Optional[int] = None

        if sticky:
            # A stuck-at fault re-touches its slot before every instruction,
            # so packs carrying one step the golden stream instruction by
            # instruction — the touch timeline cannot skip anything for them.
            while True:
                if sticky or live_slots or (
                    pending and pending[-1].fault.trigger_index <= self._executed
                ):
                    if self._executed >= self._max_instructions:
                        break  # golden budget exhausted: the watchdog case
                    trap = self._step_pack(
                        pending, sticky, live_slots, budget, capture_final_state,
                    )
                    if trap is not None:
                        halt_trap = trap
                        halted_flag = True
                        if trap.is_exit:
                            exit_code = int(trap.detail) if trap.detail else 0
                        break
                    continue
                if pending:
                    result = self._fast_forward(pending[-1].fault.trigger_index)
                elif self._golden_result is None and any(
                    replica.outcome is None
                    or replica.outcome.result is None
                    for replica in replicas
                ):
                    # Ladder-less mode still owes the golden observables: run
                    # the leader out so riders and converged replicas resolve.
                    result = self._fast_forward(self._max_instructions)
                else:
                    break
                if result is not None:
                    halt_trap = result.trap
                    halted_flag = result.halted
                    exit_code = result.exit_code
                    break
                if not pending and not sticky and not live_slots:
                    break
        else:
            # Event-driven sweep: the only instructions that can change the
            # pack are fault triggers and golden touches of live delta slots;
            # everything in between fast-forwards at full scalar speed.
            timeline = self._ensure_timeline()
            while True:
                if self._executed >= self._max_instructions:
                    break  # golden budget exhausted: the watchdog case
                next_event: Optional[int] = None
                if pending:
                    next_event = pending[-1].fault.trigger_index
                if live_slots:
                    executed = self._executed
                    for key in live_slots:
                        indices = timeline.get(key)
                        if not indices:
                            continue
                        position = bisect_left(indices, executed)
                        if position < len(indices) and (
                            next_event is None or indices[position] < next_event
                        ):
                            next_event = indices[position]
                if next_event is None:
                    # Nothing left can touch the pack.  Riders still need the
                    # leader at the golden end when their final state is
                    # requested, and ladder-less mode still owes the golden
                    # observables.
                    if (live_slots and capture_final_state) or (
                        self._golden_result is None and any(
                            replica.outcome is None
                            or replica.outcome.result is None
                            for replica in replicas
                        )
                    ):
                        result = self._fast_forward(self._max_instructions)
                        if result is not None:
                            halt_trap = result.trap
                            halted_flag = result.halted
                            exit_code = result.exit_code
                    break
                if next_event > self._executed:
                    result = self._fast_forward(
                        min(next_event, self._max_instructions)
                    )
                    if result is not None:
                        halt_trap = result.trap
                        halted_flag = result.halted
                        exit_code = result.exit_code
                        break
                    continue
                trap = self._step_pack(
                    pending, sticky, live_slots, budget, capture_final_state,
                )
                if trap is not None:
                    halt_trap = trap
                    halted_flag = True
                    if trap.is_exit:
                        exit_code = int(trap.detail) if trap.detail else 0
                    break

        # Leader finished (golden halt, budget, or nothing left to watch):
        # package the golden result and resolve everything still riding.
        self._fold_pending()
        if self._golden_result is None:
            if halt_trap is None and not halted_flag:
                halt_trap = TrapEvent(
                    "watchdog", leader.pc, "instruction budget exhausted"
                )
            self._golden_result = self._package(
                self._transactions, self._counts, self._executed,
                leader.timing.cycles, halted_flag, exit_code, halt_trap,
            )
        riders = [replica for replica in replicas if replica.outcome is None]
        leader_final: Optional[Dict[str, Any]] = None
        if capture_final_state and riders and (
            halted_flag or self._executed >= self._max_instructions
        ):
            leader_final = leader.capture_state(self._base_pages)
            if halted_flag and self._golden_final is None:
                # The leader stands at the golden end: its capture doubles as
                # the golden final state for every on-trajectory replica.
                self._golden_final = leader_final
        for replica in riders:
            if replica.delta or replica.mem_delta or replica.txn_patches:
                self.golden_riders += 1
                resolution = "rode_pack"
            else:
                self.in_pack_convergences += 1
                resolution = "golden"
            final = None
            if capture_final_state:
                # Replicas still carrying a live delta kept the leader running
                # to the golden end (their slots/words are live events);
                # patch-history-only riders may leave it mid-stream, but their
                # state *is* the golden final state.
                basis = (
                    leader_final if leader_final is not None
                    else self._golden_final_payload()
                )
                final = self._payload_with_replica(basis, replica)
            replica.outcome = PackOutcome(
                self._rider_result(replica), resolution, final
            )
        outcomes: List[PackOutcome] = []
        for replica in replicas:
            outcome = replica.outcome
            assert outcome is not None  # every sweep path above resolved it
            if outcome.result is None:
                outcome.result = self._golden_result
            if capture_final_state and outcome.final_state is None:
                outcome.final_state = self._golden_final_payload()
            outcomes.append(outcome)
        if telemetry is not None and stats_before is not None:
            self._record_pack_telemetry(telemetry, stats_before, outcomes)
        return outcomes

    def _record_pack_telemetry(
        self,
        telemetry: TelemetryRegistry,
        stats_before: Tuple[int, int, Dict[str, int]],
        outcomes: List[PackOutcome],
    ) -> None:
        """Fold this pack's stat deltas into the telemetry registry.

        Called once per pack (never from the instruction loop): cumulative
        attribute deltas become counters, the pack width an observation, and
        each replica's resolution a labelled count."""
        propagations, demoted_splices, reasons = stats_before
        telemetry.counter("lockstep.packs").inc()
        telemetry.counter("lockstep.replicas").inc(len(outcomes))
        telemetry.histogram("lockstep.pack.width").observe(len(outcomes))
        delta = self.propagations - propagations
        if delta:
            telemetry.counter("lockstep.propagations").inc(delta)
        delta = self.demoted_splices - demoted_splices
        if delta:
            telemetry.counter("lockstep.demoted_splices").inc(delta)
        for reason, count in self.demotion_reasons.items():
            delta = count - reasons.get(reason, 0)
            if delta:
                telemetry.counter(
                    "lockstep.demotions", {"reason": reason}
                ).inc(delta)
        for outcome in outcomes:
            telemetry.counter(
                "lockstep.resolutions", {"kind": outcome.resolution}
            ).inc()

    def _step_pack(
        self,
        pending: List[_Replica],
        sticky: List[_Replica],
        live_slots: Dict[_Key, List[_Replica]],
        budget: int,
        capture_final: bool,
    ) -> Optional[TrapEvent]:
        """Execute exactly one leader instruction with full pack bookkeeping.

        Returns the leader's halting :class:`TrapEvent` when this
        instruction ends the run, else ``None``.  The ordering replicates
        the scalar loop exactly: annul skip (uncounted, no fault effects),
        fault application, then the handler — with touched replicas either
        propagated (the op applied across the pack by double-execution, or a
        branch whose outcome the replica agrees on) or demoted *between*
        fault application and execution, so a demoted replica re-executes
        this instruction on the scalar path with identical state."""
        leader = self._leader
        # Annulled delay slot: skip without counting or applying faults.
        if leader._annul_next:
            leader._annul_next = False
            leader.pc = leader.npc
            leader.npc += 4
            return None
        pc = leader.pc
        op = leader._decode_cache.get(pc)
        if op is None:
            try:
                op = leader._fill(pc)
            except (MemoryError_, DecodeError) as exc:
                # Unreachable on a well-formed golden replay, but the golden
                # run itself may legitimately end on a decode trap.
                return TrapEvent("illegal_instruction", pc, str(exc))
        registers = leader.registers
        cwp = registers.cwp
        executed = self._executed
        # 1. Fault effects (scalar order: after the annul skip, before the
        #    handler).  Flips fire when the executed count reaches their
        #    trigger; sticky faults re-apply every instruction.
        while pending and pending[-1].fault.trigger_index <= executed:
            replica = pending.pop()
            self._apply_flip(replica)
            if replica.delta:
                for slot in replica.delta:
                    live_slots.setdefault(slot, []).append(replica)
            else:
                # e.g. a %g0 flip: architecturally invisible, instantly golden.
                replica.outcome = PackOutcome(self._golden_result, "golden", None)
                self.in_pack_convergences += 1
        for replica in sticky:
            fault = replica.fault
            slot = self._fault_slot(fault)
            if slot is None:
                continue
            leader_value = self._leader_slot_value(slot)
            delta = replica.delta
            faulted = fault.apply(delta.get(slot, leader_value))
            if faulted == leader_value:
                if slot in delta:
                    del delta[slot]
                    bucket = live_slots[slot]
                    bucket.remove(replica)
                    if not bucket:
                        del live_slots[slot]
            elif slot not in delta:
                delta[slot] = faulted
                live_slots.setdefault(slot, []).append(replica)
            else:
                delta[slot] = faulted
        # 2. Apply the op across the pack: replicas whose delta intersects
        #    the input set either propagate (divergent results folded into
        #    their deltas through the shared front end) or demote (the op
        #    could diverge control flow, trap, or fork the shared state in a
        #    way the deltas cannot carry).
        inputs, outputs, propagatable, memory, _ = self._effects.get(op, cwp)
        propagated: Optional[Dict[_Replica, Dict[_Key, int]]] = None
        store_pending: Optional[List[Any]] = None
        store_keys: Tuple[int, ...] = ()
        if live_slots:
            touched: List[_Replica] = []
            for slot in inputs:
                for replica in live_slots.get(slot, ()):
                    if replica not in touched:
                        touched.append(replica)
            if memory is not None:
                # Loads and stores: the accessed words are inputs (loads) or
                # outputs (stores) too, known only now that the leader holds
                # the address.  A touched *address* demotes (the replica
                # accesses somewhere else entirely, as does anything aimed at
                # the I/O region, whose reads are observable); touched *data*
                # stays in pack — divergent loaded values land in the
                # register delta, divergent stored values in the memory
                # delta plus a patched store transaction.
                address_slots, data_slots, is_store, is_double = memory
                read = registers.read
                address = (
                    read(op.rs1) + (op.imm_u32 if op.use_imm else read(op.rs2))
                ) & 0xFFFFFFFF
                if is_double:
                    word_keys = (_MEM_KEY_BASE + address,
                                 _MEM_KEY_BASE + address + 4)
                else:
                    word_keys = (_MEM_KEY_BASE + (address & ~3),)
                for key in word_keys:
                    for replica in live_slots.get(key, ()):
                        if replica not in touched:
                            touched.append(replica)
            if touched:
                # Propagation budget (see :data:`PROPAGATION_BUDGET`): a
                # replica touched this often is cheaper on the scalar path.
                over = [replica for replica in touched
                        if replica.touches >= PROPAGATION_BUDGET]
                if over:
                    self._demote_touched(
                        over, live_slots, sticky, budget,
                        capture_final, "propagation_budget",
                    )
                    touched = [
                        replica for replica in touched
                        if replica not in over
                    ]
                for replica in touched:
                    replica.touches += 1
            if memory is not None:
                if touched:
                    if address >= IO_BASE:
                        demoted = touched
                    else:
                        demoted = [
                            replica for replica in touched
                            if any(slot in replica.delta
                                   for slot in address_slots)
                        ]
                    if demoted:
                        self._demote_touched(
                            demoted, live_slots, sticky, budget,
                            capture_final, "address_divergence",
                        )
                        touched = [
                            replica for replica in touched
                            if replica not in demoted
                        ]
                    if touched:
                        self.propagations += len(touched)
                        if is_store:
                            store_keys = word_keys
                            store_pending = [
                                (replica,) + self._replica_store_effects(
                                    replica, op, address, cwp
                                )
                                for replica in touched
                            ]
                        else:
                            propagated = {
                                replica: self._replica_load_outputs(
                                    replica, op, address, cwp
                                )
                                for replica in touched
                            }
            elif touched:
                if op.handler is _BRANCH_HANDLER:
                    # The branch reads only the ICC: replicas that reach the
                    # same taken/untaken (and annul) decision keep riding; a
                    # different branch outcome is *the* control-flow
                    # divergence and demotes at this boundary.
                    leader_taken = evaluate_condition(op.cond, leader.icc)
                    touched = [
                        replica for replica in touched
                        if evaluate_condition(
                            op.cond,
                            ConditionCodes.from_bits(replica.delta["icc"]),
                        ) != leader_taken
                    ]
                    if touched:
                        self._demote_touched(
                            touched, live_slots, sticky, budget,
                            capture_final, "branch_divergence",
                        )
                elif op.handler is _TICC_HANDLER:
                    # A trap-on-condition reads the ICC exactly like a
                    # branch, and an *untaken* ``ticc`` has no architectural
                    # effect at all.  The leader's mid-run ``ticc`` is never
                    # taken (a taken one ends the golden run), so replicas
                    # whose condition view also evaluates untaken keep
                    # riding; a replica whose condition fires — or any
                    # touched replica when the leader itself takes the trap
                    # on the final instruction (the exit detail reads
                    # ``%o0``) — diverges and demotes.
                    if not evaluate_condition(op.cond, leader.icc):
                        touched = [
                            replica for replica in touched
                            if "icc" in replica.delta and evaluate_condition(
                                op.cond,
                                ConditionCodes.from_bits(
                                    replica.delta["icc"]
                                ),
                            )
                        ]
                    if touched:
                        self._demote_touched(
                            touched, live_slots, sticky, budget,
                            capture_final, "trap_divergence",
                        )
                elif op.handler in _DIV_HANDLERS:
                    # Division is a plain ALU op whose only trap is a zero
                    # divisor.  Each replica's divisor view decides: non-zero
                    # double-executes through the shared front end like any
                    # propagatable op; zero traps where the leader does not
                    # and demotes.  When the *leader's* divisor is zero this
                    # instruction ends the golden run in a
                    # ``division_by_zero`` trap — every touched replica
                    # demotes rather than racing it.
                    divisor = (
                        op.imm_u32 if op.use_imm else registers.read(op.rs2)
                    )
                    if divisor == 0:
                        trapping = touched
                    elif op.use_imm:
                        trapping = []
                    else:
                        trapping = [
                            replica for replica in touched
                            if self._replica_reg(replica, op.rs2, cwp) == 0
                        ]
                    if trapping:
                        self._demote_touched(
                            trapping, live_slots, sticky, budget,
                            capture_final, "div_zero",
                        )
                        touched = [
                            replica for replica in touched
                            if replica not in trapping
                        ]
                    if touched:
                        propagated = self._propagate_outputs(
                            op, pc, touched, inputs, outputs
                        )
                elif op.handler in _WINDOW_HANDLERS:
                    # ``save``/``restore`` shift the *shared* window state —
                    # identical across the pack, so the window trap cannot
                    # fire divergently (the leader executed it at the same
                    # depth) — and compute ``rd = rs1 + op2`` from the old
                    # window into the new window's ``rd``.  The effects
                    # cache already mapped the output slot under the shifted
                    # window, so touched replicas propagate by direct
                    # computation (double-execution would shift the leader's
                    # window twice).
                    self.propagations += len(touched)
                    propagated = {}
                    for replica in touched:
                        value = (
                            self._replica_reg(replica, op.rs1, cwp)
                            + (op.imm_u32 if op.use_imm
                               else self._replica_reg(replica, op.rs2, cwp))
                        ) & 0xFFFFFFFF
                        propagated[replica] = {
                            slot: value for slot in outputs
                        }
                elif propagatable:
                    propagated = self._propagate_outputs(
                        op, pc, touched, inputs, outputs
                    )
                else:
                    self._demote_touched(
                        touched, live_slots, sticky, budget,
                        capture_final, "unsupported_op",
                    )
        # 3. Execute on the leader (golden replay: traps other than the
        #    final exit cannot occur here).
        mnemonic = op.mnemonic
        pending_counts = self._pending
        pending_counts[mnemonic] = pending_counts.get(mnemonic, 0) + 1
        self._executed = executed + 1
        try:
            outcome = op.handler(leader, op, pc, self._transactions)
        except RegisterWindowError as exc:
            return TrapEvent("window", pc, str(exc))
        except MemoryError_ as exc:
            return TrapEvent("memory", pc, str(exc))
        except ZeroDivisionError:
            return TrapEvent("division_by_zero", pc)
        except SimulationError as exc:
            return TrapEvent("simulation_error", pc, str(exc))
        if outcome is None:
            leader.pc = leader.npc
            leader.npc += 4
        elif type(outcome) is tuple:
            leader.pc = leader.npc
            leader.npc = outcome[0]
            leader._annul_next = outcome[1]
        else:
            return outcome  # the golden exit trap
        # 4. Outputs overwrite delta slots: untouched replicas computed the
        #    leader's value (the inputs agreed), so those slots converge;
        #    propagated replicas take their double-executed results instead,
        #    converging slot by slot wherever they match the leader's.
        if live_slots:
            for slot in outputs:
                bucket = live_slots.get(slot)
                if bucket is None:
                    continue
                survivors: List[_Replica] = []
                for replica in bucket:
                    if propagated is not None and replica in propagated:
                        survivors.append(replica)
                        continue
                    del replica.delta[slot]
                    self._maybe_resolve_golden(replica)
                if survivors:
                    live_slots[slot] = survivors
                else:
                    del live_slots[slot]
        if propagated:
            for replica, outs in propagated.items():
                delta = replica.delta
                for slot, value in outs.items():
                    if value == self._leader_key_value(slot):
                        if slot in delta:
                            del delta[slot]
                            bucket = live_slots[slot]
                            bucket.remove(replica)
                            if not bucket:
                                del live_slots[slot]
                    else:
                        if slot not in delta:
                            live_slots.setdefault(slot, []).append(replica)
                        delta[slot] = value
                self._maybe_resolve_golden(replica)
        if store_pending is not None:
            # Reconcile the touched stores against what the leader just
            # wrote: a word matching the golden image converges, a divergent
            # word joins the memory delta, and a divergent transaction is
            # recorded as a patch over the golden stream (its index is the
            # position the leader's own record(s) just took).
            transactions = self._transactions
            base = len(transactions) - len(store_keys)
            golden_words = tuple(
                leader.memory.read_word(key - _MEM_KEY_BASE)
                for key in store_keys
            )
            for replica, words, txns in store_pending:
                mem_delta = replica.mem_delta
                for key, word, golden_word in zip(
                    store_keys, words, golden_words
                ):
                    if word == golden_word:
                        if key in mem_delta:
                            del mem_delta[key]
                            bucket = live_slots[key]
                            bucket.remove(replica)
                            if not bucket:
                                del live_slots[key]
                    else:
                        if key not in mem_delta:
                            live_slots.setdefault(key, []).append(replica)
                        mem_delta[key] = word
                for offset, txn in enumerate(txns):
                    if txn != transactions[base + offset]:
                        replica.txn_patches[base + offset] = txn
                self._maybe_resolve_golden(replica)
        return None

    def _maybe_resolve_golden(self, replica: _Replica) -> None:
        """Resolve *replica* onto the golden trajectory if nothing about it
        diverges any more: no register/memory delta and no patched store
        history (a patched history is permanent — such a replica keeps
        riding and resolves to the patched golden result at the end)."""
        if (replica.delta or replica.mem_delta or replica.txn_patches
                or replica.sticky):
            return
        replica.outcome = PackOutcome(self._golden_result, "golden", None)
        self.in_pack_convergences += 1


def make_pack_runner(
    backend: Any,
    max_instructions: int,
    width: int,
    runner: Optional[Any] = None,
) -> Optional[LockstepPackRunner]:
    """Build the lockstep pack runtime for *backend*, or ``None`` when packs
    cannot help: width 1 (the scalar path *is* the pack of one), non-ISS
    backends (the RTL engine has no shared-front-end replay) or reference /
    detailed-trace interpreters (no snapshot API).  *runner* — the plan's
    :class:`~repro.engine.checkpoint.IssCheckpointRunner` — donates its
    golden ladder so the pack forks from the same rungs the scalar runtime
    uses, and its touch timeline when a cached golden artifact carried one
    (the pack then skips the timeline recording pass entirely)."""
    if width <= 1:
        return None
    if getattr(backend, "name", None) != "iss":
        return None
    if not getattr(backend, "supports_checkpoints", False):
        return None
    ladder = None
    timeline = None
    if runner is not None and hasattr(runner, "ladder"):
        ladder = runner.ladder()
        timeline = getattr(runner, "donated_timeline", None)
    return LockstepPackRunner(
        backend, max_instructions, width, ladder=ladder, timeline=timeline
    )
