"""The MiniX86 interpreter.

The CPU executes a loaded :class:`~repro.vm.binary.Binary` image directly
from memory.  All interesting behaviour — monitoring, tracing, patching —
is layered on via :class:`~repro.vm.hooks.ExecutionHook` instances routed
through a :class:`~repro.vm.hooks.HookBus`; the interpreter itself is
policy-free.

Execution is table driven: each opcode indexes ``_DISPATCH`` to its
handler, and events reach only their subscribers.  When nothing
subscribes to the per-instruction events (``before_instruction``,
``after_instruction``, operand observation), :meth:`CPU.run` drops into a
fast inner loop that skips event dispatch entirely and probes only the
pc-anchored routing tables (where patches and the code cache live), so a
fully monitored run and a bare run execute bit-identically — the monitors
still see every store and transfer — while the bare run pays none of the
hook plumbing.

On top of the threaded-code table sits the *superblock engine*: the CPU
compiles the straight-line stretch from a pc through the next block
ender, read from the image, into a flat pre-bound run of ``(handler,
pc, instruction)`` triples — with maximal ALU/MOV stretches fused into
superinstruction closures over pre-bound operands — and executes the
whole run without re-entering the fetch/dispatch loop.  Runs are shared
per binary and blind to anchors; each CPU enters a run only while none
of its anchors lands inside (its *verdict*, derived on first entry), so
the per-instruction loop survives exactly at patches and cache probes,
mirroring how Determina re-materialises patched fragments.  An anchor
flip forgets only the verdicts of the runs covering that pc.  Segments
end after event-bearing instructions (stores, heap service), whose
subscribers may legally change the dispatch configuration mid-block.

Above the block runs sits the *trace tier* (DynamoRIO traces): completed
block runs feed an edge profile shared per binary, and once a head
crosses :data:`TRACE_THRESHOLD` the next executed chain of runs is
recorded as a trace path.  A trace executes its member runs back to back
with a one-compare guard at each boundary — the transfer handler already
computed the real target, so chaining costs a comparison, not a
dispatch — and a trace (or a self-looping run) whose final target is its
own head re-enters itself without returning to the outer loop at all, so
hot loops retire entirely inside one compiled structure.  Divergence
(the guard fails) falls back to the outer loop at the exact boundary
instruction.  Traces are shared and judged per CPU like runs, over
every member's stretch; the recorded *paths* are anchor-independent
observations of hot control flow.

Orthogonally, when no subscriber listens to store/alloc/free events
(Heap Guard detached — the paper's "bare" deployment), the segment
barriers those opcodes normally impose are *elided*: nothing can mutate
the dispatch configuration mid-block, so whole runs (and whole traces)
compile into single segments with no per-segment re-validation.
Attaching such a subscriber flips the elision premise; the CPU swaps to
the shared tables compiled with barriers and re-derives every verdict.

Learning mode has its own loop, :meth:`CPU._run_observed`: instead of
building a dict-shaped observation per instruction it appends compiled
raw snapshots (:mod:`repro.vm.observe`) to a ring buffer, and only for
the pcs its ``lazy_operands`` subscribers actually trace — so
observation cost is confined to traced procedures at the kernel level,
not the front end.  The observed loop mirrors the bare one structurally:
its runs and traces are anchor-blind shared shapes on the
:class:`~repro.vm.binary.Binary` (extractors take the register file at
call time, so nothing in a compiled observed run is CPU-specific),
honoured per CPU through the same verdicts, and fed by the same
shared edge profile.  The ring buffer is flushed only when it fills or
the run ends — not per control transfer — because call/return
transitions travel *in-band* as activation markers (``(None, target,
esp)`` push, ``(None, None, 0)`` pop) appended by the transfer
machinery, making digestion independent of flush boundaries.

Attack semantics: a control transfer whose target lies outside the code
segment raises :class:`~repro.errors.CodeInjectionExecuted` *at the
transfer*.  On an unprotected machine this models the attacker's payload
gaining control; with Memory Firewall attached, the monitor's
``on_transfer`` hook fires first and converts the event into a clean
:class:`~repro.errors.MonitorDetection` failure.
"""

from __future__ import annotations

import os

from repro.errors import (
    CodeInjectionExecuted,
    DivisionByZero,
    ExecutionLimitExceeded,
    InvalidInstruction,
    MemoryFault,
    StackFault,
)
from repro.vm.assembler import ABSOLUTE_BASE
from repro.vm.binary import Binary
from repro.vm.heap import HeapAllocator
from repro.vm.hooks import (
    ExecutionHook,
    HookBus,
    OperandObservation,
    TransferKind,
)
from repro.vm.isa import (
    BLOCK_ENDERS,
    INSTRUCTION_SIZE,
    WORD_MASK,
    WORD_SIZE,
    Instruction,
    Opcode,
    OperandKind,
    Register,
    to_signed,
)
from repro.vm.memory import Memory
from repro.vm.observe import build_extractor

#: Default instruction budget; generous for the workloads in this repo.
DEFAULT_MAX_STEPS = 5_000_000

#: Hoisted for the hot operand-resolution comparisons in the handlers.
_REG = OperandKind.REGISTER

#: Flush the lazy-observation ring buffer when it reaches this size
#: (the only routine flush point — transfers no longer flush; activation
#: markers carry the call-shadow transitions in-band instead).
_OBS_FLUSH_LIMIT = 512

#: In-band activation-pop marker appended to the observation buffer by
#: RET (``record[0] is None`` distinguishes markers from observations;
#: the call-push twin ``(None, target, esp)`` is built in ``_transfer``).
_OBS_RETURN_MARKER = (None, None, 0)

#: Missing-key sentinel for caches whose values may be None.
_UNSET = object()

#: Opcodes whose handlers dispatch hook events mid-block (stores, heap
#: service).  A subscriber may change the bus configuration from such an
#: event, so compiled runs end a segment after each of them and re-check
#: the bus versions at the boundary.  Control transfers need no entry
#: here: they are block enders, hence always a run's final instruction.
_SEGMENT_BARRIERS = frozenset({
    Opcode.STORE, Opcode.STOREB, Opcode.ALLOC, Opcode.FREE,
})

#: Completed-run count at which a head becomes hot and the next executed
#: chain of runs is recorded as a trace path.  The profile is shared per
#: binary, so short-lived instances (fresh CPUs per request) still heat
#: traces across launches.
TRACE_THRESHOLD = 16

#: Maximum member runs in one trace (DynamoRIO-style cap; recording
#: finalises with whatever it has when the chain reaches this length).
TRACE_MAX_BLOCKS = 12

#: Minimum share of a run's observed successors its hottest successor
#: must hold before a trace chains across an *indirect* terminator
#: (CALLR/JMPR) — the guarded monomorphic-inlining test.  Direct
#: transfers need no stability: their hottest successor is hot by
#: construction.
_INDIRECT_STABILITY = 0.75


def _trace_tier_enabled() -> bool:
    """The trace-tier kill switch, read per loop entry (not at import)
    so forked community workers and in-process tests both honour it."""
    return os.environ.get("REPRO_TRACE_TIER", "1") != "0"


class CPU:
    """A MiniX86 machine instance: registers, memory, heap, hook bus."""

    def __init__(self, binary: Binary, memory: Memory | None = None,
                 guard_canaries: bool = False,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.binary = binary
        self.memory = memory or Memory(code_size=max(len(binary.code), 1))
        self.memory.install_code(binary.code)
        if binary.data:
            self.memory.write_bytes(self.memory.data_base, binary.data)
        self.heap = HeapAllocator(self.memory,
                                  guard_canaries=guard_canaries)
        self.registers = [0] * len(Register)
        self.registers[Register.ESP] = self.memory.stack_top
        self.pc = binary.entry_point
        self.output: list[int] = []
        self.halted = False
        self.steps = 0
        self.max_steps = max_steps
        bus = HookBus()
        self.bus = bus
        # The bus mutates its dispatch lists and routing dicts in place,
        # so the CPU aliases them once and iterates without indirection.
        # ``hooks`` doubles as the registration-order view callers
        # (e.g. the repair layer) inspect.
        self.hooks = bus.hooks
        self._operand_hooks = bus.operands
        self._before = bus.before
        self._after = bus.after
        self._stores = bus.store
        self._transfers = bus.transfer
        self._returns = bus.ret
        self._allocs = bus.alloc
        self._frees = bus.free
        self._before_pc = bus.before_pc
        self._after_pc = bus.after_pc
        #: Cache of decoded instructions, keyed by address. Invalidated
        #: never: the code segment is immutable after load (patches live in
        #: the dynamo layer, not here).
        self._decoded: dict[int, Instruction] = binary.decode_all()
        #: Threaded-code view of the image: pc -> (handler, instruction),
        #: so the fast loop resolves fetch and dispatch in one probe.
        #: Derived purely from the (immutable) image, so it is built once
        #: per binary and shared by every CPU launched on it.
        code = binary._threaded_cache
        if code is None:
            code = {pc: (_DISPATCH[ins.opcode], ins)
                    for pc, ins in self._decoded.items()}
            binary._threaded_cache = code
        self._code: dict[int, tuple] = code
        self._lazy = bus.lazy_operands
        #: Superblock state: ``_compiled`` (entry pc -> pre-bound run,
        #: or False where no run starts) and ``_traces`` (head pc ->
        #: trace run, or False for an unbuildable path) alias the
        #: per-binary shared tables — runs are pure shapes over the
        #: immutable image, shared by every CPU on it.  Anchors are
        #: honoured per CPU through the verdicts below.  The observed
        #: shapes are shared the same way (``Binary._obs_run_cache`` /
        #: ``_obs_trace_cache``); the per-CPU ``_compiled_obs`` /
        #: ``_obs_traces`` dicts hold this CPU's *filtered*
        #: instantiations (extractors dropped where its lazy
        #: subscribers decline the pc), carrying the lazy-observation
        #: epoch as a second validity dimension.
        self._elide_barriers = False
        self._compiled: dict[int, tuple] = {}
        self._traces: dict[int, tuple] = {}
        self._bind_tables()
        #: ``bus.anchor_version`` as of the last :meth:`_sync_anchors`.
        self._synced_anchor_version = bus.anchor_version
        self._compiled_obs: dict[int, tuple] = {}
        self._obs_traces: dict[int, tuple] = {}
        #: Per-CPU verdicts: may this CPU enter the run at an entry /
        #: the trace at a head?  False when one of its anchors lands
        #: inside the span.  Derived lazily on first entry and forgotten
        #: per anchor flip (see :meth:`_sync_anchors`), so they also
        #: cover shapes another CPU compiled later.
        self._run_clear: dict[int, bool] = {}
        self._trace_clear: dict[int, bool] = {}
        if binary._stretches is None:
            binary._stretches = {}
        if binary._run_spans is None:
            binary._run_spans = {}
        if binary._trace_spans is None:
            binary._trace_spans = {}
        if binary._trace_profile is None:
            binary._trace_profile = {}
        if binary._trace_paths is None:
            binary._trace_paths = {}
        if binary._edge_profile is None:
            binary._edge_profile = {}
        if binary._obs_stats is None:
            binary._obs_stats = {"hits": 0, "compiles": 0}
        self._shared_profile: dict[int, int] = binary._trace_profile
        self._shared_paths: dict = binary._trace_paths
        self._edge_profile: dict[int, dict] = binary._edge_profile
        #: Active trace recording: (head pc, [member entry pcs]).
        self._trace_recording: tuple | None = None
        #: Instructions retired inside trace runs (coverage accounting).
        self.trace_retired = 0
        #: pc -> compiled snapshot closure (None = filtered out).
        self._extractors: dict[int, object] = {}
        self._obs_epoch: object = None
        #: Ring buffer of raw operand snapshots awaiting batch delivery.
        self._obs_buffer: list[tuple] = []

    # ------------------------------------------------------------------
    # Hook management
    # ------------------------------------------------------------------

    def add_hook(self, hook: ExecutionHook) -> None:
        """Attach *hook*; the bus routes it to the events it overrides."""
        if hook.lazy_operands and self._obs_buffer:
            # Drain records buffered before this hook subscribed: it
            # must only ever see instructions executed after attach.
            self._flush_observations()
        self.bus.subscribe(hook)
        if hook.lazy_operands:
            self._drop_obs_caches()

    def remove_hook(self, hook: ExecutionHook) -> None:
        """Detach *hook* from every event."""
        if hook.lazy_operands and self._obs_buffer:
            # Deliver what the hook already observed before it detaches.
            self._flush_observations()
        self.bus.unsubscribe(hook)
        if hook.lazy_operands:
            self._drop_obs_caches()

    def _drop_obs_caches(self) -> None:
        """Forget this CPU's filtered observation state (the shared
        tables on the binary are untouched — they are filter-blind)."""
        self._extractors.clear()
        self._compiled_obs.clear()
        self._obs_traces.clear()

    # ------------------------------------------------------------------
    # Register / flag helpers
    # ------------------------------------------------------------------

    def get_register(self, reg: int) -> int:
        return self.registers[reg]

    def set_register(self, reg: int, value: int) -> None:
        self.registers[reg] = value & WORD_MASK

    def _set_flags(self, left: int, right: int) -> None:
        self._flag_left = left & WORD_MASK
        self._flag_right = right & WORD_MASK

    _flag_left = 0
    _flag_right = 0

    #: Set by a guarded fused superinstruction when a micro-op faults:
    #: the faulting instruction's pc (the closure spans several
    #: instructions, so the run executor cannot infer it).  Consumed —
    #: and cleared — by the executor's exception accounting.
    _fault_pc: int | None = None

    def _condition(self, opcode: Opcode) -> bool:
        left, right = self._flag_left, self._flag_right
        # Unsigned comparisons first: they need no sign conversion.
        if opcode == Opcode.JE:
            return left == right
        if opcode == Opcode.JNE:
            return left != right
        if opcode == Opcode.JB:
            return left < right
        if opcode == Opcode.JAE:
            return left >= right
        sleft, sright = to_signed(left), to_signed(right)
        if opcode == Opcode.JL:
            return sleft < sright
        if opcode == Opcode.JLE:
            return sleft <= sright
        if opcode == Opcode.JG:
            return sleft > sright
        if opcode == Opcode.JGE:
            return sleft >= sright
        raise InvalidInstruction(f"not a condition: {opcode}", pc=self.pc)

    # ------------------------------------------------------------------
    # Memory helpers (stores funnel through one choke point for hooks)
    # ------------------------------------------------------------------

    def _effective_address(self, base: int, disp: int) -> int:
        if base == ABSOLUTE_BASE:
            return disp & WORD_MASK
        return (self.registers[base] + disp) & WORD_MASK

    def store_word(self, address: int, value: int, pc: int) -> None:
        """Program-visible word store; notifies subscribers (Heap Guard)."""
        subscribers = self._stores
        if subscribers:
            old_value = self.memory.read_word(address)
            self.memory.write_word(address, value)
            for hook in tuple(subscribers):
                hook.on_store(self, pc, address, WORD_SIZE,
                              value & WORD_MASK, old_value)
        else:
            self.memory.write_word(address, value)

    def store_byte(self, address: int, value: int, pc: int) -> None:
        """Program-visible byte store; notifies subscribers.

        The ``old_value`` delivered to hooks is the word containing the
        byte (read at the aligned address), so Heap Guard's canary test
        works for byte-granularity overruns too.
        """
        subscribers = self._stores
        if not subscribers:
            self.memory.write_byte(address, value)
            return
        aligned = address & ~(WORD_SIZE - 1)
        old_value = 0
        if aligned + WORD_SIZE <= self.memory.stack_top:
            try:
                old_value = self.memory.read_word(aligned)
            except MemoryFault:
                old_value = 0
        self.memory.write_byte(address, value)
        for hook in tuple(subscribers):
            hook.on_store(self, pc, address, 1, value & 0xFF, old_value)

    # ------------------------------------------------------------------
    # Operand observation (the Daikon front end's raw data)
    # ------------------------------------------------------------------

    def observe_operands(self, pc: int,
                         instruction: Instruction) -> OperandObservation:
        """Build the trace record for *instruction* in the current state.

        Slot names are stable per opcode, so (pc, slot) identifies a
        Daikon variable.  ``computed`` marks the slot(s) this instruction
        computes, per the §2.2.2 scoping rule.
        """
        op = instruction.opcode
        regs = self.registers
        slots: dict[str, int] = {}
        computed: tuple[str, ...] = ()

        if op in (Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL,
                  Opcode.DIV, Opcode.AND, Opcode.OR, Opcode.XOR,
                  Opcode.SHL, Opcode.SHR, Opcode.SAR):
            if instruction.b_kind == OperandKind.REGISTER:
                source = regs[instruction.b]
            else:
                source = instruction.b
            slots["src"] = source
            if op != Opcode.MOV:
                # The ALU also *reads* the destination register.
                slots["dst_in"] = regs[instruction.a]
            # "dst" is the value the instruction computes — evaluated here
            # (pure function of the pre-state) so trace records, checks,
            # and enforcement all agree on its meaning.
            slots["dst"] = self._alu_result(op, regs[instruction.a],
                                            source)
            computed = ("dst",)
        elif op in (Opcode.NEG, Opcode.NOT):
            slots["dst_in"] = regs[instruction.a]
            if op == Opcode.NEG:
                slots["dst"] = (-to_signed(regs[instruction.a])) & WORD_MASK
            else:
                slots["dst"] = (~regs[instruction.a]) & WORD_MASK
            computed = ("dst",)
        elif op in (Opcode.LOAD, Opcode.LOADB):
            address = self._effective_address(instruction.b, instruction.c)
            slots["addr"] = address
            try:
                if op == Opcode.LOAD:
                    slots["value"] = self.memory.read_word(address)
                else:
                    slots["value"] = self.memory.read_byte(address)
            except MemoryFault:
                # The load is about to fault; the addr slot is still
                # observable (and is what a correlated invariant needs).
                pass
            computed = ("value", "addr")
        elif op == Opcode.LEA:
            slots["addr"] = self._effective_address(instruction.b,
                                                    instruction.c)
            computed = ("addr",)
        elif op in (Opcode.STORE, Opcode.STOREB):
            address = self._effective_address(instruction.a, instruction.c)
            slots["addr"] = address
            slots["value"] = regs[instruction.b]
            computed = ("addr", "value")
        elif op in (Opcode.CMP, Opcode.TEST):
            slots["left"] = regs[instruction.a]
            if instruction.b_kind == OperandKind.REGISTER:
                slots["right"] = regs[instruction.b]
            else:
                slots["right"] = instruction.b
            computed = ("left",)
        elif op == Opcode.PUSH:
            if instruction.b_kind == OperandKind.REGISTER:
                slots["value"] = regs[instruction.b]
            else:
                slots["value"] = instruction.b
            computed = ("value",)
        elif op == Opcode.POP:
            esp = regs[Register.ESP]
            if esp + WORD_SIZE <= self.memory.stack_top:
                slots["value"] = self.memory.read_word(esp)
                computed = ("value",)
        elif op in (Opcode.CALLR, Opcode.JMPR):
            slots["target"] = regs[instruction.a]
            computed = ("target",)
        elif op == Opcode.ALLOC:
            if instruction.b_kind == OperandKind.REGISTER:
                slots["size"] = regs[instruction.b]
            else:
                slots["size"] = instruction.b
            computed = ("size",)
        elif op == Opcode.FREE:
            slots["value"] = regs[instruction.a]
            computed = ("value",)
        elif op in (Opcode.OUT, Opcode.OUTB):
            if instruction.b_kind == OperandKind.REGISTER:
                slots["value"] = regs[instruction.b]
            else:
                slots["value"] = instruction.b
            computed = ("value",)
        elif op == Opcode.RET:
            esp = regs[Register.ESP]
            if esp + WORD_SIZE <= self.memory.stack_top:
                slots["target"] = self.memory.read_word(esp)
        # Direct jumps/calls, ENTER, LEAVE, HALT, NOP: no data operands.

        slots["esp"] = regs[Register.ESP]
        return OperandObservation(pc=pc, slots=slots, computed=computed)

    def _alu_result(self, op: Opcode, left: int, right: int) -> int:
        """The value an ALU instruction will compute (pre-state function)."""
        if op == Opcode.MOV:
            return right & WORD_MASK
        if op == Opcode.ADD:
            return (left + right) & WORD_MASK
        if op == Opcode.SUB:
            return (left - right) & WORD_MASK
        if op == Opcode.MUL:
            return (left * right) & WORD_MASK
        if op == Opcode.DIV:
            return (left // right) & WORD_MASK if right else 0
        if op == Opcode.AND:
            return left & right
        if op == Opcode.OR:
            return left | right
        if op == Opcode.XOR:
            return left ^ right
        if op == Opcode.SHL:
            return (left << (right & 31)) & WORD_MASK
        if op == Opcode.SHR:
            return (left >> (right & 31)) & WORD_MASK
        if op == Opcode.SAR:
            return (to_signed(left) >> (right & 31)) & WORD_MASK
        return left

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def fetch(self, pc: int) -> Instruction:
        """Decode the instruction at *pc*, enforcing code-segment bounds."""
        instruction = self._decoded.get(pc)
        if instruction is None:
            if not self.memory.in_code(pc):
                raise CodeInjectionExecuted(
                    "control reached non-code memory", pc=pc)
            raise InvalidInstruction("misaligned or invalid pc", pc=pc)
        return instruction

    def step(self) -> None:
        """Execute one instruction with full event dispatch."""
        if self.halted:
            return
        if self.steps >= self.max_steps:
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_steps} steps", pc=self.pc)
        self.steps += 1

        pc = self.pc
        instruction = self.fetch(pc)

        # Dispatch iterates snapshots: a hook may subscribe/unsubscribe
        # (or apply/remove patches) from inside its callback without
        # perturbing this instruction's remaining deliveries.
        redirect: int | None = None
        before = self._before
        anchored = self._before_pc.get(pc)
        if anchored is not None:
            subscribers = self.bus.ordered(before + anchored) \
                if before else tuple(anchored)
        else:
            subscribers = tuple(before)
        for hook in subscribers:
            result = hook.before_instruction(self, pc, instruction)
            if result is not None:
                redirect = result
        if self._operand_hooks:
            observation = self.observe_operands(pc, instruction)
            for hook in tuple(self._operand_hooks):
                hook.on_operands(self, observation)
        if self._lazy:
            epoch = self._lazy_epoch()
            if epoch != self._obs_epoch:
                self._drop_obs_caches()
                self._obs_epoch = epoch
            extractor = self._extractor_for(pc, instruction)
            if extractor is not None:
                self._obs_buffer.append(
                    extractor(self.registers, self.memory))
            if len(self._obs_buffer) >= _OBS_FLUSH_LIMIT:
                # Markers carry activation context in-band, so a flush
                # is legal at any instruction boundary.
                self._flush_observations()
        if redirect is not None:
            # A patch redirected control; skip the original instruction.
            # The target is validated like any dynamic transfer: a repair
            # working from corrupted state (e.g. a smashed return
            # address) must not become a code-injection vector.
            self.pc = self._transfer(pc, TransferKind.PATCH, redirect)
            return

        self.pc = _DISPATCH[instruction.opcode](self, pc, instruction)

        after = self._after
        anchored = self._after_pc.get(pc)
        if anchored is not None:
            subscribers = self.bus.ordered(after + anchored) \
                if after else tuple(anchored)
        else:
            subscribers = tuple(after)
        for hook in subscribers:
            hook.after_instruction(self, pc, instruction)

    def run(self, max_steps: int | None = None) -> None:
        """Run until HALT (or an exception propagates).

        Chooses between three loops per dispatch configuration: the full
        :meth:`step` loop whenever any hook subscribes to a granular
        per-instruction event, :meth:`_run_observed` when only batched
        operand observation is wanted, and :meth:`_run_unhooked`
        otherwise.  The bus version gates all three, so subscribing or
        unsubscribing mid-run (adaptive policies, staged learning)
        switches loops at the next instruction boundary.
        """
        if max_steps is not None:
            self.max_steps = max_steps
        bus = self.bus
        try:
            while not self.halted:
                version = bus.version
                if bus.before or bus.after or bus.operands:
                    step = self.step
                    while not self.halted and bus.version == version:
                        step()
                elif bus.lazy_operands:
                    self._run_observed()
                else:
                    self._run_unhooked()
        finally:
            if self._obs_buffer:
                self._flush_observations()

    def _run_unhooked(self) -> None:
        """Fast inner loop: no granular subscribers, anchors only.

        Returns when the machine halts, or when the bus version moves
        (a subscription change may require the full loop).  Anchored
        before/after routing is honoured via one dict probe per
        instruction; store/transfer/alloc events still reach their
        subscribers through the opcode handlers, so monitors see exactly
        what they would in the full loop.

        ``pc`` and ``steps`` live in locals for speed and are
        synchronised back to the CPU at anchored dispatch points and on
        every exit (including exceptions), so outcome classification and
        ``interrupted_pc`` match the full loop exactly.  Subscribers that
        need per-instruction CPU state beyond their event arguments
        should subscribe to a granular event instead.

        Wherever a run starts, the loop executes the compiled
        superblock run instead of stepping: every instruction from the
        current pc through the next block ender retires through
        pre-bound handlers, with the step budget checked once for the
        whole run and segment boundaries re-validating the bus versions.
        A run is entered only while no anchor lands inside it and the
        budget covers it entirely; otherwise this loop's
        per-instruction path preserves exact semantics.

        Trace runs execute the same way, with a guard comparison at each
        member boundary (divergence exits at exactly that boundary), and
        any run whose final transfer lands back on its own unanchored
        entry re-enters itself directly — provided the budget covers a
        whole further pass and no version moved — so hot loops cycle
        without touching this loop's bookkeeping at all.
        """
        bus = self.bus
        version = bus.version
        code_get = self._code.get
        before_pc_get = self._before_pc.get
        after_pc = self._after_pc
        elide = not (bus.store or bus.alloc or bus.free)
        if elide != self._elide_barriers:
            # The elision premise changed (a store/heap subscriber
            # attached or detached): swap to the tables compiled under
            # the new premise and re-derive every verdict.
            self._elide_barriers = elide
            self._bind_tables()
            self._run_clear.clear()
            self._trace_clear.clear()
            self._sync_anchors()
        compiled_get = self._compiled.get
        traces_get = self._traces.get
        run_clear_get = self._run_clear.get
        trace_clear_get = self._trace_clear.get
        paths = self._shared_paths
        tracing = _trace_tier_enabled()
        max_steps = self.max_steps
        steps = self.steps
        pc = self.pc
        try:
            while not self.halted and bus.version == version:
                if steps >= max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_steps} steps", pc=pc)
                steps += 1
                entry = code_get(pc)
                if entry is None:
                    self.fetch(pc)  # raises the precise fault for this pc
                handler, instruction = entry
                anchored = before_pc_get(pc)
                if anchored is not None:
                    self.steps = steps
                    self.pc = pc
                    redirect = None
                    for hook in tuple(anchored):
                        result = hook.before_instruction(self, pc,
                                                         instruction)
                        if result is not None:
                            redirect = result
                    if redirect is not None:
                        pc = self._transfer(pc, TransferKind.PATCH,
                                            redirect)
                        continue
                anchor_version = bus.anchor_version
                if anchor_version != self._synced_anchor_version:
                    # Anchors flipped (patch install/remove, block
                    # build/ejection): forget the verdicts they touch.
                    self._sync_anchors()
                is_trace = False
                if tracing:
                    run = traces_get(pc)
                    if run is None and pc in paths:
                        run = self._adopt_trace(pc)
                    if run:
                        is_trace = trace_clear_get(pc)
                        if is_trace is None:
                            is_trace = self._trace_verdict(pc)
                if not is_trace:
                    run = compiled_get(pc)
                    if run is None:
                        run = self._compile_run(pc)
                    if run:
                        clear = run_clear_get(pc)
                        if clear is None:
                            clear = self._run_verdict(pc, run[1])
                        if not clear:
                            run = None
                if run and bus.version == version and \
                        steps - 1 + run[1] <= max_steps:
                    entry_pc = pc
                    done = 0
                    can_loop = anchored is None
                    try:
                        while True:
                            for seg_ops, seg_count, guard in run[0]:
                                if guard is not None and pc != guard:
                                    break  # trace diverged at a boundary
                                for op, ins_pc, ins in seg_ops:
                                    pc = op(self, ins_pc, ins)
                                done += seg_count
                                if bus.version != version or \
                                        bus.anchor_version != \
                                        anchor_version:
                                    break
                            else:
                                if can_loop and pc == entry_pc and \
                                        not self.halted and \
                                        bus.version == version and \
                                        bus.anchor_version == \
                                        anchor_version and \
                                        steps - 1 + done + run[1] \
                                        <= max_steps:
                                    continue  # cycle inside the run
                            break
                    except BaseException:
                        # Straight-line contiguity per segment: at the
                        # moment a handler raises, ``ins_pc`` is the
                        # faulting instruction and ``seg_ops[0][1]`` its
                        # segment's first address.  A guarded fused
                        # closure pins the exact pc instead (its span
                        # covers several instructions).
                        fault_pc = self._fault_pc
                        if fault_pc is not None:
                            self._fault_pc = None
                            pc = fault_pc
                        else:
                            fault_pc = ins_pc
                        steps += done + \
                            (fault_pc - seg_ops[0][1]) // INSTRUCTION_SIZE
                        raise
                    steps += done - 1
                    if is_trace:
                        self.trace_retired += done
                    elif tracing and done == run[1]:
                        self._profile_edge(entry_pc, pc)
                    continue
                here = pc
                pc = handler(self, here, instruction)
                if after_pc:
                    anchored = after_pc.get(here)
                    if anchored is not None:
                        self.steps = steps
                        self.pc = pc
                        for hook in tuple(anchored):
                            hook.after_instruction(self, here, instruction)
                        pc = self.pc  # an after-patch may have redirected
        finally:
            self.steps = steps
            self.pc = pc

    def _run_observed(self) -> None:
        """Batched-observation loop: lazy operand subscribers only.

        Structurally :meth:`_run_unhooked` plus snapshot extraction: per
        traced instruction a compiled extractor appends one raw record
        to the ring buffer, flushed when it fills (and by :meth:`run` on
        exit) — activation markers appended by the transfer machinery
        carry the call-shadow transitions in-band, so flush boundaries
        are free to batch across any number of transfers.  Observed runs
        and traces are shared anchor-blind shapes on the binary
        (extractors take the register file at call time); this loop
        executes this CPU's filtered instantiations of them, honours the
        same verdicts as the bare loop, feeds the same edge profile,
        and retires hot loops inside guard-chained observed traces with
        direct loop-back re-entry.  Fusion is skipped here because
        extraction is inherently per-instruction.
        """
        bus = self.bus
        version = bus.version
        code_get = self._code.get
        before_pc_get = self._before_pc.get
        after_pc = self._after_pc
        compiled_get = self._compiled_obs.get
        traces_get = self._obs_traces.get
        run_clear_get = self._run_clear.get
        trace_clear_get = self._trace_clear.get
        paths = self._shared_paths
        tracing = _trace_tier_enabled()
        buffer = self._obs_buffer
        buffer_append = buffer.append
        regs = self.registers
        memory = self.memory
        max_steps = self.max_steps
        steps = self.steps
        pc = self.pc
        # The subscriber set is pinned for the duration of this loop
        # (bus.version exits it on any change), so when every lazy hook
        # declares a constant filter epoch the per-dispatch and
        # per-segment polling below is provably redundant: validate the
        # caches once here and skip the polls.
        epoch_stable = all(hook.observation_epoch_stable
                           for hook in self._lazy)
        epoch = self._lazy_epoch()
        if epoch != self._obs_epoch:
            self._drop_obs_caches()
            self._obs_epoch = epoch
        try:
            while not self.halted and bus.version == version:
                if steps >= max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_steps} steps", pc=pc)
                steps += 1
                if len(buffer) >= _OBS_FLUSH_LIMIT:
                    self.steps = steps
                    self.pc = pc
                    self._flush_observations()
                entry = code_get(pc)
                if entry is None:
                    self.fetch(pc)  # raises the precise fault for this pc
                handler, instruction = entry
                anchored = before_pc_get(pc)
                redirect = None
                if anchored is not None:
                    self.steps = steps
                    self.pc = pc
                    for hook in tuple(anchored):
                        result = hook.before_instruction(self, pc,
                                                         instruction)
                        if result is not None:
                            redirect = result
                # Procedure discovery (riding the cache's probes and
                # transfers) changes which pcs are traced; re-validate
                # the memoised filter decisions each iteration (elided
                # when every subscriber's epoch is constant).
                if not epoch_stable:
                    epoch = self._lazy_epoch()
                    if epoch != self._obs_epoch:
                        self._drop_obs_caches()
                        self._obs_epoch = epoch
                if redirect is not None:
                    # Mirror step(): the skipped instruction is still
                    # observed in its pre-redirect state.
                    extractor = self._extractor_for(pc, instruction)
                    if extractor is not None:
                        buffer_append(extractor(regs, memory))
                    pc = self._transfer(pc, TransferKind.PATCH,
                                        redirect)
                    continue
                anchor_version = bus.anchor_version
                if anchor_version != self._synced_anchor_version:
                    self._sync_anchors()
                is_trace = False
                if tracing:
                    run = traces_get(pc)
                    if run is None and pc in paths:
                        run = self._adopt_obs_trace(pc)
                    if run:
                        is_trace = trace_clear_get(pc)
                        if is_trace is None:
                            is_trace = self._trace_verdict(pc)
                if not is_trace:
                    run = compiled_get(pc)
                    if run is None:
                        run = self._obs_run(pc)
                    if run:
                        clear = run_clear_get(pc)
                        if clear is None:
                            clear = self._run_verdict(pc, run[1])
                        if not clear:
                            run = None
                if run and bus.version == version and \
                        steps - 1 + run[1] <= max_steps:
                    entry_pc = pc
                    done = 0
                    can_loop = anchored is None
                    try:
                        while True:
                            for seg_ops, seg_count, guard in run[0]:
                                if guard is not None and pc != guard:
                                    break  # trace diverged at a boundary
                                for extractor, op, ins_pc, ins in seg_ops:
                                    if extractor is not None:
                                        buffer_append(
                                            extractor(regs, memory))
                                    pc = op(self, ins_pc, ins)
                                done += seg_count
                                if bus.version != version or \
                                        bus.anchor_version != \
                                        anchor_version or \
                                        not (epoch_stable or
                                             self._lazy_epoch() ==
                                             epoch):
                                    break
                            else:
                                if can_loop and pc == entry_pc and \
                                        not self.halted and \
                                        bus.version == version and \
                                        bus.anchor_version == \
                                        anchor_version and \
                                        (epoch_stable or
                                         self._lazy_epoch() == epoch) \
                                        and \
                                        len(buffer) < _OBS_FLUSH_LIMIT \
                                        and steps - 1 + done + run[1] \
                                        <= max_steps:
                                    continue  # cycle inside the run
                            break
                    except BaseException:
                        # Observed runs never fuse, so ``ins_pc`` is the
                        # faulting instruction; segments are contiguous
                        # from their first op (``seg_ops[0][2]``).
                        steps += done + \
                            (ins_pc - seg_ops[0][2]) // INSTRUCTION_SIZE
                        raise
                    steps += done - 1
                    if is_trace:
                        self.trace_retired += done
                    elif tracing and done == run[1]:
                        self._profile_edge(entry_pc, pc)
                    continue
                extractor = self._extractor_for(pc, instruction)
                if extractor is not None:
                    buffer_append(extractor(regs, memory))
                here = pc
                pc = handler(self, here, instruction)
                if after_pc:
                    anchored = after_pc.get(here)
                    if anchored is not None:
                        self.steps = steps
                        self.pc = pc
                        for hook in tuple(anchored):
                            hook.after_instruction(self, here, instruction)
                        pc = self.pc  # an after-patch may have redirected
        finally:
            self.steps = steps
            self.pc = pc

    # ------------------------------------------------------------------
    # Superblock compilation (per-CPU; see the module-level helpers)
    # ------------------------------------------------------------------

    def _take_run(self, entry_pc: int) -> tuple | None:
        """The ``(pc, instruction)`` stretch a run from *entry_pc*
        covers: straight-line from *entry_pc* through the next block
        ender, read from the image and memoised per binary.  Every run
        therefore ends in the transfer whose target a trace guard
        compares against.  None — a fact about the image — when the
        stretch is one instruction long or leaves the image before a
        block ender.  A new stretch enters the run span index, which
        anchor flips consult (see :meth:`_sync_anchors`)."""
        stretches = self.binary._stretches
        take = stretches.get(entry_pc, _UNSET)
        if take is _UNSET:
            take = stretches[entry_pc] = _stretch(self._decoded, entry_pc)
            if take is not None:
                spans = self.binary._run_spans
                for ins_pc, _ in take:
                    owners = spans.get(ins_pc)
                    if owners is None:
                        spans[ins_pc] = {entry_pc}
                    else:
                        owners.add(entry_pc)
        return take

    def _compile_run(self, entry_pc: int) -> tuple | bool:
        """Compile ``(segments, instruction count)`` for the fast loop
        into the shared table of the current elision premise (False
        where no run starts).

        Each segment is ``(ops, count, guard)`` with ``guard`` always
        None for a plain run (trace segments carry their expected entry
        pc there).  Runs bind only instruction constants (never CPU
        state) and ignore anchors, so one table per premise serves every
        CPU on the binary; each CPU honours its own anchors through its
        verdicts (:meth:`_run_verdict`).
        """
        take = self._take_run(entry_pc)
        if take is None:
            run = False
        else:
            elide = self._elide_barriers
            barriers = frozenset() if elide else _SEGMENT_BARRIERS
            makers = _MICRO_MAKERS_ELIDED if elide else _MICRO_MAKERS
            run = (tuple((_compile_ops(segment, makers), len(segment), None)
                         for segment in _split_segments(take, barriers)),
                   len(take))
        self._compiled[entry_pc] = run
        return run

    def _obs_shared_run(self, entry_pc: int) -> tuple | bool:
        """The shared observed run at *entry_pc* (False where no run
        starts).

        Observed runs are the twin of :meth:`_compile_run` with one
        extra element per op: the shared extractor compiled for that pc
        (extractors bind only instruction constants, so the whole run
        shape is a pure function of the immutable image and is shared
        per binary via ``Binary._obs_run_cache``).  Barriers are never
        elided and ops never fuse — extraction is inherently
        per-instruction.
        """
        binary = self.binary
        shared = binary._obs_run_cache
        if shared is None:
            shared = binary._obs_run_cache = {}
        stats = binary._obs_stats
        run = shared.get(entry_pc)
        if run is None:
            take = self._take_run(entry_pc)
            if take is None:
                run = False
            else:
                stats["compiles"] += 1
                extractors = binary._extractor_cache
                if extractors is None:
                    extractors = binary._extractor_cache = {}
                segments = []
                for segment in _split_segments(take, _SEGMENT_BARRIERS):
                    ops = []
                    for ins_pc, instruction in segment:
                        extractor = extractors.get(ins_pc)
                        if extractor is None:
                            extractor = extractors[ins_pc] = \
                                build_extractor(ins_pc, instruction)
                        ops.append((extractor,
                                    _DISPATCH[instruction.opcode],
                                    ins_pc, instruction))
                    segments.append((tuple(ops), len(segment), None))
                run = (tuple(segments), len(take))
            shared[entry_pc] = run
        elif run:
            stats["hits"] += 1
        return run

    def _obs_run(self, entry_pc: int) -> tuple | bool:
        """This CPU's filtered instance of the shared observed run at
        *entry_pc*, cached per CPU (False where no run starts)."""
        shared_run = self._obs_shared_run(entry_pc)
        run = self._obs_instantiate(shared_run) if shared_run else False
        self._compiled_obs[entry_pc] = run
        return run

    def _obs_instantiate(self, shared_run: tuple) -> tuple:
        """This CPU's view of a shared observed run: extractors for pcs
        the current subscribers filter out are dropped.  The filtered
        instance is itself cached on the binary, keyed by the shared
        shape's identity (pinned forever by the shared caches), the
        subscriber tuple, and their filter epoch — so the per-op filter
        walk happens once per binary, and every freshly launched CPU
        with the same subscribers inherits the instance for the cost of
        one dict probe."""
        binary = self.binary
        cache = binary._obs_instance_cache
        if cache is None:
            cache = binary._obs_instance_cache = {}
        key = (id(shared_run), tuple(self.bus.lazy_operands),
               self._lazy_epoch())
        instance = cache.get(key)
        if instance is None:
            instance = self._obs_filter(shared_run)
            cache[key] = instance
        return instance

    def _obs_filter(self, shared_run: tuple) -> tuple:
        """Apply the current subscribers' pc filter to *shared_run*.
        In the common observe-everything case the shared shape is
        returned unchanged (no copy); partial filters rebuild only the
        segments they touch."""
        lazy = self.bus.lazy_operands
        segments = None
        for index, (seg_ops, seg_count, guard) in \
                enumerate(shared_run[0]):
            ops = None
            for position, bound in enumerate(seg_ops):
                if any(hook.observes(bound[2]) for hook in lazy):
                    continue
                if ops is None:
                    ops = list(seg_ops)
                ops[position] = (None,) + bound[1:]
            if ops is not None:
                if segments is None:
                    segments = list(shared_run[0])
                segments[index] = (tuple(ops), seg_count, guard)
        if segments is None:
            return shared_run
        return (tuple(segments), shared_run[1])

    def _bind_tables(self) -> None:
        """Alias ``_compiled``/``_traces`` to the shared tables of the
        current barrier-elision premise.

        A compiled run is a pure function of the immutable image and
        the elision premise — it is anchor-*blind* — so two shared
        tables per binary cover every CPU ever launched on it: a fresh
        per-request instance inherits every run and trace an earlier
        instance compiled.  Each CPU honours its own anchors separately
        through its verdicts.
        """
        tables = self.binary._shared_tables
        if tables is None:
            tables = self.binary._shared_tables = {
                False: ({}, {}), True: ({}, {})}
        self._compiled, self._traces = tables[self._elide_barriers]

    def _run_verdict(self, entry_pc: int, count: int) -> bool:
        """May this CPU enter the run of *count* instructions at
        *entry_pc*?  Not while one of its anchors lands inside the span:
        an after-anchor anywhere, or a before-anchor past the entry (the
        outer loop dispatches one at the entry before entering), since
        anchored events fire only on the per-instruction path."""
        end = entry_pc + count * INSTRUCTION_SIZE
        clear = self._before_pc.keys().isdisjoint(
            range(entry_pc + INSTRUCTION_SIZE, end, INSTRUCTION_SIZE)) \
            and self._after_pc.keys().isdisjoint(
                range(entry_pc, end, INSTRUCTION_SIZE))
        self._run_clear[entry_pc] = clear
        return clear

    def _trace_verdict(self, head: int) -> bool:
        """:meth:`_run_verdict` over every member stretch of the trace
        at *head*.  Only the head's own entry is exempt: a before-anchor
        at a later member's entry must fire, and the trace would chain
        straight through it."""
        before = self._before_pc.keys()
        after = self._after_pc.keys()
        clear = True
        for entry in self._shared_paths[head]:
            end = entry + len(self._take_run(entry)) * INSTRUCTION_SIZE
            first = entry + INSTRUCTION_SIZE if entry == head else entry
            if not (before.isdisjoint(range(first, end, INSTRUCTION_SIZE))
                    and after.isdisjoint(
                        range(entry, end, INSTRUCTION_SIZE))):
                clear = False
                break
        self._trace_clear[head] = clear
        return clear

    def _sync_anchors(self) -> None:
        """Apply the anchor flips since the last sync as a delta.

        Each pc whose anchored membership flipped forgets only the
        verdicts of the runs and traces whose span covers it (the
        per-binary span indexes list them); they are re-derived on next
        entry.  A trace recording in progress is dropped: its chain may
        cross the flip.
        """
        bus = self.bus
        flips = bus.anchor_flips
        run_clear = self._run_clear
        trace_clear = self._trace_clear
        if run_clear or trace_clear:
            run_spans = self.binary._run_spans
            trace_spans = self.binary._trace_spans
            for pc in flips:
                for entry in run_spans.get(pc, ()):
                    run_clear.pop(entry, None)
                for head in trace_spans.get(pc, ()):
                    trace_clear.pop(head, None)
        flips.clear()
        self._trace_recording = None
        self._synced_anchor_version = bus.anchor_version

    # ------------------------------------------------------------------
    # Trace tier: edge profiling, path recording, trace instantiation
    # ------------------------------------------------------------------

    def _trace_member(self, pc: int) -> tuple | bool:
        """The compiled run at *pc* (False where none starts).  Every
        run ends in its block ender, so a trace can chain through
        exactly the pcs that start one."""
        run = self._compiled.get(pc)
        if run is None:
            run = self._compile_run(pc)
        return run

    def _profile_edge(self, entry_pc: int, next_pc: int) -> None:
        """Account one completed block run; drive trace recording.

        Called from the fast loop and the observed loop whenever a
        plain run retires whole.  Heat accumulates in the per-binary
        profile, and every retirement feeds the per-binary successor
        histogram; once a head crosses :data:`TRACE_THRESHOLD` the
        chain of runs executed next is recorded and published as that
        head's trace path (``False`` when recording refused, which also
        stops profiling the head).  Recording only starts and extends
        along *hottest* successors (:meth:`_extend_worthy`) — a trace
        captures the dominant path through a branchy region, not
        whichever path happened to run at the threshold crossing — and
        chaining across an indirect transfer additionally demands a
        stable (monomorphic-majority) observed target.  Paths are
        shared by both tiers: the bare loop stitches them through
        :meth:`_adopt_trace`, the observed loop through
        :meth:`_adopt_obs_trace`.
        """
        edges = self._edge_profile.get(entry_pc)
        if edges is None:
            self._edge_profile[entry_pc] = edges = {}
        edges[next_pc] = edges.get(next_pc, 0) + 1
        paths = self._shared_paths
        recording = self._trace_recording
        if recording is not None:
            head, chain = recording
            if chain[-1] != entry_pc:
                # The chain broke (per-instruction territory, another
                # trace, a fault path); drop the recording — the head
                # stays hot and recording re-arms on its next run.
                self._trace_recording = None
            elif next_pc == head or next_pc in chain or \
                    len(chain) >= TRACE_MAX_BLOCKS or \
                    not self._extend_worthy(entry_pc, next_pc) or \
                    not self._trace_member(next_pc):
                # Loop closed, chain re-entered itself, cap reached,
                # the edge is off the hot path, or the next run is
                # ineligible: publish what we have (a chain is born
                # with two members, so it is always a valid path).
                self._trace_recording = None
                paths.setdefault(head, tuple(chain))
                return
            else:
                chain.append(next_pc)
                return
        if entry_pc in paths:
            return
        profile = self._shared_profile
        count = profile.get(entry_pc, 0) + 1
        profile[entry_pc] = count
        if count < TRACE_THRESHOLD or not self._trace_member(entry_pc):
            return
        if next_pc == entry_pc:
            # Self-looping run: the executor's loop-back already cycles
            # it in place; a one-member trace would add nothing.
            paths[entry_pc] = False
        elif self._extend_worthy(entry_pc, next_pc) and \
                self._trace_member(next_pc):
            self._trace_recording = (entry_pc, [entry_pc, next_pc])

    def _extend_worthy(self, from_pc: int, next_pc: int) -> bool:
        """May a trace follow the edge ``from_pc -> next_pc``?

        Only along the hottest recorded successor — trace selection is
        hottest-successor, not first-recorded.  When the run at
        *from_pc* ends in an indirect transfer (CALLR/JMPR) the edge
        must additionally be *stable*: the hottest target must hold at
        least :data:`_INDIRECT_STABILITY` of all observed successors
        before the trace inlines across it (guarded monomorphic
        inlining — the guard at the member boundary still validates
        every following pass).
        """
        edges = self._edge_profile.get(from_pc)
        if not edges:
            return False
        best = max(edges, key=edges.get)
        if next_pc != best:
            return False
        terminator = self._take_run(from_pc)[-1][1].opcode
        if terminator == Opcode.CALLR or terminator == Opcode.JMPR:
            return edges[best] >= \
                _INDIRECT_STABILITY * sum(edges.values())
        return True

    def _adopt_trace(self, pc: int) -> tuple | bool:
        """Stitch the recorded path at *pc* into the shared trace table
        of the current premise (False when recording refused the head
        or a member has no run)."""
        path = self._shared_paths[pc]
        trace = _stitch(path, self._trace_member) if path else False
        if trace:
            self._index_trace(path)
        self._traces[pc] = trace
        return trace

    def _adopt_obs_trace(self, pc: int) -> tuple | bool:
        """Observed twin of :meth:`_adopt_trace`: the stitched shape,
        whose ops carry extractors, is shared per binary
        (``Binary._obs_trace_cache``, keyed by head), then instantiated
        against this CPU's subscriber filters."""
        shared = self.binary._obs_trace_cache
        if shared is None:
            shared = self.binary._obs_trace_cache = {}
        trace = shared.get(pc)
        if trace is None:
            path = self._shared_paths[pc]
            trace = _stitch(path, self._obs_shared_run) if path else False
            if trace:
                self._index_trace(path)
            shared[pc] = trace
        instance = self._obs_instantiate(trace) if trace else False
        self._obs_traces[pc] = instance
        return instance

    def _index_trace(self, path: tuple) -> None:
        """Enter the member stretches of *path* in the trace span
        index, under its head."""
        head = path[0]
        spans = self.binary._trace_spans
        for entry in path:
            for ins_pc, _ in self._take_run(entry):
                owners = spans.get(ins_pc)
                if owners is None:
                    spans[ins_pc] = {head}
                else:
                    owners.add(head)

    # ------------------------------------------------------------------
    # Lazy operand observation plumbing
    # ------------------------------------------------------------------

    def _extractor_for(self, pc: int, instruction: Instruction):
        """The memoised snapshot closure for *pc* (None = filtered).

        Compiled closures bind only instruction constants and live on
        the binary; the per-CPU cache layers the current subscribers'
        filter verdict on top (dropped when the filter epoch moves)."""
        cache = self._extractors
        extractor = cache.get(pc, _UNSET)
        if extractor is _UNSET:
            wanted = any(hook.observes(pc)
                         for hook in self.bus.lazy_operands)
            if wanted:
                shared = self.binary._extractor_cache
                if shared is None:
                    shared = self.binary._extractor_cache = {}
                extractor = shared.get(pc)
                if extractor is None:
                    extractor = shared[pc] = build_extractor(
                        pc, instruction)
            else:
                extractor = None
            cache[pc] = extractor
        return extractor

    def _lazy_epoch(self) -> int:
        """Combined filter epoch of the lazy operand subscribers."""
        lazy = self._lazy
        if len(lazy) == 1:
            return lazy[0].observation_epoch()
        return sum(hook.observation_epoch() for hook in lazy)

    def _flush_observations(self) -> None:
        """Deliver and clear the buffered snapshots, in order."""
        buffer = self._obs_buffer
        if not buffer:
            return
        records = buffer[:]
        del buffer[:]
        for hook in tuple(self.bus.lazy_operands):
            hook.on_operand_batch(self, records)

    # ------------------------------------------------------------------
    # Instruction semantics (one handler per opcode; see _DISPATCH)
    # ------------------------------------------------------------------

    def _operand_b(self, instruction: Instruction) -> int:
        if instruction.b_kind == OperandKind.REGISTER:
            return self.registers[instruction.b]
        return instruction.b

    def _transfer(self, pc: int, kind: str, target: int) -> int:
        """Announce and validate a control transfer; return the target."""
        subscribers = self._transfers
        if subscribers:
            if len(subscribers) == 1:
                # The common deployment (code cache alone, or one
                # monitor) skips the defensive snapshot copy; the
                # single subscriber is resolved before the call, so it
                # may unsubscribe itself safely.
                subscribers[0].on_transfer(self, pc, kind, target)
            else:
                for hook in tuple(subscribers):
                    hook.on_transfer(self, pc, kind, target)
        memory = self.memory
        if not memory.code_base <= target < memory.code_limit:
            raise CodeInjectionExecuted(
                f"{kind} to non-code address {target:#x}", pc=pc)
        if self._lazy and (kind == TransferKind.CALL or
                           kind == TransferKind.INDIRECT_CALL):
            # In-band activation marker: batched subscribers replay
            # call-shadow pushes from the record stream itself, so the
            # buffer need not flush per transfer.  Appended after
            # validation — a rejected transfer digests nothing, exactly
            # like the eager path.  ESP here already reflects the
            # return-address push, matching what an on_transfer
            # subscriber would read.
            self._obs_buffer.append(
                (None, target, self.registers[_ESP_]))
        return target

    def _push(self, value: int, pc: int) -> None:
        esp = self.registers[Register.ESP] - WORD_SIZE
        if esp < self.memory.stack_base:
            raise StackFault("stack overflow", pc=pc)
        self.registers[Register.ESP] = esp
        # Pushes bypass on_store: the canary discipline applies to program
        # data writes, not the machine's own stack engine.
        self.memory.write_word(esp, value)

    def _pop(self, pc: int) -> int:
        esp = self.registers[Register.ESP]
        if esp + WORD_SIZE > self.memory.stack_top:
            raise StackFault("stack underflow", pc=pc)
        value = self.memory.read_word(esp)
        self.registers[Register.ESP] = esp + WORD_SIZE
        return value

    def _op_mov(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.b] if ins.b_kind == _REG
                       else ins.b) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_load(self, pc: int, ins: Instruction) -> int:
        base = ins.b
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.registers[ins.a] = self.memory.read_word(address)
        return pc + INSTRUCTION_SIZE

    def _op_loadb(self, pc: int, ins: Instruction) -> int:
        base = ins.b
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.registers[ins.a] = self.memory.read_byte(address)
        return pc + INSTRUCTION_SIZE

    def _op_store(self, pc: int, ins: Instruction) -> int:
        base = ins.a
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.store_word(address, self.registers[ins.b], pc)
        return pc + INSTRUCTION_SIZE

    def _op_storeb(self, pc: int, ins: Instruction) -> int:
        base = ins.a
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.store_byte(address, self.registers[ins.b], pc)
        return pc + INSTRUCTION_SIZE

    def _op_lea(self, pc: int, ins: Instruction) -> int:
        base = ins.b
        self.registers[ins.a] = (
            ins.c if base == ABSOLUTE_BASE
            else self.registers[base] + ins.c) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_add(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] + (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_sub(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] - (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_mul(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] * (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_div(self, pc: int, ins: Instruction) -> int:
        divisor = self._operand_b(ins)
        if divisor == 0:
            raise DivisionByZero("division by zero", pc=pc)
        self.set_register(ins.a, self.registers[ins.a] // divisor)
        return pc + INSTRUCTION_SIZE

    def _op_and(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] & (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_or(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] | (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_xor(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] ^ (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_shl(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] << ((regs[ins.b] if ins.b_kind == _REG
                                        else ins.b) & 31)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_shr(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] >> ((regs[ins.b] if ins.b_kind == _REG
                                        else ins.b) & 31)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_sar(self, pc: int, ins: Instruction) -> int:
        self.set_register(
            ins.a, to_signed(self.registers[ins.a])
            >> (self._operand_b(ins) & 31))
        return pc + INSTRUCTION_SIZE

    def _op_neg(self, pc: int, ins: Instruction) -> int:
        self.set_register(ins.a, -to_signed(self.registers[ins.a]))
        return pc + INSTRUCTION_SIZE

    def _op_not(self, pc: int, ins: Instruction) -> int:
        self.set_register(ins.a, ~self.registers[ins.a])
        return pc + INSTRUCTION_SIZE

    def _op_cmp(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._flag_left = regs[ins.a]
        self._flag_right = (regs[ins.b] if ins.b_kind == _REG
                            else ins.b) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_test(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._flag_left = regs[ins.a] & (
            regs[ins.b] if ins.b_kind == _REG else ins.b) & WORD_MASK
        self._flag_right = 0
        return pc + INSTRUCTION_SIZE

    def _op_jmp(self, pc: int, ins: Instruction) -> int:
        return self._transfer(pc, TransferKind.JUMP, ins.a)

    def _op_jmpr(self, pc: int, ins: Instruction) -> int:
        return self._transfer(pc, TransferKind.INDIRECT_JUMP,
                              self.registers[ins.a])

    def _op_jcc(self, pc: int, ins: Instruction) -> int:
        if self._condition(ins.opcode):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    # Conditional jumps are block terminators — unfusable by nature —
    # so each gets a dedicated handler with its comparison inlined
    # rather than paying a _condition() call per branch.

    def _op_je(self, pc: int, ins: Instruction) -> int:
        if self._flag_left == self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jne(self, pc: int, ins: Instruction) -> int:
        if self._flag_left != self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jb(self, pc: int, ins: Instruction) -> int:
        if self._flag_left < self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jae(self, pc: int, ins: Instruction) -> int:
        if self._flag_left >= self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jl(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) < to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jle(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) <= to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jg(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) > to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jge(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) >= to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_push(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._push(regs[ins.b] if ins.b_kind == _REG else ins.b, pc)
        return pc + INSTRUCTION_SIZE

    def _op_pop(self, pc: int, ins: Instruction) -> int:
        self.registers[ins.a] = self._pop(pc)
        return pc + INSTRUCTION_SIZE

    def _op_call(self, pc: int, ins: Instruction) -> int:
        self._push(pc + INSTRUCTION_SIZE, pc)
        return self._transfer(pc, TransferKind.CALL, ins.a)

    def _op_callr(self, pc: int, ins: Instruction) -> int:
        self._push(pc + INSTRUCTION_SIZE, pc)
        return self._transfer(pc, TransferKind.INDIRECT_CALL,
                              self.registers[ins.a])

    def _op_ret(self, pc: int, ins: Instruction) -> int:
        target = self._pop(pc)
        next_pc = self._transfer(pc, TransferKind.RETURN, target)
        subscribers = self._returns
        if subscribers:
            for hook in tuple(subscribers):
                hook.on_return(self, pc, target)
        if self._lazy:
            # In-band activation pop marker (the call-push twin lives
            # in _transfer); appended after the return validated and
            # announced, matching the eager on_return ordering.
            self._obs_buffer.append(_OBS_RETURN_MARKER)
        return next_pc

    def _op_enter(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._push(regs[Register.EBP], pc)
        regs[Register.EBP] = regs[Register.ESP]
        esp = regs[Register.ESP] - ins.a
        if esp < self.memory.stack_base:
            raise StackFault("stack overflow in enter", pc=pc)
        regs[Register.ESP] = esp
        return pc + INSTRUCTION_SIZE

    def _op_leave(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[Register.ESP] = regs[Register.EBP]
        regs[Register.EBP] = self._pop(pc)
        return pc + INSTRUCTION_SIZE

    def _op_alloc(self, pc: int, ins: Instruction) -> int:
        size = self._operand_b(ins)
        address = self.heap.allocate(to_signed(size))
        self.set_register(Register.EAX, address)
        subscribers = self._allocs
        if subscribers:
            for hook in tuple(subscribers):
                hook.on_alloc(self, pc, address, size)
        return pc + INSTRUCTION_SIZE

    def _op_free(self, pc: int, ins: Instruction) -> int:
        address = self.registers[ins.a]
        self.heap.free(address)
        subscribers = self._frees
        if subscribers:
            for hook in tuple(subscribers):
                hook.on_free(self, pc, address)
        return pc + INSTRUCTION_SIZE

    def _op_out(self, pc: int, ins: Instruction) -> int:
        self.output.append(self._operand_b(ins))
        return pc + INSTRUCTION_SIZE

    def _op_outb(self, pc: int, ins: Instruction) -> int:
        self.output.append(self._operand_b(ins) & 0xFF)
        return pc + INSTRUCTION_SIZE

    def _op_halt(self, pc: int, ins: Instruction) -> int:
        self.halted = True
        return pc + INSTRUCTION_SIZE

    def _op_nop(self, pc: int, ins: Instruction) -> int:
        return pc + INSTRUCTION_SIZE

    def _op_invalid(self, pc: int,
                    ins: Instruction) -> int:  # pragma: no cover
        raise InvalidInstruction(f"unimplemented opcode {ins.opcode}",
                                 pc=pc)


_HANDLERS = {
    Opcode.MOV: CPU._op_mov,
    Opcode.LOAD: CPU._op_load,
    Opcode.LOADB: CPU._op_loadb,
    Opcode.STORE: CPU._op_store,
    Opcode.STOREB: CPU._op_storeb,
    Opcode.LEA: CPU._op_lea,
    Opcode.ADD: CPU._op_add,
    Opcode.SUB: CPU._op_sub,
    Opcode.MUL: CPU._op_mul,
    Opcode.DIV: CPU._op_div,
    Opcode.AND: CPU._op_and,
    Opcode.OR: CPU._op_or,
    Opcode.XOR: CPU._op_xor,
    Opcode.SHL: CPU._op_shl,
    Opcode.SHR: CPU._op_shr,
    Opcode.SAR: CPU._op_sar,
    Opcode.NEG: CPU._op_neg,
    Opcode.NOT: CPU._op_not,
    Opcode.CMP: CPU._op_cmp,
    Opcode.TEST: CPU._op_test,
    Opcode.JMP: CPU._op_jmp,
    Opcode.JMPR: CPU._op_jmpr,
    Opcode.JE: CPU._op_je,
    Opcode.JNE: CPU._op_jne,
    Opcode.JL: CPU._op_jl,
    Opcode.JLE: CPU._op_jle,
    Opcode.JG: CPU._op_jg,
    Opcode.JGE: CPU._op_jge,
    Opcode.JB: CPU._op_jb,
    Opcode.JAE: CPU._op_jae,
    Opcode.PUSH: CPU._op_push,
    Opcode.POP: CPU._op_pop,
    Opcode.CALL: CPU._op_call,
    Opcode.CALLR: CPU._op_callr,
    Opcode.RET: CPU._op_ret,
    Opcode.ENTER: CPU._op_enter,
    Opcode.LEAVE: CPU._op_leave,
    Opcode.ALLOC: CPU._op_alloc,
    Opcode.FREE: CPU._op_free,
    Opcode.OUT: CPU._op_out,
    Opcode.OUTB: CPU._op_outb,
    Opcode.HALT: CPU._op_halt,
    Opcode.NOP: CPU._op_nop,
}

#: Opcode-indexed dispatch table. Entries for gaps in the opcode space
#: raise InvalidInstruction (unreachable via fetch, which only yields
#: successfully decoded instructions).
_DISPATCH = [CPU._op_invalid] * (max(Opcode) + 1)
for _opcode, _handler in _HANDLERS.items():
    _DISPATCH[_opcode] = _handler
del _opcode, _handler


# ----------------------------------------------------------------------
# Superblock compilation: fused superinstructions and pre-bound runs
# ----------------------------------------------------------------------
#
# A *micro-op* is a closure over one instruction's constants with the
# signature ``micro(cpu, regs)``; it must not dispatch hook events, so a
# fused stretch of micro-ops needs no per-instruction bookkeeping at
# all.  ``_fuse`` packs a stretch into one superinstruction with the
# ordinary handler signature, so compiled runs stay homogeneous.
#
# Micro-ops come in two families.  The ALU/MOV family is *non-raising*
# and fuses unconditionally.  The memory/stack family (loads, pushes,
# pops, frame ops, DIV — and stores, when the barrier-elision premise
# holds) may fault; stretches containing any of them fuse into a
# *guarded* superinstruction that counts retired micro-ops and pins the
# faulting pc on the CPU (``_fault_pc``), which the run executor uses
# to keep step accounting and ``interrupted_pc`` bit-identical to the
# per-instruction loop.

_MASK = WORD_MASK
_ESP_ = int(Register.ESP)
_EBP_ = int(Register.EBP)


def _micro_mov(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[b]
    else:
        value = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = value
    return micro


def _micro_add(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] + regs[b]) & _MASK
    else:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] + b) & _MASK
    return micro


def _micro_sub(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] - regs[b]) & _MASK
    else:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] - b) & _MASK
    return micro


def _micro_mul(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] * regs[b]) & _MASK
    else:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] * b) & _MASK
    return micro


def _micro_and(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] & regs[b]
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = regs[a] & b
    return micro


def _micro_or(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] | regs[b]
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = regs[a] | b
    return micro


def _micro_xor(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] ^ regs[b]
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = regs[a] ^ b
    return micro


def _micro_shl(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] << (regs[b] & 31)) & _MASK
    else:
        shift = ins.b & 31

        def micro(cpu, regs):
            regs[a] = (regs[a] << shift) & _MASK
    return micro


def _micro_shr(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] >> (regs[b] & 31)
    else:
        shift = ins.b & 31

        def micro(cpu, regs):
            regs[a] = regs[a] >> shift
    return micro


def _micro_sar(ins):
    a = ins.a
    signed = to_signed
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (signed(regs[a]) >> (regs[b] & 31)) & _MASK
    else:
        shift = ins.b & 31

        def micro(cpu, regs):
            regs[a] = (signed(regs[a]) >> shift) & _MASK
    return micro


def _micro_neg(ins):
    a = ins.a

    def micro(cpu, regs):
        regs[a] = -regs[a] & _MASK
    return micro


def _micro_not(ins):
    a = ins.a

    def micro(cpu, regs):
        regs[a] = ~regs[a] & _MASK
    return micro


def _micro_cmp(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            cpu._flag_left = regs[a]
            cpu._flag_right = regs[b]
    else:
        right = ins.b & _MASK

        def micro(cpu, regs):
            cpu._flag_left = regs[a]
            cpu._flag_right = right
    return micro


def _micro_test(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            cpu._flag_left = regs[a] & regs[b]
            cpu._flag_right = 0
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            cpu._flag_left = regs[a] & b
            cpu._flag_right = 0
    return micro


def _micro_lea(ins):
    a = ins.a
    base = ins.b
    if base == ABSOLUTE_BASE:
        value = ins.c & _MASK

        def micro(cpu, regs):
            regs[a] = value
    else:
        disp = ins.c

        def micro(cpu, regs):
            regs[a] = (regs[base] + disp) & _MASK
    return micro


def _micro_load(ins):
    a = ins.a
    base = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_word(address)
    else:
        disp = ins.c

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_word((regs[base] + disp) & _MASK)
    return micro


def _micro_loadb(ins):
    a = ins.a
    base = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_byte(address)
    else:
        disp = ins.c

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_byte((regs[base] + disp) & _MASK)
    return micro


def _micro_store(ins):
    base = ins.a
    src = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            cpu.memory.write_word(address, regs[src])
    else:
        disp = ins.c

        def micro(cpu, regs):
            cpu.memory.write_word((regs[base] + disp) & _MASK,
                                  regs[src])
    return micro


def _micro_storeb(ins):
    base = ins.a
    src = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            cpu.memory.write_byte(address, regs[src])
    else:
        disp = ins.c

        def micro(cpu, regs):
            cpu.memory.write_byte((regs[base] + disp) & _MASK,
                                  regs[src])
    return micro


def _micro_out(ins):
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            cpu.output.append(regs[b])
    else:
        def micro(cpu, regs):
            cpu.output.append(b)
    return micro


def _micro_outb(ins):
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            cpu.output.append(regs[b] & 0xFF)
    else:
        value = b & 0xFF

        def micro(cpu, regs):
            cpu.output.append(value)
    return micro


def _micro_push(ins, pc):
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            esp = regs[_ESP_] - WORD_SIZE
            if esp < cpu.memory.stack_base:
                raise StackFault("stack overflow", pc=pc)
            regs[_ESP_] = esp
            cpu.memory.write_word(esp, regs[b])
    else:
        def micro(cpu, regs):
            esp = regs[_ESP_] - WORD_SIZE
            if esp < cpu.memory.stack_base:
                raise StackFault("stack overflow", pc=pc)
            regs[_ESP_] = esp
            cpu.memory.write_word(esp, b)
    return micro


def _micro_pop(ins, pc):
    a = ins.a

    def micro(cpu, regs):
        esp = regs[_ESP_]
        memory = cpu.memory
        if esp + WORD_SIZE > memory.stack_top:
            raise StackFault("stack underflow", pc=pc)
        regs[a] = memory.read_word(esp)
        regs[_ESP_] = esp + WORD_SIZE
    return micro


def _micro_enter(ins, pc):
    frame = ins.a

    def micro(cpu, regs):
        memory = cpu.memory
        esp = regs[_ESP_] - WORD_SIZE
        if esp < memory.stack_base:
            raise StackFault("stack overflow", pc=pc)
        regs[_ESP_] = esp
        memory.write_word(esp, regs[_EBP_])
        regs[_EBP_] = esp
        esp -= frame
        if esp < memory.stack_base:
            raise StackFault("stack overflow in enter", pc=pc)
        regs[_ESP_] = esp
    return micro


def _micro_leave(ins, pc):
    def micro(cpu, regs):
        memory = cpu.memory
        esp = regs[_EBP_]
        regs[_ESP_] = esp
        if esp + WORD_SIZE > memory.stack_top:
            raise StackFault("stack underflow", pc=pc)
        regs[_EBP_] = memory.read_word(esp)
        regs[_ESP_] = esp + WORD_SIZE
    return micro


def _micro_div(ins, pc):
    a = ins.a
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            divisor = regs[b]
            if divisor == 0:
                raise DivisionByZero("division by zero", pc=pc)
            regs[a] = (regs[a] // divisor) & _MASK
    else:
        def micro(cpu, regs):
            if b == 0:
                raise DivisionByZero("division by zero", pc=pc)
            regs[a] = (regs[a] // b) & _MASK
    return micro


#: Always-fusable micro-ops (no hook events; faults carry the same
#: message/pc the plain handler would raise).
_MICRO_MAKERS = {
    Opcode.MOV: _micro_mov,
    Opcode.ADD: _micro_add,
    Opcode.SUB: _micro_sub,
    Opcode.MUL: _micro_mul,
    Opcode.AND: _micro_and,
    Opcode.OR: _micro_or,
    Opcode.XOR: _micro_xor,
    Opcode.SHL: _micro_shl,
    Opcode.SHR: _micro_shr,
    Opcode.SAR: _micro_sar,
    Opcode.NEG: _micro_neg,
    Opcode.NOT: _micro_not,
    Opcode.CMP: _micro_cmp,
    Opcode.TEST: _micro_test,
    Opcode.LEA: _micro_lea,
    Opcode.LOAD: _micro_load,
    Opcode.LOADB: _micro_loadb,
    Opcode.OUT: _micro_out,
    Opcode.OUTB: _micro_outb,
    Opcode.PUSH: _micro_push,
    Opcode.POP: _micro_pop,
    Opcode.ENTER: _micro_enter,
    Opcode.LEAVE: _micro_leave,
    Opcode.DIV: _micro_div,
}

#: Additionally fusable when the barrier-elision premise holds (no
#: store subscriber): the store handlers dispatch no events, so whole
#: loop bodies collapse into one guarded closure.
_MICRO_MAKERS_ELIDED = dict(_MICRO_MAKERS)
_MICRO_MAKERS_ELIDED[Opcode.STORE] = _micro_store
_MICRO_MAKERS_ELIDED[Opcode.STOREB] = _micro_storeb

#: Micro-ops whose makers bind the instruction's pc (their faults must
#: carry the exact message the plain handler raises).
_PC_BOUND_MICROS = frozenset({
    Opcode.PUSH, Opcode.POP, Opcode.ENTER, Opcode.LEAVE, Opcode.DIV,
})

#: Micro-ops that may raise; a fused stretch containing one compiles
#: into the guarded superinstruction flavour.
_RAISING_MICROS = frozenset({
    Opcode.LOAD, Opcode.LOADB, Opcode.STORE, Opcode.STOREB,
    Opcode.PUSH, Opcode.POP, Opcode.ENTER, Opcode.LEAVE, Opcode.DIV,
})

#: Instruction -> micro-op, for the pc-independent makers only: those
#: closures are shared across pcs, blocks, CPUs, and binaries.
#: pc-bound micro-ops are deliberately NOT memoised here — they are
#: constructed per compiled run and live exactly as long as the
#: binary's run cache holds that run, so a process assembling many
#: binaries never accumulates dead (instruction, pc) closures.
_MICRO_CACHE: dict[Instruction, object] = {}


def _micro_for(ins_pc: int, instruction: Instruction, makers: dict):
    """The micro-op for *instruction*, or None if unfusable under
    *makers* (the elision-mode maker table)."""
    opcode = instruction.opcode
    maker = makers.get(opcode)
    if maker is None:
        return None
    if opcode in _PC_BOUND_MICROS:
        return maker(instruction, ins_pc)
    micro = _MICRO_CACHE.get(instruction)
    if micro is None:
        micro = _MICRO_CACHE[instruction] = maker(instruction)
    return micro


def _fuse(micros: tuple):
    """Pack consecutive non-raising micro-ops into one handler."""
    advance = len(micros) * INSTRUCTION_SIZE

    def superinstruction(cpu, pc, _ins):
        regs = cpu.registers
        for micro in micros:
            micro(cpu, regs)
        return pc + advance
    return superinstruction


def _fuse_guarded(micros: tuple):
    """Guarded flavour for stretches whose micro-ops may fault: count
    retired micro-ops and pin the faulting pc on the CPU so the run
    executor's accounting stays exact."""
    advance = len(micros) * INSTRUCTION_SIZE

    def superinstruction(cpu, pc, _ins):
        regs = cpu.registers
        index = 0
        try:
            for micro in micros:
                micro(cpu, regs)
                index += 1
        except BaseException:
            cpu._fault_pc = pc + index * INSTRUCTION_SIZE
            raise
        return pc + advance
    return superinstruction


def _stretch(decoded: dict, entry_pc: int) -> tuple | None:
    """The straight-line ``(pc, instruction)`` stretch from *entry_pc*
    through the next block ender; None when it is a single instruction
    or leaves the decoded image first."""
    items = []
    pc = entry_pc
    while True:
        instruction = decoded.get(pc)
        if instruction is None:
            return None
        items.append((pc, instruction))
        if instruction.opcode in BLOCK_ENDERS:
            return tuple(items) if len(items) > 1 else None
        pc += INSTRUCTION_SIZE


def _stitch(path: tuple, member) -> tuple | bool:
    """Stitch the runs ``member(entry)`` gives for each entry of *path*
    into one guarded trace run (False when a member has no run).

    Every member after the head contributes its first segment with a
    guard equal to its entry pc — the preceding transfer handler already
    computed the real target, so following the trace costs one
    comparison per boundary.
    """
    segments: list = []
    total = 0
    for position, entry in enumerate(path):
        run = member(entry)
        if not run:
            return False
        seg_list, count = run
        if position:
            first = seg_list[0]
            segments.append((first[0], first[1], entry))
            segments.extend(seg_list[1:])
        else:
            segments.extend(seg_list)
        total += count
    return (tuple(segments), total)


def _split_segments(items: list, barriers: frozenset) -> list[list]:
    """Split a run's ``(pc, instruction)`` list after each barrier op.

    *barriers* is empty when the caller has proven no subscriber can be
    reached from the barrier opcodes (store/heap elision), collapsing
    the run into one segment.
    """
    segments: list[list] = [[]]
    for item in items:
        segments[-1].append(item)
        if item[1].opcode in barriers:
            segments.append([])
    if not segments[-1]:
        segments.pop()
    return segments


def _compile_ops(segment: list, makers: dict) -> tuple:
    """Pre-bind one segment into ``(handler, pc, instruction)`` triples,
    fusing maximal stretches of two or more micro-ops.  A stretch with
    any raising micro-op compiles into the guarded superinstruction
    flavour; pure ALU/MOV stretches keep the unguarded fast one."""
    ops: list = []
    fusable: list = []

    def close_stretch():
        if len(fusable) >= 2:
            micros = tuple(micro for _, _, micro in fusable)
            if any(ins.opcode in _RAISING_MICROS
                   for _, ins, _ in fusable):
                handler = _fuse_guarded(micros)
            else:
                handler = _fuse(micros)
            ops.append((handler, fusable[0][0], None))
        else:
            for ins_pc, ins, _ in fusable:
                ops.append((_DISPATCH[ins.opcode], ins_pc, ins))
        del fusable[:]

    for ins_pc, ins in segment:
        micro = _micro_for(ins_pc, ins, makers)
        if micro is not None:
            fusable.append((ins_pc, ins, micro))
        else:
            close_stretch()
            ops.append((_DISPATCH[ins.opcode], ins_pc, ins))
    close_stretch()
    return tuple(ops)
