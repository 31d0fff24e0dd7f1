"""Execution hook interfaces and the event-routing bus.

Hooks are how every higher layer of the reproduction attaches to the raw
machine — the code-cache engine, the monitors, the Daikon front end, and
the invariant-check / repair patches all observe or intervene through this
one interface, mirroring how Determina plugins attach to DynamoRIO.

Dispatch is *subscription based*: when a hook is registered, the
:class:`HookBus` inspects which :class:`ExecutionHook` methods the hook
actually overrides and adds it only to those events' dispatch lists.  The
CPU then pays per event only for the hooks that care about it — Memory
Firewall is called only at control transfers, Heap Guard only at stores,
and an event with no subscribers costs nothing per step.

Hooks fire in registration order within each event.  A hook may:

- raise (e.g. :class:`~repro.errors.MonitorDetection`) to stop the run;
- mutate CPU state (registers/memory) in ``before_instruction`` — this is
  how enforcement patches work;
- return a replacement program counter from ``before_instruction`` to
  redirect control (skip-call and return-from-procedure repairs).

Two hook families (the patch manager and the code cache) only care about
``before_instruction``/``after_instruction`` at a handful of *anchor*
addresses.  Such hooks set :attr:`ExecutionHook.pc_anchored` and register
those addresses on the bus explicitly (:meth:`HookBus.anchor`); the CPU
routes per-instruction events to them with one dict probe instead of an
unconditional call, which is what makes the no-subscriber fast path
possible at all.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.vm.isa import Instruction

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vm.cpu import CPU


class TransferKind:
    """Labels for control-transfer events (plain strings, cheap to compare)."""

    JUMP = "jump"
    BRANCH = "branch"
    CALL = "call"
    INDIRECT_CALL = "indirect_call"
    INDIRECT_JUMP = "indirect_jump"
    RETURN = "return"
    #: A patch redirected control (skip-call / return repairs). The
    #: redirect target may be derived from corrupt state (e.g. a smashed
    #: return address), so monitors validate it like any indirect
    #: transfer.
    PATCH = "patch"


@dataclass
class OperandObservation:
    """The trace record the Daikon x86 front end extracts per execution.

    ``slots`` maps slot name (e.g. ``"target"``, ``"addr"``, ``"src"``) to
    the observed 32-bit value.  ``computed`` names the slot(s) the
    instruction itself computes — invariants at this instruction must
    involve at least one of them (§2.2.2).
    """

    pc: int
    slots: dict[str, int] = field(default_factory=dict)
    computed: tuple[str, ...] = ()


class ExecutionHook:
    """Base class with no-op implementations of every event.

    Subscriptions are inferred: a subclass receives exactly the events
    whose methods it overrides.  Overriding nothing (and leaving
    ``wants_operands`` False) makes registration free at run time.
    """

    #: Set True to make the CPU build :class:`OperandObservation` records
    #: (which costs time — the paper's learning overhead) and deliver them
    #: to :meth:`on_operands`.
    wants_operands = False

    #: Set True to receive *batched* raw operand snapshots instead of
    #: per-instruction :class:`OperandObservation` records: the CPU
    #: appends one flat tuple per traced instruction to a ring buffer and
    #: delivers it via :meth:`on_operand_batch` when the buffer fills
    #: (and at run exit / hook attach/detach).  Batched observation
    #: confines its cost to the pcs :meth:`observes` admits — the CPU
    #: never builds a snapshot for a pc every lazy subscriber filters
    #: out — which is what makes partial tracing cheap at the kernel
    #: level rather than the front-end level.  Note the filter is a
    #: *union* across lazy subscribers: the batch is delivered whole to
    #: every one of them, so a hook sharing a CPU with
    #: differently-filtered peers must still re-filter inside
    #: :meth:`on_operand_batch` (as the trace front end does).
    lazy_operands = False

    #: Method names (e.g. ``"on_transfer"``) this hook overrides but
    #: does not want event-routed.  Lets a batched front end keep its
    #: live callbacks for the legacy mode while staying entirely out of
    #: the hot dispatch lists when the same information arrives in-band
    #: (activation markers in the operand batch).
    suppressed_events: tuple = ()

    #: Set True for hooks whose ``before_instruction``/``after_instruction``
    #: interest is confined to specific addresses.  Anchored hooks are kept
    #: out of the global per-instruction dispatch lists; instead the bus
    #: calls :meth:`bus_attached` so the hook can :meth:`HookBus.anchor`
    #: its addresses (and keep them in sync as they change).
    pc_anchored = False

    def bus_attached(self, bus: "HookBus") -> None:
        """Called when a ``pc_anchored`` hook is subscribed to *bus*."""

    def bus_detached(self, bus: "HookBus") -> None:
        """Called when a ``pc_anchored`` hook is unsubscribed from *bus*."""

    def before_instruction(self, cpu: "CPU", pc: int,
                           instruction: Instruction) -> int | None:
        """Called before each instruction. Return a new pc to redirect."""
        return None

    def after_instruction(self, cpu: "CPU", pc: int,
                          instruction: Instruction) -> None:
        """Called after the instruction's effects are applied."""

    def on_operands(self, cpu: "CPU",
                    observation: OperandObservation) -> None:
        """Receives the per-instruction trace record when enabled."""

    def observes(self, pc: int) -> bool:
        """Whether a ``lazy_operands`` hook wants snapshots at *pc*.

        The CPU consults this once per pc (memoised) when compiling its
        observation plan; return False for instructions outside the
        traced procedures and the kernel skips them entirely.
        """
        return True

    def observation_epoch(self) -> int:
        """Monotonic counter invalidating memoised :meth:`observes`
        answers.  Bump it (e.g. when procedure discovery grows) and the
        CPU re-asks; return a constant when answers never change."""
        return 0

    #: Set True when :meth:`observation_epoch` is a *constant* for this
    #: hook's whole lifetime (e.g. a front end tracing every procedure:
    #: its filter is the identity no matter what discovery learns).
    #: The observed-run kernel polls the epoch on every dispatch and
    #: every trace segment to catch filter changes mid-run; when every
    #: lazy subscriber declares stability it elides that polling
    #: entirely.  Leave False when in doubt — it is purely an
    #: optimisation hint and False is always correct.
    observation_epoch_stable = False

    def on_operand_batch(self, cpu: "CPU", records: list[tuple]) -> None:
        """Receives buffered raw operand snapshots, in execution order.

        Each record is ``(pc, value..., esp)`` laid out per
        :func:`repro.vm.observe.operand_layout`; absent conditional slots
        (a faulting load, an empty stack) carry ``None``.

        Interleaved with the snapshots are *activation markers*,
        recognised by ``record[0] is None``: ``(None, target, esp)``
        marks a call entering *target* with the stack pointer at *esp*,
        and ``(None, None, 0)`` marks a return.  They carry the
        call-shadow transitions in-band, so digestion is independent of
        where the CPU chose to flush — batches may now span any number
        of control transfers.
        """

    def on_store(self, cpu: "CPU", pc: int, address: int, size: int,
                 value: int, old_value: int) -> None:
        """Called after every program data write.

        *old_value* is the word that was at *address* before the write —
        the datum Heap Guard's canary check needs.
        """

    def on_transfer(self, cpu: "CPU", pc: int, kind: str,
                    target: int) -> None:
        """Called before control moves to *target* (monitors veto here)."""

    def on_return(self, cpu: "CPU", pc: int, target: int) -> None:
        """Called when a RET pops *target* (after on_transfer)."""

    def on_alloc(self, cpu: "CPU", pc: int, address: int,
                 size: int) -> None:
        """Called after a heap allocation."""

    def on_free(self, cpu: "CPU", pc: int, address: int) -> None:
        """Called after a heap free."""


#: (method name, HookBus list attribute) for every routed event.  The
#: ``on_operands`` event is intentionally absent: its subscription is
#: governed by :attr:`ExecutionHook.wants_operands`, not by overriding,
#: because building the observation is the expensive part and the CPU
#: must know whether to build it at all.
_EVENT_ROUTES = (
    ("before_instruction", "before"),
    ("after_instruction", "after"),
    ("on_store", "store"),
    ("on_transfer", "transfer"),
    ("on_return", "ret"),
    ("on_alloc", "alloc"),
    ("on_free", "free"),
)


class HookBus:
    """Subscription-based event router between a CPU and its hooks.

    The bus owns one dispatch list per event; list *objects* are stable
    for the lifetime of the bus (they are mutated in place), so the CPU
    may alias them directly and iterate without indirection.  ``version``
    increments on every subscribe/unsubscribe — the CPU's inner run loops
    cache the dispatch configuration and re-validate against it, so hooks
    added or removed mid-run take effect on the next instruction.

    ``before_pc``/``after_pc`` route the per-instruction events for
    anchored hooks: pc -> subscriber list.  Anchor changes do not bump
    ``version`` (both run loops consult the stable dicts live).  A
    change that flips whether a pc is anchored at all appends the pc to
    ``anchor_flips`` and bumps ``anchor_version``: the CPU drains the
    flips and forgets only the verdicts of the compiled runs and traces
    whose span covers them — a compiled run is entered only while no
    anchor lands inside it.
    """

    def __init__(self):
        self.hooks: list[ExecutionHook] = []
        self.version = 0
        self.anchor_version = 0
        self.before: list[ExecutionHook] = []
        self.after: list[ExecutionHook] = []
        self.operands: list[ExecutionHook] = []
        self.lazy_operands: list[ExecutionHook] = []
        self.store: list[ExecutionHook] = []
        self.transfer: list[ExecutionHook] = []
        self.ret: list[ExecutionHook] = []
        self.alloc: list[ExecutionHook] = []
        self.free: list[ExecutionHook] = []
        self.before_pc: dict[int, list[ExecutionHook]] = {}
        self.after_pc: dict[int, list[ExecutionHook]] = {}
        #: pcs whose anchored membership flipped since the CPU last
        #: synced (see ``CPU._sync_anchors``).
        self.anchor_flips: list[int] = []

    # -- registration ---------------------------------------------------

    def subscribe(self, hook: ExecutionHook) -> None:
        """Register *hook*, routing it to the events it overrides."""
        self.hooks.append(hook)
        base = ExecutionHook
        cls = type(hook)
        suppressed = hook.suppressed_events
        for method, event in _EVENT_ROUTES:
            if hook.pc_anchored and event in ("before", "after"):
                continue  # routed per-pc via anchor()
            if method in suppressed:
                continue  # overridden for another intake mode only
            if getattr(cls, method) is not getattr(base, method):
                getattr(self, event).append(hook)
        if hook.wants_operands:
            self.operands.append(hook)
        if hook.lazy_operands:
            self.lazy_operands.append(hook)
        self.version += 1
        if hook.pc_anchored:
            hook.bus_attached(self)

    def unsubscribe(self, hook: ExecutionHook) -> None:
        """Remove *hook* from every event it subscribes to."""
        self.hooks.remove(hook)
        for _, event in _EVENT_ROUTES:
            subscribers = getattr(self, event)
            if hook in subscribers:
                subscribers.remove(hook)
        if hook in self.operands:
            self.operands.remove(hook)
        if hook in self.lazy_operands:
            self.lazy_operands.remove(hook)
        if hook.pc_anchored:
            hook.bus_detached(self)
        # Defensive sweep: drop any anchors the hook left behind.
        for table in (self.before_pc, self.after_pc):
            for pc in [pc for pc, subs in table.items() if hook in subs]:
                table[pc].remove(hook)
                if not table[pc]:
                    del table[pc]
                    self.anchor_flips.append(pc)
                    self.anchor_version += 1
        self.version += 1

    # -- pc anchoring ---------------------------------------------------

    def anchor(self, hook: ExecutionHook, pc: int,
               when: str = "before") -> None:
        """Route the *when*-instruction event at *pc* to *hook*.

        Co-anchored hooks at one pc are kept in registration order, so
        dispatching an anchored list alone (no merge with the global
        list) still matches what a single flat hook list would do.
        """
        table = self.after_pc if when == "after" else self.before_pc
        subscribers = table.get(pc)
        if subscribers is None:
            table[pc] = [hook]
            self.anchor_flips.append(pc)
            self.anchor_version += 1
            return
        subscribers.append(hook)
        hooks = self.hooks
        subscribers.sort(
            key=lambda sub: hooks.index(sub) if sub in hooks
            else len(hooks))

    def unanchor(self, hook: ExecutionHook, pc: int,
                 when: str = "before") -> None:
        """Stop routing the *when*-instruction event at *pc* to *hook*."""
        table = self.after_pc if when == "after" else self.before_pc
        subscribers = table.get(pc)
        if subscribers is not None and hook in subscribers:
            subscribers.remove(hook)
            if not subscribers:
                del table[pc]
                self.anchor_flips.append(pc)
                self.anchor_version += 1

    def ordered(self, subscribers: list[ExecutionHook]
                ) -> list[ExecutionHook]:
        """Sort *subscribers* into registration order.

        Used when global and anchored subscribers meet at one pc — the
        merged call order must match what a single flat hook list would
        have produced.  Hooks anchored without being subscribed (which
        :meth:`anchor` tolerates) sort last.
        """
        hooks = self.hooks
        return sorted(subscribers,
                      key=lambda sub: hooks.index(sub) if sub in hooks
                      else len(hooks))
