"""Basic block discovery over stripped binary images.

A basic block starts at a control-transfer target (or the entry point) and
extends to the first block-ending instruction (jump, branch, call, return,
halt).  Like DynamoRIO, discovery is purely dynamic: blocks are decoded the
first time control reaches them, so the system never needs static procedure
boundaries — which a stripped binary does not have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidInstruction
from repro.vm.binary import Binary
from repro.vm.isa import (
    CONDITIONAL_JUMPS,
    INSTRUCTION_SIZE,
    Instruction,
    Opcode,
)


@dataclass
class BasicBlock:
    """A run of straight-line instructions ending in a control transfer.

    ``truncated`` marks a block that was cut short because it ran into
    another block's start; it implicitly falls through to ``end``.
    """

    start: int
    instructions: list[tuple[int, Instruction]] = field(default_factory=list)
    truncated: bool = False

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        last_pc, _ = self.instructions[-1]
        return last_pc + INSTRUCTION_SIZE

    @property
    def terminator(self) -> Instruction:
        """The block-ending instruction."""
        return self.instructions[-1][1]

    @property
    def terminator_pc(self) -> int:
        return self.instructions[-1][0]

    def addresses(self) -> list[int]:
        """Instruction addresses in this block, in order."""
        return [pc for pc, _ in self.instructions]

    def contains(self, pc: int) -> bool:
        """True if *pc* is one of this block's instruction addresses."""
        return self.start <= pc < self.end and (
            (pc - self.start) % INSTRUCTION_SIZE == 0)

    def successor_targets(self) -> list[int]:
        """Statically known successor addresses within the procedure.

        Calls are treated as falling through (the callee is a different
        procedure); indirect jumps and returns have no static successors.
        """
        if self.truncated:
            return [self.end]
        term = self.terminator
        term_pc = self.terminator_pc
        fallthrough = term_pc + INSTRUCTION_SIZE
        if term.opcode == Opcode.JMP:
            return [term.a]
        if term.opcode in CONDITIONAL_JUMPS:
            return [term.a, fallthrough]
        if term.opcode in (Opcode.CALL, Opcode.CALLR):
            return [fallthrough]
        # RET, JMPR, HALT: no intra-procedure successors.
        return []

    def call_target(self) -> int | None:
        """Direct call target, if the terminator is a direct call."""
        if self.terminator.opcode == Opcode.CALL:
            return self.terminator.a
        return None


def decode_block(binary: Binary, start: int,
                 stop_before: frozenset[int] | None = None) -> BasicBlock:
    """Decode the basic block beginning at *start*.

    ``stop_before`` lists addresses already known to start other blocks;
    decoding stops (with an implicit fall-through) when it would run into
    one, which keeps blocks non-overlapping once the block map is warm.
    """
    block = BasicBlock(start=start)
    pc = start
    while True:
        if stop_before and pc != start and pc in stop_before:
            # Fall-through into an existing block: end this block here;
            # it implicitly continues at `pc`.
            block.truncated = True
            break
        instruction = binary.decode_at(pc)
        block.instructions.append((pc, instruction))
        if instruction.is_block_ender():
            break
        pc += INSTRUCTION_SIZE
        if pc >= len(binary.code):
            raise InvalidInstruction(
                "block ran off the end of the code image", pc=pc)
    return block


class BlockMap:
    """All basic blocks discovered so far, keyed by start address.

    The map also answers the *membership* question Memory Firewall needs:
    "is this address a legitimate transfer target?" — legitimate targets
    are block starts and instruction addresses inside discovered blocks.
    """

    def __init__(self, binary: Binary):
        self.binary = binary
        self.blocks: dict[int, BasicBlock] = {}
        self._instruction_to_block: dict[int, int] = {}
        #: Memoised attach-time anchor list (see CodeCache._anchor_all):
        #: a (block count, cached set, pcs) tuple, rebuilt whenever the
        #: keyed state moves.
        self._anchor_template: tuple | None = None

    def __contains__(self, start: int) -> bool:
        return start in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def get(self, start: int) -> BasicBlock | None:
        return self.blocks.get(start)

    def discover(self, start: int) -> BasicBlock:
        """Return the block at *start*, decoding it on first request.

        Decoded blocks are shared per binary: successive instances
        replaying the same workload discover blocks in the same order
        with the same truncations, so after the first instance the
        per-launch decode cost collapses to a validation walk.  A cached
        block is reused only when this map's current stop set would
        reproduce it exactly; otherwise it is re-decoded (and the shared
        slot converges on the workload-typical variant).
        """
        block = self.blocks.get(start)
        if block is None:
            block = self._decode_shared(start)
            self.blocks[start] = block
            for pc in block.addresses():
                # First discovery wins; overlapping tails keep their
                # original owner, which is adequate for lookup purposes.
                self._instruction_to_block.setdefault(pc, start)
        return block

    def _decode_shared(self, start: int) -> BasicBlock:
        """The block at *start* under this map's stops, via the shared
        per-binary cache.  Cached blocks are treated as immutable."""
        shared = self.binary._block_cache
        if shared is None:
            shared = self.binary._block_cache = {}
        cached = shared.get(start)
        if cached is not None:
            # Reusable iff a fresh decode under the current stops would
            # reproduce it: no stop lands on an interior instruction,
            # and a truncated block's cut point is still a stop.
            stops = self.blocks
            if not any(pc != start and pc in stops
                       for pc, _ in cached.instructions) and \
                    (not cached.truncated or cached.end in stops):
                return cached
        block = decode_block(self.binary, start,
                             stop_before=frozenset(self.blocks))
        shared[start] = block
        return block

    def block_of(self, pc: int) -> BasicBlock | None:
        """The block whose instruction list contains *pc*, if known."""
        start = self._instruction_to_block.get(pc)
        if start is None:
            return None
        return self.blocks[start]

    def known_instruction(self, pc: int) -> bool:
        """True if *pc* is an instruction address in a discovered block."""
        return pc in self._instruction_to_block
