"""Dynamic procedure discovery (§2.2.3).

The paper's combined static/dynamic analysis: there is no reliable way to
find procedure entry points statically in a stripped binary, so ClearView
considers each basic block the first time it *executes*.  If the block is
not already part of a known control flow graph, it is assumed to be the
entry point of a new procedure, and symbolic execution traces out the
procedure's blocks from there: following direct jumps and branches, falling
through calls, and stopping at returns and unresolvable indirect jumps.

This may split one static procedure into several dynamically discovered
ones (procedure fission); the paper reports this is rare and benign, and
our reproduction inherits the same property.
"""

from __future__ import annotations

from repro.cfg.graph import ProcedureCFG
from repro.dynamo.blocks import BlockMap, decode_block
from repro.dynamo.code_cache import CachePlugin, CodeCache
from repro.dynamo.blocks import BasicBlock
from repro.vm.binary import Binary
from repro.vm.isa import Opcode


class ProcedureDatabase:
    """All control flow graphs discovered so far, keyed by entry address."""

    def __init__(self, binary: Binary):
        self.binary = binary
        self.procedures: dict[int, ProcedureCFG] = {}
        self._instruction_to_procedure: dict[int, int] = {}
        self.fission_events = 0
        #: Bumped on every discovery. pc -> procedure attributions are
        #: append-only (an attributed pc never changes owner), so caches
        #: keyed on them stay valid while the version holds; the trace
        #: front end and the CPU's observation filter revalidate on it.
        self.version = 0

    # -- queries -----------------------------------------------------------

    def procedure_of(self, pc: int) -> ProcedureCFG | None:
        """The procedure whose CFG contains instruction *pc*, if any."""
        entry = self._instruction_to_procedure.get(pc)
        if entry is None:
            return None
        return self.procedures.get(entry)

    def known_block(self, start: int) -> bool:
        """True if a known CFG already contains the block at *start*."""
        return start in self._instruction_to_procedure

    def entries(self) -> list[int]:
        return sorted(self.procedures)

    def snapshot(self) -> "ProcedureDatabase":
        """A copy that later discoveries on this database do not reach.

        A CFG never changes once traced, so the copy shares them; only
        the two indexes discovery appends to are copied.
        """
        copy = ProcedureDatabase(self.binary)
        copy.procedures = dict(self.procedures)
        copy._instruction_to_procedure = dict(self._instruction_to_procedure)
        copy.fission_events = self.fission_events
        copy.version = self.version
        return copy

    # -- discovery ------------------------------------------------------------

    def observe_block_execution(self, start: int) -> ProcedureCFG | None:
        """React to the first execution of the block at *start*.

        If no known CFG contains it, assume it begins a new procedure and
        symbolically trace that procedure's CFG.  Returns the new CFG, or
        None if the block was already covered.
        """
        if self.known_block(start):
            return None
        return self._trace_procedure(start)

    def _trace_procedure(self, entry: int) -> ProcedureCFG:
        """Symbolically trace out the CFG of the procedure entered at
        *entry* (§2.2.3): follow direct control flow, fall through calls,
        stop at returns and indirect jumps.

        Block boundaries are computed to a fixpoint: any address that is
        a branch target splits the block that would otherwise run through
        it, so blocks never overlap (overlap would corrupt the
        predominator relation the invariant scoping depends on)."""
        starts: set[int] = {entry}
        while True:
            new_starts: set[int] = set()
            for start in sorted(starts):
                if self.known_block(start) and start != entry:
                    continue
                block = decode_block(self.binary, start,
                                     stop_before=frozenset(starts))
                for target in block.successor_targets():
                    if 0 <= target < len(self.binary.code) and \
                            target not in starts:
                        new_starts.add(target)
            if not new_starts:
                break
            starts |= new_starts

        cfg = ProcedureCFG(entry=entry)
        for start in sorted(starts):
            if self.known_block(start) and start != entry:
                # Ran into another procedure's code: treat the boundary
                # as a procedure split (fission) and do not absorb it.
                self.fission_events += 1
                continue
            block = decode_block(self.binary, start,
                                 stop_before=frozenset(starts))
            cfg.add_block(block)
            for target in block.successor_targets():
                if 0 <= target < len(self.binary.code):
                    cfg.add_edge(start, target)
        self.procedures[entry] = cfg
        for pc in cfg.instruction_addresses():
            self._instruction_to_procedure.setdefault(pc, entry)
        self.version += 1
        return cfg


class DiscoveryPlugin(CachePlugin):
    """Feeds first-time block executions into a :class:`ProcedureDatabase`.

    Attach to a :class:`~repro.dynamo.code_cache.CodeCache` so procedure
    discovery rides along with ordinary execution, exactly as in the
    paper's implementation.
    """

    def __init__(self, database: ProcedureDatabase):
        self.database = database

    def on_block_build(self, cache: CodeCache, block: BasicBlock) -> None:
        self.database.observe_block_execution(block.start)

    def on_block_restore(self, cache: CodeCache,
                         block: BasicBlock) -> None:
        # A restored cache replays its blocks in discovery order;
        # observing them keeps the procedure database identical to the
        # one a cold sequence of builds would have produced (the
        # observation is idempotent for already-known blocks).
        self.database.observe_block_execution(block.start)


def discover_all_reachable(binary: Binary,
                           roots: list[int] | None = None
                           ) -> ProcedureDatabase:
    """Eagerly discover procedures reachable from *roots* via direct calls.

    A convenience for tests and offline analysis: starts at the entry point
    (or the given roots), traces each procedure, then recursively traces
    every direct call target.  Dynamic discovery during execution remains
    the authoritative mechanism; this helper just warms a database.
    """
    database = ProcedureDatabase(binary)
    worklist = list(roots) if roots else [binary.entry_point]
    while worklist:
        entry = worklist.pop()
        if database.known_block(entry):
            continue
        cfg = database.observe_block_execution(entry)
        if cfg is None:
            continue
        for block in cfg.blocks.values():
            target = block.call_target()
            if target is not None and not database.known_block(target):
                worklist.append(target)
            if block.terminator.opcode == Opcode.JMP and \
                    not database.known_block(block.terminator.a) and \
                    block.terminator.a not in cfg.blocks:
                worklist.append(block.terminator.a)
    return database
