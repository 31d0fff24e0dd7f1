"""The code cache: DynamoRIO-style managed block execution.

All code conceptually executes out of the cache.  The first time control
reaches an address that is not cached, the block is decoded ("built"),
offered to every registered :class:`CachePlugin` for validation and
transformation, and then cached.  Ejecting a block forces it to be rebuilt
(and re-instrumented) the next time control reaches it — which is how
patches take effect in a running application without a restart.

The cache also charges a *warm-up cost* per block build, modelling the
dominant cost the paper reports in Table 3's replay columns (20-30 s of
cache warm-up per Firefox restart).  The cost is an instruction-count
surrogate: deterministic, hardware-independent, and visible to the
benchmark harness.
"""

from __future__ import annotations

from repro.dynamo.blocks import BasicBlock, BlockMap
from repro.vm.binary import Binary
from repro.vm.cpu import CPU
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import CONDITIONAL_JUMPS, INSTRUCTION_SIZE, Instruction

#: Synthetic work units charged per block build (cache warm-up model).
BLOCK_BUILD_COST = 25


class CachePlugin:
    """Validation/transformation hook invoked as blocks enter the cache."""

    def on_block_build(self, cache: "CodeCache",
                       block: BasicBlock) -> None:
        """Inspect or act on a block as it is inserted into the cache."""

    def on_block_eject(self, cache: "CodeCache",
                       block: BasicBlock) -> None:
        """Called when a block is removed from the cache."""

    def on_block_restore(self, cache: "CodeCache",
                         block: BasicBlock) -> None:
        """Called for each block adopted from a snapshot, in the
        original discovery order.

        Restores replay this instead of :meth:`on_block_build` —
        restored blocks are not rebuilds (no warm-up cost) but plugins
        tracking what the cache has *seen* (procedure discovery) still
        need the sequence.
        """


class CodeCache(ExecutionHook):
    """Tracks cached blocks and drives plugins; attaches to a CPU as a hook.

    Cache maintenance is *event routed* rather than per-instruction: the
    cache subscribes to ``on_transfer`` (every transfer target is a block
    entry) and anchors a ``before_instruction`` probe at each known block
    start (to catch ejected blocks reached by fall-through) and at each
    conditional branch's fall-through frontier (to catch straight-line
    execution entering undiscovered territory).  Inside a cached block,
    execution proceeds with no cache involvement at all — the
    DynamoRIO-style "executing out of the cache" fast case.

    Statistics:

    - ``builds``: number of block constructions (cache misses), including
      rebuilds after ejection.
    - ``warmup_cost``: accumulated synthetic build cost.
    """

    pc_anchored = True

    def __init__(self, binary: Binary):
        self.block_map = BlockMap(binary)
        self._cached: set[int] = set()
        self.plugins: list[CachePlugin] = []
        self.builds = 0
        self.ejections = 0
        self.warmup_cost = 0
        self.restored_blocks = 0
        self._bus = None
        self._anchored: set[int] = set()

    def add_plugin(self, plugin: CachePlugin) -> None:
        self.plugins.append(plugin)

    # -- bus wiring -------------------------------------------------------

    def bus_attached(self, bus) -> None:
        self._bus = bus
        self._anchored = set()
        self._anchor_all()

    def bus_detached(self, bus) -> None:
        for pc in self._anchored:
            bus.unanchor(self, pc, "before")
        self._anchored = set()
        self._bus = None

    def _anchor_all(self) -> None:
        """(Re-)anchor the entry point and every known block.

        The pc list is memoised on the block map keyed by the (blocks,
        cached) state it was derived from, so restored instances that
        re-attach the same state every launch skip the per-block walk.
        """
        block_map = self.block_map
        template = block_map._anchor_template
        if template is None or template[0] != len(block_map.blocks) or \
                template[1] != self._cached:
            pcs: list[int] = []
            cached = self._cached
            entry_point = block_map.binary.entry_point
            if entry_point not in cached:
                pcs.append(entry_point)
            code_len = len(block_map.binary.code)
            for block in block_map.blocks.values():
                if block.start not in cached:
                    pcs.append(block.start)
                if block.truncated:
                    continue
                if block.terminator.opcode in CONDITIONAL_JUMPS:
                    frontier = block.end
                    if frontier < code_len and \
                            block_map.block_of(frontier) is None:
                        pcs.append(frontier)
            template = (len(block_map.blocks), set(cached),
                        tuple(dict.fromkeys(pcs)))
            block_map._anchor_template = template
        for pc in template[2]:
            self._anchor_pc(pc)

    def _anchor_pc(self, pc: int) -> None:
        if self._bus is not None and pc not in self._anchored:
            self._anchored.add(pc)
            self._bus.anchor(self, pc, "before")

    def _unanchor_pc(self, pc: int) -> None:
        if self._bus is not None and pc in self._anchored:
            self._anchored.discard(pc)
            self._bus.unanchor(self, pc, "before")

    def _anchor_block(self, block: BasicBlock) -> None:
        """Anchor *block*'s start while it needs a probe and, if it can
        fall through into undiscovered code, its fall-through frontier.

        A *live* cached block's head carries no anchor at all — the
        probe would be a no-op by construction, and an unanchored head
        lets the kernel enter the block's superblock run with nothing
        but dict misses on its path.  Ejection re-anchors the head
        (see :meth:`eject`), restoring the rebuild probe.
        """
        if block.start not in self._cached:
            self._anchor_pc(block.start)
        if block.truncated:
            return  # falls through into an existing block
        if block.terminator.opcode in CONDITIONAL_JUMPS:
            frontier = block.end
            if frontier < len(self.block_map.binary.code) and \
                    self.block_map.block_of(frontier) is None:
                self._anchor_pc(frontier)

    # -- cache operations -------------------------------------------------

    def ensure_cached(self, start: int) -> BasicBlock:
        """Return the cached block at *start*, building it if necessary.

        A build is modelled work — it counts in ``builds`` and
        ``warmup_cost`` and runs every plugin — but it costs the kernel
        nothing beyond the anchor changes below: the CPU compiles its
        runs from the immutable image, not from the cache, and the
        anchors alone decide where per-instruction probes must fire.
        """
        block = self.block_map.discover(start)
        if start not in self._cached:
            self._cached.add(start)
            self.builds += 1
            self.warmup_cost += BLOCK_BUILD_COST
            for plugin in self.plugins:
                plugin.on_block_build(self, block)
            # The head needs no probe while the block is live (a
            # frontier anchor from a predecessor may point here too).
            self._unanchor_pc(start)
        self._anchor_block(block)
        return block

    def eject(self, start: int) -> bool:
        """Remove the block starting at *start* from the cache.

        Compiled runs over the block stay valid machine code; the
        re-materialisation obligation rides the head anchor restored
        here, which rebuilds (and re-instruments) the block on next
        entry and keeps every run covering the head from skipping it.
        """
        if start not in self._cached:
            return False
        self._cached.discard(start)
        self.ejections += 1
        # Restore the rebuild probe the live block did not need.
        self._anchor_pc(start)
        block = self.block_map.get(start)
        if block is not None:
            for plugin in self.plugins:
                plugin.on_block_eject(self, block)
        return True

    def eject_containing(self, pc: int) -> bool:
        """Eject whichever cached block contains instruction *pc*."""
        block = self.block_map.block_of(pc)
        if block is None:
            return False
        return self.eject(block.start)

    def is_cached(self, start: int) -> bool:
        return start in self._cached

    @property
    def cached_block_count(self) -> int:
        return len(self._cached)

    # -- warm-up elimination (§4.4.5) ---------------------------------------

    def snapshot(self) -> tuple[BlockMap, frozenset[int]]:
        """Capture the cache state for reuse by a future instance.

        §4.4.5: "It is possible to eliminate the cache warm up time by
        saving the cache state from a previous run, then restoring this
        state upon startup."
        """
        return (self.block_map, frozenset(self._cached))

    def restore(self, snapshot: tuple[BlockMap, frozenset[int]]) -> None:
        """Adopt a previous instance's cache state. Restored blocks do
        not count as builds and incur no warm-up cost; plugins receive
        :meth:`CachePlugin.on_block_restore` for each block in the
        original discovery order, so order-sensitive consumers
        (procedure discovery) end up in the same state a cold sequence
        of builds would have produced."""
        block_map, cached = snapshot
        self.block_map = block_map
        self._cached = set(cached)
        self.restored_blocks = len(cached)
        if self.plugins:
            for block in block_map.blocks.values():
                for plugin in self.plugins:
                    plugin.on_block_restore(self, block)
        if self._bus is not None:
            self._anchor_all()

    # -- hook dispatch ------------------------------------------------------

    def before_instruction(self, cpu: CPU, pc: int,
                           instruction: Instruction) -> int | None:
        """Anchored probe: fires only at block starts and frontiers."""
        if pc in self._cached:
            # Hot case: entering a live cached block; nothing to do.
            return None
        block = self.block_map.block_of(pc)
        if block is None:
            # Control arrived at an address no discovered block covers:
            # it is a new block head.
            self.ensure_cached(pc)
        elif pc == block.start and block.start not in self._cached:
            # Known head whose block was ejected: rebuild (and re-run
            # plugins, so fresh instrumentation/patches take effect).
            self.ensure_cached(pc)
        return None

    def on_transfer(self, cpu: CPU, pc: int, kind: str,
                    target: int) -> None:
        """Every control transfer enters a block; cache it on arrival.

        Guarded by the same validity condition Memory Firewall enforces:
        a target outside the code segment (or misaligned) is about to
        fault, so it must not be decoded into the block map.
        """
        if target in self._cached:
            # Hot case: transfer into a live cached block.
            return
        block = self.block_map.block_of(target)
        if block is None:
            if cpu.memory.in_code(target) and \
                    target % INSTRUCTION_SIZE == 0:
                self.ensure_cached(target)
        elif target == block.start and target not in self._cached:
            self.ensure_cached(target)
