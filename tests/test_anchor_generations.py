"""Delta anchor generations: per-CPU run and trace verdicts.

A compiled run or trace is a shared shape over the immutable image; each
CPU decides per entry whether its own anchors let it enter (a *verdict*).
Verdicts are derived lazily on first entry and an anchor flip forgets
only the verdicts its pc's span-index entries name.  These tests pin
that delta bookkeeping against the full re-derivation it replaced, and
the kernel's observable behaviour against the per-instruction ``step()``
path where anchors sit inside hot code: a patched deployment, jumps into
the middle of a stretch, and fall-through into an earlier-discovered
block.
"""

from __future__ import annotations

import random

import pytest

from repro.apps import evaluation_pages
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.dynamo.code_cache import CodeCache
from repro.dynamo.patches import Patch, PatchManager
from repro.errors import ExecutionLimitExceeded
from repro.monitors.memory_firewall import MemoryFirewall
from repro.redteam import all_exploits
from repro.vm import CPU, assemble
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import INSTRUCTION_SIZE


class _NoOpBefore(ExecutionHook):
    """Forces the per-instruction step loop without changing behaviour."""

    def before_instruction(self, cpu, pc, instruction):
        return None


class _StoreWatch(ExecutionHook):
    """A store monitor: attaching it flips the barrier-elision premise."""

    def __init__(self):
        self.stores = 0

    def on_store(self, cpu, pc, address, size, value, old_value):
        self.stores += 1


class _Quiet(Patch):
    def execute(self, cpu, instruction):
        return None


def reference_poison(cpu) -> tuple[set, set]:
    """The full re-derivation of every poisoned run entry and trace head
    from the anchor tables and the per-binary span indexes.

    Every anchored pc poisons the runs and traces whose span covers it,
    with one exemption: a before-anchor at a run's own entry, or at a
    trace's head when no later member covers the head again (the outer
    loop dispatches it before entering).  A before-anchor at a later
    trace member's entry poisons the trace.
    """
    binary = cpu.binary
    run_spans = binary._run_spans or {}
    trace_spans = binary._trace_spans or {}
    runs: set[int] = set()
    traces: set[int] = set()
    for table, entry_exempt in ((cpu.bus.before_pc, True),
                                (cpu.bus.after_pc, False)):
        for pc in table:
            for entry in run_spans.get(pc, ()):
                if not entry_exempt or entry != pc:
                    runs.add(entry)
            for head in trace_spans.get(pc, ()):
                if not entry_exempt or head != pc or \
                        _coverage(binary, head, pc) > 1:
                    traces.add(head)
    return runs, traces


def _coverage(binary, head: int, pc: int) -> int:
    """How many member stretches of the trace at *head* cover *pc*."""
    covering = 0
    for entry in binary._trace_paths[head]:
        end = entry + len(binary._stretches[entry]) * INSTRUCTION_SIZE
        covering += entry <= pc < end
    return covering


def compare_verdicts(cpu, tally) -> None:
    """Assert every verdict the CPU holds equals the reference's, after
    applying the anchor flips still pending (as its next dispatch
    would)."""
    if cpu.bus.anchor_version != cpu._synced_anchor_version:
        cpu._sync_anchors()
    runs, traces = reference_poison(cpu)
    for entry, clear in cpu._run_clear.items():
        assert clear == (entry not in runs), hex(entry)
        tally["runs"] += 1
        tally["poisoned"] += not clear
    for head, clear in cpu._trace_clear.items():
        assert clear == (head not in traces), hex(head)
        tally["traces"] += 1
        tally["poisoned"] += not clear


def drive(binary, seed: int, slow: bool, tally=None) -> list[tuple]:
    """Run three evaluation pages in seeded slices, and between slices
    install or remove no-op patches (before and after), eject cache
    blocks, and attach or detach monitors.  Returns each page's
    (output, steps, pc, block builds)."""
    rng = random.Random(seed)
    environment = ManagedEnvironment(binary, EnvironmentConfig.bare())
    if slow:
        environment.extra_hooks.append(_NoOpBefore())
    pages = evaluation_pages()
    outcomes = []
    for index in rng.sample(range(len(pages)), 3):
        cpu = environment.launch(pages[index])
        cache = environment.last_code_cache
        manager = environment.last_patch_manager
        watch = _StoreWatch()
        watching = firewall = False
        installed: list[Patch] = []
        limit = 0
        while not cpu.halted:
            limit += rng.randrange(40, 240)
            try:
                cpu.run(max_steps=limit)
            except ExecutionLimitExceeded:
                pass
            if tally is not None:
                compare_verdicts(cpu, tally)
            known = sorted(cache.block_map._instruction_to_block)
            action = rng.random()
            if action < 0.4:
                patch = _Quiet(pc=rng.choice(known),
                               when=rng.choice(("before", "after")))
                manager.apply(patch)
                installed.append(patch)
            elif action < 0.6 and installed:
                manager.remove(installed.pop(rng.randrange(len(installed))))
            elif action < 0.8:
                cache.eject_containing(rng.choice(known))
            elif not firewall:
                cpu.add_hook(MemoryFirewall())
                firewall = True
            elif watching:
                cpu.remove_hook(watch)
                watching = False
            else:
                cpu.add_hook(watch)
                watching = True
        outcomes.append((list(cpu.output), cpu.steps, cpu.pc,
                         cache.builds))
    return outcomes


class TestVerdictOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delta_verdicts_match_full_rederivation(self, browser, seed):
        """Patch install/remove, ejection and mid-run monitor attach
        between slices: every verdict the CPU holds equals the full
        re-derivation, and the runs match the step path exactly."""
        tally = {"runs": 0, "traces": 0, "poisoned": 0}
        fast = drive(browser.stripped(), seed, slow=False, tally=tally)
        slow = drive(browser.stripped(), seed, slow=True)
        assert fast == slow
        # Non-vacuous: runs and traces were judged, some poisoned.
        assert tally["runs"] > 100 and tally["traces"] > 0
        assert tally["poisoned"] > 0

    def test_verdicts_cover_runs_compiled_by_another_cpu(self, browser):
        """A CPU that judged nothing yet enters runs an earlier CPU
        compiled: its lazily derived verdicts equal the reference."""
        binary = browser.stripped()
        page = evaluation_pages()[0]
        environment = ManagedEnvironment(binary, EnvironmentConfig.full())
        environment.run(page)
        compiled, _ = binary._shared_tables[False]
        assert compiled
        patch = _Quiet(pc=sorted(binary._run_spans)[5], when="after")
        environment.install_patch(patch)
        result = environment.run(page)
        assert result.outcome is Outcome.COMPLETED
        tally = {"runs": 0, "traces": 0, "poisoned": 0}
        compare_verdicts(environment.last_cpu, tally)
        assert tally["runs"] > 0


def _result_fields(result):
    return (result.outcome, result.output, result.steps, result.detail,
            result.interrupted_pc, result.failure_pc, result.monitor,
            result.stats, result.patch_proximity)


class TestPatchedDeployment:
    def test_serve_deployment_matches_step_path(self, expanded_exercise):
        """The serve set-up: every exploit (variant 0) driven to a patch
        through one ClearView over the expanded suite with two stack
        procedures — 12 sessions, 13 patches, anchors inside hot code.
        Every evaluation page and every patched exploit at variants 0-7
        gives the step path's result exactly."""
        clearview = expanded_exercise._clearview()
        patched = []
        for exploit in all_exploits():
            for _ in range(30):
                if clearview.run(exploit.page(0)).outcome is \
                        Outcome.COMPLETED:
                    patched.append(exploit)
                    break
        environment = clearview.environment
        assert len(clearview.sessions) == 12
        assert len(environment.patches) == 13
        pages = evaluation_pages() + [exploit.page(variant)
                                      for exploit in patched
                                      for variant in range(8)]
        slow_hook = _NoOpBefore()
        for page in pages:
            fast = environment.run(page)
            environment.extra_hooks.append(slow_hook)
            try:
                slow = environment.run(page)
            finally:
                environment.extra_hooks.remove(slow_hook)
            assert _result_fields(fast) == _result_fields(slow)


#: A loop whose branch jumps into the middle of the entry stretch, and
#: whose back edge falls through from a block discovered later into the
#: head discovered first (the first block is truncated there).
STRETCH_PROGRAM = """
main:
    mov ecx, 6
    mov eax, 0
    jmp mid
top:
    add eax, 3
    add eax, 4
mid:
    add eax, 1
    out eax
    sub ecx, 1
    cmp ecx, 0
    jne top
    mov ebx, eax
    out ebx
    halt
"""


def _stretch_machine(with_cache: bool, slow: bool, patch_at=None):
    binary = assemble(STRETCH_PROGRAM)
    cpu = CPU(binary)
    cache = CodeCache(binary) if with_cache else None
    if cache is not None:
        cpu.add_hook(cache)
    manager = PatchManager(cache)
    cpu.add_hook(manager)
    if patch_at is not None:
        manager.apply(_Quiet(pc=binary.symbols[patch_at]))
    if slow:
        cpu.add_hook(_NoOpBefore())
    cpu.run()
    return cpu, cache


class TestStretchEdges:
    @pytest.mark.parametrize("with_cache", [True, False])
    @pytest.mark.parametrize("patch_at", [None, "mid", "top"])
    def test_mid_stretch_entry_and_truncated_fallthrough(self, with_cache,
                                                         patch_at):
        """``jmp mid`` enters the ``top`` stretch past its start, and
        ``top`` — discovered after ``mid`` — falls through into it.
        Both stay bit-equal to the step path, with an anchor at either
        head or none, with or without a code cache."""
        fast, fast_cache = _stretch_machine(with_cache, False, patch_at)
        slow, slow_cache = _stretch_machine(with_cache, True, patch_at)
        assert (fast.output, fast.registers, fast.steps, fast.pc) == \
            (slow.output, slow.registers, slow.steps, slow.pc)
        if with_cache:
            assert fast_cache.builds == slow_cache.builds
            assert fast_cache.warmup_cost == slow_cache.warmup_cost
        # The stretch from ``top`` runs through ``mid`` to the branch.
        binary = fast.binary
        top, mid = binary.symbols["top"], binary.symbols["mid"]
        assert fast._compiled[top][1] == \
            fast._compiled[mid][1] + (mid - top) // INSTRUCTION_SIZE
