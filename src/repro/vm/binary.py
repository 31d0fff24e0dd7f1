"""Binary images: the "stripped executable" format of the reproduction.

A :class:`Binary` is what the assembler emits and the loader consumes: a
code image (encoded instructions), a data image (initialised globals), and
an entry point.  A *stripped* binary carries nothing else.  The assembler
also produces a debug symbol table, but it is kept strictly out of band —
ClearView components never receive it (mirroring the paper's "no source
code, no debugging information" constraint); only tests use it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import InvalidInstruction
from repro.vm.isa import INSTRUCTION_SIZE, WORD_SIZE, Instruction


@dataclass
class Binary:
    """A loadable program image."""

    code: bytes
    data: bytes
    entry_point: int = 0
    #: Debug-only symbol table (label -> address). Never consumed by
    #: ClearView components; present for tests and error messages.
    symbols: dict[str, int] = field(default_factory=dict)
    #: Debug-only reverse map from instruction address to source text.
    listing: dict[int, str] = field(default_factory=dict)
    #: Memoised full-image decode (the image is immutable, every CPU
    #: launched on this binary shares one decoded view). Excluded from
    #: comparison/repr: it is derived state, not part of the image.
    _decoded_cache: "dict[int, Instruction] | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for the interpreter's threaded-code view of the
    #: image (populated and read by :mod:`repro.vm.cpu`; kept here so
    #: it is shared across CPUs like the decode cache).
    _threaded_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Straight-line stretches: run entry pc -> the ``(pc, instruction)``
    #: tuple from it through the next block ender (None where no run
    #: starts).  The image defines them, so every CPU shares one memo
    #: (see ``CPU._take_run``).
    _stretches: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for decoded basic blocks, shared by every BlockMap on
    #: this image (populated and validated by
    #: :meth:`repro.dynamo.blocks.BlockMap.discover`).
    _block_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for the shared run/trace tables, keyed by the
    #: barrier-elision premise: {elide: (runs, traces)}.  Compiled
    #: entries are anchor-blind pure shapes over the immutable image;
    #: each CPU derives its own verdict per entry against its anchors
    #: (see ``CPU._run_verdict``), so a freshly launched instance
    #: inherits everything earlier instances compiled.
    _shared_tables: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Span indexes: pc -> set of run entries / trace heads whose
    #: stretch covers that pc.  An anchor flip at a pc forgets exactly
    #: the verdicts these name (see ``CPU._sync_anchors``).
    _run_spans: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    _trace_spans: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Trace-tier profile shared by every CPU on this image: entry pc ->
    #: completed-run count.  Heat survives CPU teardown, so a freshly
    #: launched instance inherits which heads are hot.
    _trace_profile: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Successor histogram per run entry: entry pc -> {next pc: count}.
    #: Drives hottest-successor trace selection and the monomorphic
    #: stability test for chaining across indirect transfers.
    _edge_profile: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Compiled operand extractors, keyed by pc (see
    #: :func:`repro.vm.observe.build_extractor`).  Extractors bind only
    #: instruction constants, so like runs they are compiled once per
    #: image, not once per learning CPU.
    _extractor_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Shared observed (learning-mode) runs, keyed by entry pc (False
    #: where no run starts); segment ops carry the shared extractors.
    #: Observed runs never elide barriers, so one table suffices.
    _obs_run_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Shared observed trace runs keyed by head pc (False for a path
    #: with a member no run starts at).
    _obs_trace_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Filtered instances of shared observed runs/traces, keyed by
    #: ``(id(shared shape), subscriber tuple, filter epoch)`` — the
    #: shape is pinned forever by the caches above, so its id is a
    #: stable key, and the subscriber tuple in the key pins the hooks.
    #: Lets a freshly launched CPU inherit the filtering work (usually
    #: the observe-everything identity) instead of redoing it per run.
    _obs_instance_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Observed-table accounting: {"hits": n, "compiles": n}, read by
    #: the benchmark profiler to report the shared-table hit rate.
    _obs_stats: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Recorded trace paths: head pc -> tuple of member entry pcs (or
    #: False for heads a recording refused), written once per head.
    #: Paths are *observations* of hot control flow, not compiled
    #: code — the stitched traces are shared like runs, and each CPU
    #: judges them against its own anchors (see ``CPU._trace_verdict``).
    _trace_paths: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Live learning sessions, keyed by every parameter that shapes a
    #: learned model (see :func:`repro.learning.harness.learn`).  Scoped
    #: to this object, not to its content: a freshly built image always
    #: learns from scratch.  A session keeps its environment, inference
    #: engine, live procedure database, runs and handed-out results alive
    #: for as long as this image lives.
    _learning: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def instruction_count(self) -> int:
        return len(self.code) // INSTRUCTION_SIZE

    def instruction_addresses(self) -> list[int]:
        """All valid instruction addresses, in order."""
        return list(range(0, len(self.code), INSTRUCTION_SIZE))

    def decode_at(self, address: int) -> Instruction:
        """Decode the instruction at *address* from the raw image."""
        cached = self._decoded_cache
        if cached is not None:
            instruction = cached.get(address)
            if instruction is not None:
                return instruction
        if address % INSTRUCTION_SIZE != 0 or not (
                0 <= address < len(self.code)):
            raise InvalidInstruction(
                f"no instruction at {address:#x}", pc=address)
        words = tuple(
            int.from_bytes(self.code[offset:offset + WORD_SIZE], "little")
            for offset in range(address, address + INSTRUCTION_SIZE,
                                WORD_SIZE))
        return Instruction.decode(words)  # type: ignore[arg-type]

    def decode_all(self) -> dict[int, Instruction]:
        """Decode the full image into an address -> instruction map.

        The map is computed once and shared (instructions are frozen);
        callers must treat it as read-only.
        """
        if self._decoded_cache is None:
            self._decoded_cache = {address: self.decode_at(address)
                                   for address in
                                   self.instruction_addresses()}
        return self._decoded_cache

    def content_digest(self) -> str:
        """SHA-256 over the image content (code, data, entry point).

        The identity persistent cache snapshots are keyed by: two Binary
        objects with equal digests decode to the same instruction stream,
        so a snapshot taken on one is valid for the other.
        """
        digest = hashlib.sha256()
        digest.update(len(self.code).to_bytes(8, "little"))
        digest.update(self.code)
        digest.update(self.data)
        digest.update(self.entry_point.to_bytes(8, "little"))
        return digest.hexdigest()

    def stripped(self) -> "Binary":
        """The image without debug information: the artifact ClearView
        actually operates on.

        An image that carries no symbols and no listing is already
        stripped and is returned itself, so everything memoised on it
        (decode, compiled runs, learning sessions) stays shared.
        """
        if not self.symbols and not self.listing:
            return self
        return Binary(code=self.code, data=self.data,
                      entry_point=self.entry_point)


def encode_instructions(instructions: list[Instruction]) -> bytes:
    """Pack decoded instructions into a code image."""
    out = bytearray()
    for instruction in instructions:
        for word in instruction.encode():
            out += word.to_bytes(WORD_SIZE, "little")
    return bytes(out)
