"""Span tracing from outside the program.

The benchmark never edits ``src/``: it replaces public functions and
methods of the ``repro`` modules with wrappers that record a span per
call, then restores the originals.  A span is ``[name, layer, start,
end, parent, op]``; ``parent`` is the index of the enclosing span and
``op`` the index of the operation's root span.  Spans stay in memory
and are written out when the run ends.

A span's *self time* is its duration minus the durations of its
children.  That is the time the span's own layer spent, provided the
children nest inside their parent and do not overlap each other;
:func:`check_partition` verifies exactly that, so per-layer self times
plus the unattributed root time add up to each operation's duration.

Wrappers record only in the process and thread that installed them:
community members are forked mid-operation and must not trace into
memory nobody reads.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict

#: Layer of the operation's root span: its self time is the time no
#: wrapped boundary explains.
ROOT_LAYER = "trace"

#: Layers in report order; ``trace`` last.
LAYERS = ("vm", "dynamo", "learning", "cfg", "analysis", "core",
          "community", ROOT_LAYER)

NAME, LAYER, START, END, PARENT, OP = range(6)


class Tracer:
    """Records spans at wrapped boundaries, one operation at a time."""

    def __init__(self):
        self.spans: list[list] = []
        #: Counts observed at the same boundaries (summed over the run).
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, bool, object]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # -- installing wrappers ---------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str,
             observe=None, before=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *owner* is the class or module through which callers look the
        name up.  ``observe(tracer, args, result, token)`` runs after the
        span closes (also when the call raised, with ``result=None``) to
        record counts; ``token`` is what ``before(args)`` returned just
        before the span opened, or None.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        raw = vars(owner)[attr] if own else None
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr}: {type(raw).__name__}")
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer, pid, thread = self, self._pid, self._thread
        getpid, get_ident = os.getpid, threading.get_ident

        @functools.wraps(original)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None or getpid() != pid or get_ident() != thread:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            record = [name, layer, clock(), 0.0, stack[-1], op]
            stack.append(len(spans))
            spans.append(record)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                record[END] = clock()
                stack.pop()
                if observe is not None:
                    observe(tracer, args, result, token)

        self._saved.append((owner, attr, own, raw))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._saved:
            owner, attr, own, raw = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def installed(self, points):
        """Wrap every ``(owner, attr, name, layer, observe, before)``
        point for the duration of the block."""
        try:
            for point in points:
                self.wrap(*point)
            yield self
        finally:
            self.uninstall()

    # -- operations ----------------------------------------------------------

    @contextlib.contextmanager
    def operation(self, name: str):
        """The root span of one operation (a pass, or one request)."""
        if self.op is not None:
            raise RuntimeError("operations do not nest")
        index = len(self.spans)
        record = [name, ROOT_LAYER, time.perf_counter(), 0.0, None, index]
        self.spans.append(record)
        self._stack.append(index)
        self.op = index
        try:
            yield index
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def spans_named(self, name: str) -> int:
        """Spans named *name* in the current operation so far."""
        return sum(1 for span in self.spans[self.op:] if span[NAME] == name)

    # -- output --------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """Write *header* and then one span per line (JSON lines)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": span[NAME], "layer": span[LAYER],
                     "start": span[START], "end": span[END],
                     "parent": span[PARENT], "op": span[OP]}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's durations."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[index]
            for index, span in enumerate(spans)]


def layer_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per operation, the self time of each layer (seconds)."""
    selfs = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        layers = per_op.setdefault(span[OP], dict.fromkeys(LAYERS, 0.0))
        layers[span[LAYER]] += own
    return per_op


def check_partition(spans: list[list], tolerance: float = 1e-9
                    ) -> list[str]:
    """Violations of the rule that self times partition each operation.

    Every non-root span must lie inside its parent and belong to the
    parent's operation, siblings must not overlap, and the layer self
    times of each operation must sum to its root span's duration.
    Returns a list of human-readable violations (empty when it holds).
    """
    problems: list[str] = []
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent is None:
            if span[OP] != index:
                problems.append(f"root span {index} names op {span[OP]}")
            continue
        outer = spans[parent]
        if span[OP] != outer[OP]:
            problems.append(f"span {index} ({span[NAME]}) crosses into "
                            f"op {span[OP]} from op {outer[OP]}")
        if span[START] < outer[START] or span[END] > outer[END]:
            problems.append(f"span {index} ({span[NAME]}) escapes its "
                            f"parent {parent} ({outer[NAME]})")
        children[parent].append(index)
    for parent, kids in children.items():
        kids.sort(key=lambda index: spans[index][START])
        for before, after in zip(kids, kids[1:]):
            if spans[after][START] < spans[before][END]:
                problems.append(f"spans {before} and {after} under "
                                f"{parent} overlap")
    for op, layers in layer_times(spans).items():
        if not 0 <= op < len(spans) or spans[op][PARENT] is not None:
            problems.append(f"op {op} has no root span")
            continue
        root = spans[op]
        duration = root[END] - root[START]
        total = sum(layers.values())
        if abs(total - duration) > tolerance * max(1.0, duration):
            problems.append(f"op {op}: layer self times sum to {total!r} "
                            f"s, root span is {duration!r} s")
    return problems
