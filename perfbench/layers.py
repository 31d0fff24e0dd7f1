"""Where the benchmark traces the program, and the per-layer metrics.

Each boundary is wrapped where its caller looks the name up: methods on
their class, functions in the module that imported them by name (for
example ``candidate_correlated_invariants`` inside
``repro.core.clearview``).  Community members run in their own
processes, so on the community workload the server sees their work as
``community.*`` waits; ``vm.*`` and ``dynamo.*`` there cover only the
server's own runs.

Per-layer metrics are reported per traced operation (a pass on
``redteam`` and ``community``, a request on ``serve``): ``*_ms`` are
self times, counts are per-operation means, ratios and rates are taken
over the whole traced run.  The self times partition the operation:

    vm.run_ms + dynamo.self_ms + learning.self_ms + cfg.dominators_ms
    + analysis.vet_ms + core.self_ms + community.self_ms
    + trace.unattributed_ms == trace.op_ms
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.vetting import Vetter
from repro.cfg import graph
from repro.community import wire
from repro.community.manager import CommunityEnvironment, CommunityManager
from repro.community.remote import ChannelMember, SocketTransport
from repro.core import clearview
from repro.core.clearview import ClearView
from repro.dynamo.execution import ManagedEnvironment, Outcome
from repro.learning.database import InvariantDatabase
from repro.learning.inference import InferenceEngine
from repro.redteam import exercise
from repro.vm.cpu import CPU

from spans import LAYER, LAYERS, NAME, PARENT, ROOT_LAYER, self_times


def _cpu_run(tracer, args, result, token):
    cpu = args[0]
    tracer.count("vm.steps", cpu.steps - token[0])
    tracer.count("vm.trace_retired", cpu.trace_retired - token[1])


def _cpu_before(args):
    return args[0].steps, args[0].trace_retired


def _launch(tracer, args, result, token):
    tracer.count("dynamo.launches")


def _run_result(tracer, args, result, token):
    if result is not None:
        tracer.count("dynamo.block_builds",
                     result.stats.get("block_builds", 0))


def _install(tracer, args, result, token):
    tracer.count("dynamo.patch_installs")


def _remove(tracer, args, result, token):
    tracer.count("dynamo.patch_removes")


def _episode(tracer, result, observations: int) -> None:
    tracer.count("learning.episodes")
    tracer.count("learning.invariants", len(result.database))
    tracer.count("learning.observations", observations)
    tracer.count("cfg.procedures", len(result.procedures.entries()))


def _learned(tracer, args, result, token):
    if result is not None:
        _episode(tracer, result, result.observations)


def _learned_distributed(tracer, args, result, token):
    if result is not None:
        _episode(tracer, result, result.full_observations)
        tracer.count("community.upload_bytes", result.upload_bytes)


def _digested(tracer, args, result, token):
    if result is not None:
        tracer.count("learning.records", sum(result))


def _vetted(tracer, args, result, token):
    tracer.count("analysis.vet_calls")
    if result is not None and not result.accepted:
        tracer.count("analysis.vetoes")


def _events_before(args):
    return len(args[0].events)


def _presented(tracer, args, result, token):
    tracer.count("core.runs")
    if result is not None and result.outcome is Outcome.FAILURE:
        tracer.count("monitors.detections")
    for event in args[0].events[token:]:
        kind = event.split(" ", 1)[0]
        if kind in ("repair-applied", "repair-succeeded", "repair-failed"):
            tracer.count(f"core.{kind}")


def _closed(tracer, args, result, token):
    manager = args[0]
    tracer.count("community.wire_bytes",
                 manager.transport.wire_bytes_total())
    tracer.count("community.dropped_members",
                 len(manager.dropped_members))


def points():
    """``(owner, attr, span name, layer, observe, before)`` per boundary."""
    return [
        (CPU, "run", "vm.run", "vm", _cpu_run, _cpu_before),
        (ManagedEnvironment, "launch", "dynamo.launch", "dynamo",
         _launch, None),
        (ManagedEnvironment, "run", "dynamo.run", "dynamo",
         _run_result, None),
        (ManagedEnvironment, "install_patch", "dynamo.patch", "dynamo",
         _install, None),
        (ManagedEnvironment, "remove_patch", "dynamo.patch", "dynamo",
         _remove, None),
        (exercise, "learn", "learning.learn", "learning", _learned, None),
        (InferenceEngine, "observe_batch", "learning.digest", "learning",
         _digested, None),
        (InferenceEngine, "finalize", "learning.finalize", "learning",
         None, None),
        (graph, "compute_dominators", "cfg.dominators", "cfg", None, None),
        (Vetter, "vet", "analysis.vet", "analysis", _vetted, None),
        (ClearView, "run", "core.run", "core", _presented, _events_before),
        (clearview, "candidate_correlated_invariants", "core.correlate",
         "core", None, None),
        (clearview, "build_check_patches", "core.build_checks", "core",
         None, None),
        (clearview, "generate_candidate_repairs", "core.build_repairs",
         "core", None, None),
        (clearview, "build_repair_patch", "core.build_repairs", "core",
         None, None),
        (SocketTransport, "spawn", "community.spawn", "community",
         None, None),
        (CommunityManager, "learn_distributed", "learning.learn",
         "learning", _learned_distributed, None),
        (CommunityManager, "close", "community.close", "community",
         _closed, None),
        (ChannelMember, "finish_learn_shard", "community.shard_wait",
         "community", None, None),
        (InvariantDatabase, "merge", "community.merge", "community",
         None, None),
        (wire, "encode", "community.encode", "community", None, None),
        (wire, "decode", "community.encode", "community", None, None),
        (CommunityEnvironment, "install_patch", "community.fanout",
         "community", _install, None),
        (CommunityEnvironment, "remove_patch", "community.fanout",
         "community", _remove, None),
        (CommunityEnvironment, "revoke_patch", "community.fanout",
         "community", _remove, None),
        (CommunityEnvironment, "probe_wave", "community.wave",
         "community", None, None),
        (CommunityEnvironment, "run", "community.remote_run", "community",
         _run_result, None),
    ]


#: Per-layer metric names and units, in report order.
METRICS = [
    ("vm.steps", "count"), ("vm.run_ms", "ms"), ("vm.instr_per_s", "1/s"),
    ("vm.trace_coverage", "ratio"),
    ("dynamo.launches", "count"), ("dynamo.launch_ms", "ms"),
    ("dynamo.self_ms", "ms"), ("dynamo.block_builds", "count"),
    ("dynamo.patch_installs", "count"), ("dynamo.patch_removes", "count"),
    ("monitors.detections", "count"), ("monitors.false_positives", "count"),
    ("learning.episodes", "count"), ("learning.learn_ms", "ms"),
    ("learning.observations", "count"), ("learning.records_per_s", "1/s"),
    ("learning.digest_ms", "ms"), ("learning.finalize_ms", "ms"),
    ("learning.invariants", "count"), ("learning.self_ms", "ms"),
    ("cfg.dominators_ms", "ms"), ("cfg.procedures", "count"),
    ("analysis.vet_calls", "count"), ("analysis.vet_ms", "ms"),
    ("analysis.veto_ratio", "ratio"),
    ("core.self_ms", "ms"), ("core.correlate_ms", "ms"),
    ("core.build_checks_ms", "ms"), ("core.build_repairs_ms", "ms"),
    ("core.repair_trials", "count"), ("core.repair_success_ratio", "ratio"),
    ("community.spawn_ms", "ms"), ("community.shard_wait_ms", "ms"),
    ("community.merge_ms", "ms"), ("community.encode_ms", "ms"),
    ("community.fanout_ms", "ms"), ("community.wave_ms", "ms"),
    ("community.remote_run_ms", "ms"), ("community.self_ms", "ms"),
    ("community.wire_bytes", "bytes"), ("community.upload_bytes", "bytes"),
    ("community.dropped_members", "count"),
    ("trace.op_ms", "ms"), ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from a traced run's spans and counts."""
    ops = sum(1 for span in tracer.spans if span[PARENT] is None)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name[span[NAME]] += own
        by_layer[span[LAYER]] += own
    counts = tracer.counts
    per_op = 1.0 / max(ops, 1)
    values = {
        "vm.instr_per_s": _ratio(counts["vm.steps"], by_name["vm.run"]),
        "vm.trace_coverage": _ratio(counts["vm.trace_retired"],
                                    counts["vm.steps"]),
        "learning.records_per_s": _ratio(counts["learning.records"],
                                         by_name["learning.digest"]),
        "analysis.veto_ratio": _ratio(counts["analysis.vetoes"],
                                      counts["analysis.vet_calls"]),
        "core.repair_trials": counts["core.repair-applied"] * per_op,
        "core.repair_success_ratio": _ratio(
            counts["core.repair-succeeded"],
            counts["core.repair-succeeded"] + counts["core.repair-failed"]),
        "trace.unattributed_ms": by_layer[ROOT_LAYER] * per_op * 1e3,
        "trace.op_ms": sum(by_layer.values()) * per_op * 1e3,
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in ("dynamo", "learning", "core", "community"):
        values[f"{layer}.self_ms"] = by_layer[layer] * per_op * 1e3
    for name, unit in METRICS:
        if name in values:
            continue
        if unit == "ms":
            values[name] = by_name[name[:-3]] * per_op * 1e3
        else:
            values[name] = counts[name] * per_op
    return values
