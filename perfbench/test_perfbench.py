"""Tests of the benchmark itself: span partition, wrappers, workloads.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from spans import Tracer, check_partition, layer_times  # noqa: E402

#: The layer self times that add up to an operation (see layers.py).
PARTS = ("vm.run_ms", "dynamo.self_ms", "learning.self_ms",
         "cfg.dominators_ms", "analysis.vet_ms", "core.self_ms",
         "community.self_ms", "trace.unattributed_ms")


def span(name, layer, start, end, parent, op):
    return [name, layer, start, end, parent, op]


def test_self_times_partition_each_operation():
    spans = [
        span("pass", "trace", 0.0, 10.0, None, 0),
        span("learn", "learning", 1.0, 4.0, 0, 0),
        span("run", "vm", 2.0, 3.0, 1, 0),
        span("present", "core", 5.0, 9.0, 0, 0),
        span("run", "vm", 6.0, 8.5, 3, 0),
        span("pass", "trace", 20.0, 21.0, None, 5),
    ]
    assert check_partition(spans) == []
    layers = layer_times(spans)
    assert layers[0]["learning"] == pytest.approx(2.0)
    assert layers[0]["vm"] == pytest.approx(3.5)
    assert layers[0]["core"] == pytest.approx(1.5)
    assert layers[0]["trace"] == pytest.approx(3.0)
    assert sum(layers[0].values()) == pytest.approx(10.0)
    assert layers[5]["trace"] == pytest.approx(1.0)


@pytest.mark.parametrize("bad, reason", [
    (span("run", "vm", 3.0, 11.0, 0, 0), "escapes"),
    (span("run", "vm", 1.5, 2.5, 0, 0), "overlap"),
    (span("run", "vm", 1.5, 1.8, 0, 7), "crosses"),
])
def test_partition_violations_are_reported(bad, reason):
    spans = [span("pass", "trace", 0.0, 10.0, None, 0),
             span("learn", "learning", 1.0, 2.0, 0, 0), bad]
    problems = check_partition(spans)
    assert any(reason in problem for problem in problems), problems


class Counter:
    def step(self, amount):
        if amount < 0:
            raise ValueError(amount)
        return amount


def test_wrappers_record_only_inside_operations_and_restore():
    original = Counter.__dict__["step"]
    tracer = Tracer()
    seen = []
    observe = (lambda tracer, args, result, token:
               seen.append((result, token)))
    with tracer.installed([(Counter, "step", "step", "core", observe,
                            lambda args: args[1])]):
        assert Counter().step(1) == 1          # outside an operation
        with tracer.operation("op"):
            assert Counter().step(2) == 2
            with pytest.raises(ValueError):
                Counter().step(-1)
        assert Counter.__dict__["step"] is not original
    assert Counter.__dict__["step"] is original
    assert [record[0] for record in tracer.spans] == ["op", "step", "step"]
    assert seen == [(2, 2), (None, -1)]
    assert check_partition(tracer.spans) == []


@pytest.mark.parametrize("workload", ["redteam", "serve", "community"])
def test_traced_pass_partitions_and_checks(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=True)
    tracer = result["tracer"]
    assert result["workload"].failed == 0, result["workload"].problems
    assert check_partition(tracer.spans) == []
    metrics = {key: metric["value"]
               for key, metric in result["metrics"].items()}
    assert sum(metrics[part] for part in PARTS) == \
        pytest.approx(metrics["trace.op_ms"], rel=1e-9)
    assert metrics["monitors.false_positives"] == 0
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "redteam":
        # Relearning for gif-sign and int-overflow is charged to learning.
        assert metrics["learning.episodes"] == 3
        assert metrics["learning.digest_ms"] > 0
    if workload == "serve":
        assert metrics["learning.episodes"] == 0
        assert metrics["dynamo.patch_installs"] == 0
    if workload == "community":
        # Forked members never record into the server's tracer.
        assert metrics["community.shard_wait_ms"] > 0
        assert metrics["learning.digest_ms"] == 0


@pytest.mark.parametrize("workload", ["redteam", "community"])
def test_presentation_counts_repeat_for_a_seed(workload):
    counts = [run.measure(workload, seed=7, seconds=0, trace=False)
              ["workload"].samples["presentations"] for _ in range(2)]
    assert counts[0] == counts[1]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    for line in completed.stdout.strip().splitlines()[-1:]:
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
