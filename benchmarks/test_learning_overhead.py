"""§4.4.1: learning overhead.

The paper loads the twelve learning pages in 5.2 s without learning and
1600 s with the Daikon x86 front end attached — a ~300x slowdown, almost
all of it in the front end that records operand values per instruction.
We measure the same workload with and without the trace front end and
report the ratio.  The expected shape: tracing costs at least an order
of magnitude; the absolute ratio depends on the interpreter (our baseline
instruction dispatch is already slow relative to native x86, so the
multiplier is smaller than 300x).
"""

from __future__ import annotations

import time

from conftest import format_table

from repro.apps import learning_pages
from repro.dynamo import EnvironmentConfig, ManagedEnvironment
from repro.learning import learn
from repro.vm import Binary


def load_without_learning(binary) -> None:
    environment = ManagedEnvironment(binary, EnvironmentConfig.full())
    for page in learning_pages():
        assert environment.run(page).succeeded


def load_with_learning(binary) -> None:
    # learn() reuses a model already learned on the same image object, so
    # every load learns on a new image to measure learning from scratch.
    fresh = Binary(code=binary.code, data=binary.data,
                   entry_point=binary.entry_point)
    result = learn(fresh, learning_pages())
    assert result.excluded_runs == 0


def test_load_without_learning(benchmark, browser):
    benchmark.pedantic(load_without_learning,
                       args=(browser.stripped(),),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_load_with_learning(benchmark, browser):
    benchmark.pedantic(load_with_learning, args=(browser.stripped(),),
                       rounds=3, iterations=1)


def test_learning_overhead_ratio(benchmark, browser):
    binary = browser.stripped()

    def median_of(callable_, rounds=3) -> float:
        samples = []
        for _ in range(rounds):
            started = time.perf_counter()
            callable_(binary)
            samples.append(time.perf_counter() - started)
        return sorted(samples)[rounds // 2]

    def measure() -> tuple[float, float]:
        return (median_of(load_without_learning),
                median_of(load_with_learning))

    plain, traced = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = traced / plain

    print("\n" + format_table(
        "Learning overhead (twelve learning pages)",
        ["Mode", "Time (s)", "Ratio", "Paper"],
        [["without learning", f"{plain:.3f}", "1.0", "5.2s / 1.0"],
         ["with learning", f"{traced:.3f}", f"{ratio:.1f}x",
          "1600s / ~300x"]]))

    # Shape: tracing dominates the runtime by a large factor.
    assert ratio > 3, f"expected a large learning slowdown, got {ratio:.1f}"
    benchmark.extra_info["ratio"] = round(ratio, 2)
