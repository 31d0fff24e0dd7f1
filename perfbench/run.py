"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload redteam --seed 1 --seconds 25 \\
        --trace 0

Run from the repository root.  With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric; with
``--trace 1`` passes alternate between untraced and traced, and it
carries every per-layer metric instead, including the tracing overhead.
Every output is checked; the exit code is 1 when any check failed.

Per-run profiles (and, when traced, the spans) are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Set-up runs at least this many times, and until it has taken
#: ``SETUP_SECONDS`` in all; ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
#: A traced run needs an untraced and a traced pass at least.
MIN_PASSES = 2

UNITS = {
    "setup_s": "s", "time_to_patch_p50_ms": "ms",
    "time_to_patch_p90_ms": "ms", "presentations": "count",
    "learn_p50_ms": "ms", "pass_s": "s", "requests_per_s": "1/s",
    "request_p50_ms": "ms", "request_p99_ms": "ms",
    "success_ratio": "ratio",
}


def environment(seed: int) -> dict:
    """The sitting a run was measured in, so drift can be seen."""
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_1m": os.getloadavg()[0],
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for *seconds*, check, and collect metrics."""
    from layers import METRICS, per_layer, points
    from spans import Tracer, check_partition
    from speed import at_reference_speed
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    speed = workload.speed
    scaled: dict[str, list[float]] = {}
    setups: list[float] = []
    spent = 0.0
    while len(setups) < SETUP_REPEATS or spent < SETUP_SECONDS:
        first = len(speed.samples)
        speed.tick(force=True)
        started = workload.timer()
        workload.setup()
        elapsed = workload.since(started)
        speed.tick(force=True)
        factor = speed.factor(first)
        spent += elapsed
        setups.append(elapsed / factor)
        rescale(workload.samples, scaled, factor, workload.BRACKETED)

    tracer = Tracer() if trace else None
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    started = time.perf_counter()
    while (len(pass_times[False]) + len(pass_times[True]) < MIN_PASSES
           or time.perf_counter() - started < seconds):
        traced = tracer is not None and len(pass_times[False]) > \
            len(pass_times[True])
        first = len(speed.samples)
        speed.tick(force=True)
        if traced:
            workload.tracer = tracer
            with tracer.installed(points()):
                workload.run_pass()
            workload.tracer = None
        else:
            workload.run_pass()
        speed.tick(force=True)
        rescale(workload.samples, scaled, speed.factor(first),
                workload.BRACKETED)
        pass_times[traced].append(workload.samples["pass_s"][-1])

    leftover = multiprocessing.active_children()
    workload.check(not leftover, f"processes still running: {leftover}")
    if tracer is None:
        metrics = workload.end_to_end(scaled)
        metrics["setup_s"] = statistics.median(setups)
        metrics["success_ratio"] = \
            (workload.attempted - workload.failed) / workload.attempted
        units = UNITS
    else:
        problems = check_partition(tracer.spans)
        workload.check(not problems, f"partition: {problems[:3]}")
        overhead = (statistics.median(pass_times[True])
                    / statistics.median(pass_times[False]))
        metrics = per_layer(tracer, overhead)
        units = dict(METRICS)
        # Traced passes take no speed samples of their own: scale the
        # per-layer figures by the whole run's speed.
        metrics = {key: at_reference_speed(value, units[key],
                                           speed.factor())
                   for key, value in metrics.items()}
    return {
        "workload": workload, "tracer": tracer, "setups": setups,
        "passes": pass_times, "speed_factor": speed.factor(),
        "raw": workload.end_to_end(workload.samples) if tracer is None
        else {},
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }


def rescale(samples: dict[str, list[float]],
            scaled: dict[str, list[float]], factor: float,
            bracketed: tuple[str, ...]) -> None:
    """Append to *scaled* the samples taken since it was last brought
    level with *samples*, times divided by *factor* unless their list is
    *bracketed* (recorded already scaled)."""
    for key, values in samples.items():
        out = scaled.setdefault(key, [])
        new = values[len(out):]
        if key.endswith(("_ms", "_s")) and key not in bracketed:
            new = [value / factor for value in new]
        out.extend(new)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("redteam", "serve", "community"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    env = environment(args.seed)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    workload, tracer = run["workload"], run["tracer"]
    env["speed_factor"] = run["speed_factor"]
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    profile = {
        "workload": args.workload, "environment": env,
        "seconds": args.seconds, "setup_s": run["setups"],
        "untraced_pass_s": run["passes"][False],
        "traced_pass_s": run["passes"][True],
        "speed_samples": workload.speed.samples,
        "raw": run["raw"],
        "samples": {key: len(values)
                    for key, values in workload.samples.items()},
        "attempted": workload.attempted, "failed": workload.failed,
        "problems": workload.problems, "metrics": run["metrics"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(profile, indent=1,
                                                 sort_keys=True))
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}-spans.jsonl"), {
            "workload": args.workload, "environment": env})

    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, metric in run["metrics"].items():
        print(f"{key:28s} {metric['value']:16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": run["metrics"],
    }, sort_keys=True), flush=True)
    return 0 if workload.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
