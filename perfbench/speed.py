"""Machine speed, sampled while a run measures, to report times at a
reference speed.

The CPUs of the 2-CPU box this benchmark was built on each switched
between two speeds, about 1.8x apart, every few seconds and
independently of each other, so the same code measured up to 2.5x
apart within a minute.  A short fixed kernel that shares no code with
the program runs right before and after every pass and at the
workload's pause points (never inside a timed interval), at most every
``INTERVAL`` seconds.  Times taken in a set-up or pass are divided by
its mean sample over the reference sample, and rates multiplied; a time
to patch is divided by the samples taken right before and after it.
The mean, not the median: over two speed states the median jumps from
one to the other.

When a server and its members keep both CPUs busy, the hypervisor also
steals CPU time in bursts the kernel samples miss;
:func:`unstolen_share` measures that from ``/proc/stat`` instead.
"""

from __future__ import annotations

import time

#: Kernel seconds on the reference machine; times are reported as if
#: the kernel took exactly this long.
REFERENCE_KERNEL_S = 1.5e-3
#: Least wall time between two samples.
INTERVAL = 0.025


class _Point:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int):
        self.scale = scale
        self.offset = offset

    def apply(self, value: int) -> int:
        return (self.scale * value + self.offset) & 0xFFFFFFFF


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds.

    It mixes what the program spends its time on: dict and list
    traffic, attribute access, calls, sorting and byte packing.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    window: list[int] = []
    point = _Point(3, 7)
    digest = 0
    for index in range(1500):
        key = index & 255
        table[key] = table.get(key, 0) + point.apply(index)
        window.append(key)
        if len(window) > 64:
            window.pop(0)
        digest ^= table[key] >> 3
    values = [(index * 2654435761) % 1000003 for index in range(400)]
    digest ^= sorted(values)[digest % 400]
    packed = bytearray(1600)
    for offset in range(0, len(packed), 4):
        packed[offset:offset + 4] = \
            ((offset * 2654435761) & 0xFFFFFFFF).to_bytes(4, "little")
    if digest < 0 or len(packed) != 1600:  # consume the results
        raise AssertionError("speed kernel miscomputed")
    return time.perf_counter() - started


class Speedometer:
    """Samples the speed of the CPU this process runs on at pause points."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> float:
        """Take a sample if one is due; return the wall time it took."""
        started = time.perf_counter()
        if not force and started - self._last < INTERVAL:
            return 0.0
        self.samples.append(kernel())
        self._last = time.perf_counter()
        return self._last - started

    def factor(self, first: int = 0) -> float:
        """Mean sample since sample *first* over the reference sample
        (above 1 on a slower machine)."""
        samples = self.samples[first:]
        return sum(samples) / len(samples) / REFERENCE_KERNEL_S


def cpu_ticks() -> tuple[int, int]:
    """Clock ticks all CPUs have spent busy and stolen so far.

    Stolen ticks are those the hypervisor gave to other guests while a
    CPU of this one had work to run.
    """
    with open("/proc/stat") as stat:
        fields = [int(field) for field in stat.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def unstolen_share(before: tuple[int, int]) -> float:
    """Share of the CPU time wanted since *before* (from
    :func:`cpu_ticks`) that the hypervisor did not steal."""
    busy, stolen = cpu_ticks()
    busy -= before[0]
    stolen -= before[1]
    return busy / (busy + stolen) if busy + stolen else 1.0


def at_reference_speed(value: float, unit: str, factor: float) -> float:
    """*value* as a machine at the reference speed would measure it."""
    if unit in ("s", "ms"):
        return value / factor
    if unit == "1/s":
        return value * factor
    return value
