"""The benchmark's workloads: seeded inputs, timed passes, output checks.

Each workload draws every input from ``random.Random(seed)``: exploit
order, exploit variants and page draws.  The program only ever sees
pages.  Inputs are drawn pass by pass in a fixed sequence, so pass *k*
of a seed gets the same inputs however fast the passes run.

- ``redteam``: the Table 1/3 exercise from a clean binary, repeated.
- ``serve``: a patched deployment answering one closed-loop client.
- ``community``: a two-member socket fleet that learns, gets attacked,
  turns immune and answers probe waves.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from collections import defaultdict

from repro.apps.browser import build_browser
from repro.apps.pages import evaluation_pages, learning_pages
from repro.community.manager import CommunityManager
from repro.core.clearview import ClearView, ClearViewConfig
from repro.core.correlation import CorrelationConfig
from repro.dynamo.execution import ManagedEnvironment, Outcome
from repro.redteam.exercise import RedTeamExercise
from repro.redteam.exploits import all_exploits
from repro.redteam.scoring import reference_outputs

from speed import Speedometer, cpu_ticks, unstolen_share

#: Variants every exploit builder accepts (0-7).
VARIANTS = 8
#: Presentations per exploit before the attack is given up (§4.3.1).
BUDGET = 30
#: Requests in one serve pass.
SERVE_PASS_REQUESTS = 100
#: Requests in one serve pass that replay an exploit (5%), at seeded
#: places.  The slowest replays make up just under 1% of requests, so
#: the request p99 sits at their edge: when each request was a replay
#: with probability 5%, its p99 spread 30% of itself over ten seeds.
SERVE_PASS_REPLAYS = 5
#: Closed-loop probe waves at the end of each community pass.  A 35-s
#: run on the reference box made 600-1100 waves in 10-19 passes; twice
#: as many waves per pass left too few passes for steady learning and
#: time-to-patch medians.
COMMUNITY_WAVES = 60
#: Community size; the fleet has as many members as the reference box
#: has cores, so members run in parallel beside the server.
COMMUNITY_MEMBERS = 2

clock = time.perf_counter


def clearview_for(exercise: RedTeamExercise) -> ClearView:
    """A fresh ClearView over *exercise*'s learned model, configured the
    way the Red Team exercise protects its browser."""
    result = exercise.learning_result
    environment = ManagedEnvironment(exercise.binary,
                                     exercise.environment_config)
    config = ClearViewConfig(correlation=CorrelationConfig(
        stack_procedures=exercise.stack_procedures))
    return ClearView(environment, result.database, result.procedures,
                     config)


def exploit_pages(exploits) -> dict[str, list[bytes]]:
    """Every variant's attack page, by defect id."""
    return {exploit.defect_id: [exploit.page(variant)
                                for variant in range(VARIANTS)]
            for exploit in exploits}


def database_digest(database) -> str:
    """A digest of *database* that ignores invariant order."""
    payload = database.to_dict()
    payload["invariants"] = sorted(json.dumps(item, sort_keys=True)
                                   for item in payload["invariants"])
    return hashlib.sha256(json.dumps(payload, sort_keys=True)
                          .encode()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Workload:
    """Shared pass bookkeeping; subclasses define set-up and one pass."""

    name = ""
    #: Sample lists recorded already scaled (see :meth:`bracketed`).
    BRACKETED = ("time_to_patch_ms",)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        self.speed = Speedometer()
        #: Wall time spent sampling the machine's speed since the last
        #: :meth:`timer`.
        self.paused = 0.0

    def bracket(self) -> int:
        """Sample the speed right before a timed interval; pass the
        result to :meth:`bracketed` right after it."""
        if self.tracer is None:
            self.paused += self.speed.tick(force=True)
        return len(self.speed.samples) - 1

    def bracketed(self, key: str, value: float, first: int) -> None:
        """Record time *value* under *key*, scaled by the speed samples
        taken right before and right after it.

        Time to patch is a tail of tens of milliseconds whose slowest
        cases set the p90; the CPU's speed while they ran, not the
        pass's mean speed, decides where they fall.  Traced passes,
        which report no end-to-end metrics, record them as measured.
        """
        if self.tracer is None:
            self.paused += self.speed.tick(force=True)
            value /= self.speed.factor(first)
        self.samples[key].append(value)

    def pause(self) -> None:
        """A point outside every timed interval but the pass, where the
        machine's speed may be sampled (never while tracing, so spans
        stay the program's)."""
        if self.tracer is None:
            self.paused += self.speed.tick()

    def timer(self) -> float:
        """Start timing a set-up or pass that may pause."""
        self.paused = 0.0
        return clock()

    def since(self, started: float) -> float:
        """Seconds since *started*, less the pauses."""
        return clock() - started - self.paused

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    def operation(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.operation(name)

    def false_positive(self) -> None:
        if self.tracer is not None:
            self.tracer.count("monitors.false_positives")

    def charged(self, name: str, expected: int) -> None:
        """Inside a traced operation, check that the trace holds exactly
        *expected* spans named *name* (each presentation or learning
        episode charged once)."""
        if self.tracer is not None:
            seen = self.tracer.spans_named(name)
            self.check(seen == expected,
                       f"trace charged {seen} {name} spans, expected "
                       f"{expected}")

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def end_to_end(self, samples: dict[str, list[float]]
                   ) -> dict[str, float]:
        """Every end-to-end metric but ``setup_s`` from *samples* (this
        run's, as measured or scaled to the reference speed)."""
        return {
            "time_to_patch_p50_ms": quantile(samples["time_to_patch_ms"], .5),
            "time_to_patch_p90_ms": quantile(samples["time_to_patch_ms"], .9),
            "presentations": quantile(samples["presentations"], .5),
            "learn_p50_ms": quantile(samples["learn_ms"], .5),
            "pass_s": quantile(samples["pass_s"], .5),
            "requests_per_s": len(samples["request_ms"]) * 1e3
            / sum(samples["request_ms"]),
            "request_p50_ms": quantile(samples["request_ms"], .5),
            "request_p99_ms": quantile(samples["request_ms"], .99),
        }


class RedTeam(Workload):
    """The Table 1/3 exercise from a freshly built binary, pass by pass.

    A pass learns the default suite, relearns for gif-sign (two stack
    procedures) and int-overflow (expanded suite) when they come up, and
    presents all ten exploits in seeded order, each with one seeded
    variant, to a fresh ClearView until the browser survives.
    """

    name = "redteam"

    def setup(self) -> None:
        self.exploits = all_exploits()
        self.pages = exploit_pages(self.exploits)

    def run_pass(self) -> None:
        order = self.rng.sample(self.exploits, len(self.exploits))
        variants = [self.rng.randrange(VARIANTS) for _ in order]
        with self.operation("pass"):
            started = self.timer()
            base = RedTeamExercise(build_browser())
            exercises = {(False, 1): base}
            self._learn(base)
            presentations = 0
            for exploit, variant in zip(order, variants):
                defect = exploit.defect
                key = (defect.needs_expanded_learning,
                       max(1, defect.needs_stack_procedures))
                exercise = exercises.get(key)
                if exercise is None:
                    exercise = exercises[key] = RedTeamExercise(
                        binary=base.binary,
                        expanded_learning=key[0], stack_procedures=key[1])
                    self._learn(exercise)
                presentations += self._attack(
                    exercise, exploit, self.pages[exploit.defect_id][variant])
            self.charged("learning.learn", len(exercises))
            self.charged("core.run", presentations)
        self.samples["pass_s"].append(self.since(started))
        self.samples["presentations"].append(presentations)

    def _learn(self, exercise: RedTeamExercise) -> None:
        self.pause()
        started = clock()
        exercise.prepare()  # raises when a learning page fails to run
        self.samples["learn_ms"].append((clock() - started) * 1e3)

    def _attack(self, exercise, exploit, page: bytes) -> int:
        clearview = clearview_for(exercise)
        survived = None
        compromised = False
        first = self.bracket()
        started = clock()
        for presentation in range(1, BUDGET + 1):
            before = clock()
            result = clearview.run(page)
            after = clock()
            self.samples["request_ms"].append((after - before) * 1e3)
            if result.outcome is Outcome.COMPROMISED:
                compromised = True
                break
            if result.outcome is Outcome.COMPLETED:
                survived = presentation
                self.bracketed("time_to_patch_ms", (after - started) * 1e3,
                               first)
                break
        expected = exploit.defect.expected_presentations
        self.check(not compromised and survived == expected,
                   f"{exploit.defect_id}: survived at {survived}, expected "
                   f"{expected}, compromised={compromised}")
        return presentation


class Serve(Workload):
    """A deployment with nine defects patched, serving one client.

    Set-up learns the expanded suite with two stack procedures and
    drives every exploit (variant 0, Bugzilla order) through one
    ClearView.  Each request is one ``ClearView.run``: an evaluation
    page drawn with replacement, or (5 in every 100) a replay of a
    patched defect with a seeded variant, every pair once per seeded
    round.  Replays
    are the serve workload's time to patch: a protected deployment
    survives at the first presentation.
    """

    name = "serve"
    #: Set-up's other speed samples are all taken while it patches, so
    #: its learning is scaled by the two right around it.
    BRACKETED = Workload.BRACKETED + ("learn_ms",)

    #: What set-up must leave behind (checked on every set-up).
    SESSIONS, PATCHES = 12, 13

    def setup(self) -> None:
        first = self.bracket()
        started = clock()
        exercise = RedTeamExercise(build_browser(), expanded_learning=True,
                                   stack_procedures=2)
        exercise.prepare()
        self.bracketed("learn_ms", (clock() - started) * 1e3, first)
        clearview = clearview_for(exercise)
        exploits = all_exploits()
        patched = []
        presentations = 0
        for exploit in exploits:
            self.pause()
            page = exploit.page(0)
            for presentation in range(1, BUDGET + 1):
                outcome = clearview.run(page).outcome
                if outcome is Outcome.COMPLETED:
                    patched.append(exploit)
                    break
            presentations += presentation
        self.samples["presentations"].append(presentations)
        self.check(all(exploit.defect.patchable == (exploit in patched)
                       for exploit in exploits)
                   and len(clearview.sessions) == self.SESSIONS
                   and len(clearview.environment.patches) == self.PATCHES,
                   f"set-up patched {len(patched)} defects with "
                   f"{len(clearview.sessions)} sessions and "
                   f"{len(clearview.environment.patches)} patches")
        self.clearview = clearview
        self.pages = evaluation_pages()
        self.reference = reference_outputs(exercise.binary, self.pages)
        self.replays = exploit_pages(patched)
        self.due: list[tuple[str, int]] = []

    def run_pass(self) -> None:
        clearview = self.clearview
        requests = []
        replays = set(self.rng.sample(range(SERVE_PASS_REQUESTS),
                                      SERVE_PASS_REPLAYS))
        for place in range(SERVE_PASS_REQUESTS):
            if place in replays:
                # Replays take every (defect, variant) pair once per
                # seeded round: replay times differ up to 20x between
                # defects and 2x between variants, and equal shares keep
                # the replay percentiles from jumping between them.
                if not self.due:
                    self.due = self.rng.sample(
                        [(defect, variant) for defect in self.replays
                         for variant in range(VARIANTS)],
                        len(self.replays) * VARIANTS)
                defect, variant = self.due.pop()
                requests.append((self.replays[defect][variant], None))
            else:
                index = self.rng.randrange(len(self.pages))
                requests.append((self.pages[index], index))
        sessions = len(clearview.sessions)
        started = self.timer()
        for page, index in requests:
            if index is None:
                first = self.bracket()
            else:
                self.pause()
            with self.operation("request"):
                before = clock()
                result = clearview.run(page)
                elapsed = (clock() - before) * 1e3
                self.charged("core.run", 1)
            self.samples["request_ms"].append(elapsed)
            if index is None:
                self.bracketed("time_to_patch_ms", elapsed, first)
                self.check(result.outcome is Outcome.COMPLETED,
                           f"replay ended {result.outcome.value}")
                continue
            if result.outcome is Outcome.FAILURE:
                self.false_positive()
            self.check(result.outcome is Outcome.COMPLETED
                       and result.output == self.reference[index]
                       and len(clearview.sessions) == sessions,
                       f"evaluation page {index}: {result.outcome.value}, "
                       f"output identical: "
                       f"{result.output == self.reference[index]}, "
                       f"sessions {sessions} -> {len(clearview.sessions)}")
        self.samples["pass_s"].append(self.since(started))


class Community(Workload):
    """A socket fleet from spawn to immunity, then probe waves.

    A pass spawns the members, learns the default suite distributed,
    protects, and presents the eight exploits that need no special
    configuration in seeded order with seeded variants.  After each
    survival an immunity wave must find every live member immune.  The
    pass ends with closed-loop probe waves of seeded evaluation pages.
    """

    name = "community"
    #: Every time a pass measures is scaled by its own interval's share
    #: of CPU time not stolen (see :meth:`bracketed`), none by the
    #: pass's speed samples.  In three sets of ten seeds on the
    #: reference box that spread each metric's median 3-14% of itself;
    #: scaling by the speed samples as well spread them 9-25%.
    BRACKETED = ("time_to_patch_ms", "learn_ms", "request_ms", "pass_s")

    def bracket(self) -> tuple[int, int]:
        return cpu_ticks()

    def bracketed(self, key: str, value: float,
                  first: tuple[int, int]) -> None:
        """Record time *value* under *key*, times the share of the CPU
        time wanted since *first* that was not stolen.

        With a server and two members, both CPUs of the reference box
        are busy at once, and the hypervisor then stole 10-45% of their
        time in bursts of tens of milliseconds, which single-process
        runs never saw.  Speed samples at pause points miss those
        bursts; ``/proc/stat`` counts them.
        """
        if self.tracer is None:
            value *= unstolen_share(first)
        self.samples[key].append(value)

    def setup(self) -> None:
        binary = build_browser()
        self.exploits = [exploit for exploit in all_exploits()
                         if not exploit.defect.needs_expanded_learning
                         and exploit.defect.needs_stack_procedures <= 1]
        self.pages = exploit_pages(self.exploits)
        self.learning = learning_pages()
        self.probes = evaluation_pages()
        self.reference = reference_outputs(binary, self.probes)
        self.digest = None

    def run_pass(self) -> None:
        order = self.rng.sample(self.exploits, len(self.exploits))
        variants = [self.rng.randrange(VARIANTS) for _ in order]
        probes = [self.rng.randrange(len(self.probes))
                  for _ in range(COMMUNITY_WAVES)]
        with self.operation("pass"):
            ticks = self.bracket()
            started = self.timer()
            with CommunityManager(build_browser(),
                                  members=COMMUNITY_MEMBERS,
                                  transport="socket") as manager:
                presentations = self._protect(manager, order, variants)
                for index in probes:
                    first = self.bracket()
                    before = clock()
                    results = manager.environment.probe_wave(
                        self.probes[index])
                    self.bracketed("request_ms", (clock() - before) * 1e3,
                                   first)
                    self.false_positives(results)
                    self.check(len(results) == COMMUNITY_MEMBERS and all(
                        result.outcome is Outcome.COMPLETED
                        and result.output == self.reference[index]
                        for result in results),
                        f"probe wave of page {index}: "
                        f"{[result.outcome.value for result in results]}")
                dropped = [member.name
                           for member in manager.dropped_members]
            self.check(not dropped, f"members dropped: {dropped}")
            self.charged("learning.learn", 1)
            self.charged("core.run", presentations)
        self.bracketed("pass_s", self.since(started), ticks)
        self.samples["presentations"].append(presentations)

    def false_positives(self, results) -> None:
        for result in results:
            if result.outcome is Outcome.FAILURE:
                self.false_positive()

    def _protect(self, manager, order, variants) -> int:
        first = self.bracket()
        started = clock()
        report = manager.learn_distributed(self.learning)
        self.bracketed("learn_ms", (clock() - started) * 1e3, first)
        digest = database_digest(report.database)
        self.digest = self.digest or digest
        self.check(digest == self.digest and not report.dropped_members,
                   f"merged database {digest[:12]} differs from the first "
                   f"pass's {self.digest[:12]} or members dropped: "
                   f"{report.dropped_members}")
        manager.protect()
        presentations = 0
        for exploit, variant in zip(order, variants):
            page = self.pages[exploit.defect_id][variant]
            survived = None
            compromised = False
            first = self.bracket()
            started = clock()
            for presentation in range(1, BUDGET + 1):
                outcome = manager.attack(page).outcome
                presentations += 1
                if outcome is Outcome.COMPROMISED:
                    compromised = True
                    break
                if outcome is Outcome.COMPLETED:
                    survived = presentation
                    break
            if survived is None:
                self.check(not compromised and not exploit.defect.patchable,
                           f"{exploit.defect_id}: never survived, "
                           f"compromised={compromised}")
                continue
            live = len(manager.environment.alive_members())
            immune = manager.immune_members(page)
            self.bracketed("time_to_patch_ms", (clock() - started) * 1e3,
                           first)
            self.check(exploit.defect.patchable and immune == live
                       == COMMUNITY_MEMBERS,
                       f"{exploit.defect_id}: survived at {survived}, "
                       f"{immune}/{live} members immune")
        return presentations


WORKLOADS = {workload.name: workload
             for workload in (RedTeam, Serve, Community)}
