"""Learning harness: run workloads under tracing and produce a model.

Ties together the managed environment, dynamic procedure discovery, the
trace front end, and the inference engine.  This is the "normal
executions" phase of Figure 1: every run fed through here is presumed
error-free, and runs that do *not* complete normally are excluded from the
model's accounting (§3.1: "it is important to discard any invariants from
executions with errors" — callers supply clean learning inputs, and the
harness reports any run that failed so it can be investigated).

With ``prune=True`` the harness first runs a *scout* pass of the same
workload without tracing (:mod:`repro.analysis.pruning`): the static
analyzer proves operand slots constant over the discovered CFG, those
pcs are removed from the extraction plan at the kernel level, and after
the learning runs the proved statistics are injected back into the
engine before finalize — same database, fewer records.

Learning is a session per image.  The model is built run by run, so a
suite that extends one already learned on the same :class:`Binary`
object only runs its new payloads, and a suite already learned returns
its stored result.  Sessions live in the image's ``_learning`` slot,
keyed by every parameter that shapes the model; a freshly built image
(even one with equal content) always learns from scratch.  Pruned
learning and snapshot-saving configurations bypass the session: the
pruning plan depends on the whole suite, and snapshot saving writes a
file per run.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from repro.cfg.discovery import DiscoveryPlugin, ProcedureDatabase
from repro.dynamo.execution import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.learning.database import InvariantDatabase
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd
from repro.vm.binary import Binary


@dataclass
class LearningResult:
    """Everything the learning phase produces."""

    database: InvariantDatabase
    procedures: ProcedureDatabase
    runs: list[RunResult] = field(default_factory=list)
    excluded_runs: int = 0
    observations: int = 0
    #: Instruction addresses the static pruner removed from the
    #: extraction plan (0 when pruning was off or proved nothing).
    pruned_pcs: int = 0


class _LearningSession:
    """One image's live learning state under one configuration: the
    environment, engine and procedure database, and the payload prefix
    they have consumed."""

    def __init__(self, binary: Binary, config: EnvironmentConfig,
                 pair_scope: str, deduplicate: bool,
                 traced_procedures: frozenset[int] | None, batched: bool,
                 plan=None):
        self.procedures = ProcedureDatabase(binary)
        self.engine = InferenceEngine(self.procedures,
                                      pair_scope=pair_scope,
                                      deduplicate=deduplicate)
        self.environment = ManagedEnvironment(binary, config)
        self.environment.cache_plugins.append(
            DiscoveryPlugin(self.procedures))
        self.environment.extra_hooks.append(TraceFrontEnd(
            self.engine, self.procedures,
            traced_procedures=traced_procedures, batched=batched,
            pruned_pcs=plan.pruned_pcs if plan is not None
            else frozenset()))
        self.plan = plan
        self.consumed: tuple[bytes, ...] = ()
        self.runs: list[RunResult] = []
        self.excluded = 0
        #: Results handed out so far, by the suite that produced them.
        self.results: dict[tuple[bytes, ...], LearningResult] = {}

    def serves(self, suite: tuple[bytes, ...]) -> bool:
        """True if *suite* was learned here or extends what was."""
        return suite in self.results or \
            suite[:len(self.consumed)] == self.consumed

    def learn(self, suite: tuple[bytes, ...]) -> LearningResult:
        result = self.results.get(suite)
        if result is not None:
            return result
        for payload in suite[len(self.consumed):]:
            run = self.environment.run(payload)
            self.runs.append(run)
            if run.outcome is not Outcome.COMPLETED:
                self.excluded += 1
        self.consumed = suite
        plan = self.plan
        if plan is not None:
            plan.establish(self.engine)
        # The live procedure database keeps growing if the session
        # resumes, so every result gets its own copy.
        result = LearningResult(
            database=self.engine.finalize(),
            procedures=self.procedures.snapshot(), runs=list(self.runs),
            excluded_runs=self.excluded,
            observations=self.engine.observations,
            pruned_pcs=len(plan.pruned_pcs) if plan is not None else 0)
        self.results[suite] = result
        return result


def learn(binary: Binary, payloads: list[bytes],
          config: EnvironmentConfig | None = None,
          pair_scope: str = "block",
          deduplicate: bool = True,
          traced_procedures: set[int] | None = None,
          batched: bool = True,
          prune: bool = False) -> LearningResult:
    """Learn a model of *binary*'s normal behaviour from *payloads*.

    Each payload is one "normal execution" (e.g. one web page load).
    Runs that do not complete normally are counted in ``excluded_runs``.
    ``batched`` selects the kernel-level batched observation path (the
    default) or the per-instruction callback path; both produce the same
    database.  ``prune`` enables static observation pruning (full-trace
    batched learning only — the injected pair statistics assume block
    pair scope and a whole-binary trace).

    The result is exactly the one a fresh image would give, but work
    already done on this image under the same parameters is reused (see
    the module doc); callers must treat results as read-only.
    """
    if prune and (pair_scope != "block" or not batched
                  or traced_procedures is not None):
        raise ValueError(
            "prune=True requires pair_scope='block', batched=True and "
            "full tracing (traced_procedures=None)")
    stripped = binary.stripped()
    config = config or EnvironmentConfig.full()
    suite = tuple(payloads)
    traced = frozenset(traced_procedures) \
        if traced_procedures is not None else None

    if prune or config.save_snapshot:
        plan = None
        if prune:
            from repro.analysis.pruning import scout_pruning_plan
            plan = scout_pruning_plan(stripped, payloads, config=config)
        return _LearningSession(stripped, config, pair_scope, deduplicate,
                                traced, batched, plan).learn(suite)

    sessions = stripped._learning
    if sessions is None:
        sessions = stripped._learning = {}
    key = (astuple(config), pair_scope, deduplicate, traced, batched)
    session = sessions.get(key)
    if session is None or not session.serves(suite):
        session = sessions[key] = _LearningSession(
            stripped, config, pair_scope, deduplicate, traced, batched)
    return session.learn(suite)
