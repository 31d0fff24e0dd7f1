"""Post-deployment patch surveillance: the per-patch health ledger.

ClearView's §2.6 evaluation does not stop when a repair is selected —
the system *continuously observes patched applications* and discards
repairs that later fail or cause new failures.  This module is that
continuation: a :class:`PatchHealthLedger` watches every deployed (and
trialled) repair and attributes terminal events to it by *proximity* —
a crash, detector firing, or instruction-budget expiry counts against a
patch only if the patch's anchor executed within
:data:`~repro.dynamo.patches.PROXIMITY_WINDOW` instructions of the end
of the run (``RunResult.patch_proximity``, computed by
:class:`~repro.dynamo.execution.ManagedEnvironment` from the
:class:`~repro.dynamo.patches.PatchManager`'s anchor-step tracking).

A record that turns *bad* feeds back into
:class:`~repro.core.evaluation.RepairEvaluator` via
:meth:`~repro.core.clearview.ClearView.enforce_guardrails`: the repair
is demoted (its never-failed bonus is gone forever), revoked fleet-wide,
and — after a second revocation — blacklisted for the session so the
community never oscillates between two half-working repairs (flap
damping).  Candidates that kill community members during parallel
evaluation are recorded here as *toxic* and ejected from the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dynamo.execution import Outcome, RunResult
from repro.dynamo.patches import PROXIMITY_WINDOW

#: A deployed patch is revoked on its first attributed crash/expiry, but
#: detector firings are noisier (another session's monitor can fire near
#: a healthy anchor), so a patch must accumulate this many before it is
#: declared bad.
FIRING_THRESHOLD = 2

#: Flap damping: a patch revoked this many times is blacklisted for the
#: session (§2.6 "repair that always works" — two half-working repairs
#: must not oscillate).
REVOCATION_BLACKLIST = 2

#: Toxic containment: a candidate that kills this many *distinct*
#: members during parallel evaluation is ejected from the pool.
TOXIC_KILLS = 2


@dataclass
class PatchHealthRecord:
    """Health history of one candidate repair's deployed patch set."""

    #: Stable identity: the candidate repair's description (unique per
    #: candidate — it encodes invariant, action, and variant).
    key: str
    failure_id: str
    #: The pc of the failure this repair answers; a detector firing *at*
    #: this pc is the repair failing (charged by the core §2.6 path),
    #: while a firing elsewhere near the anchor is a new failure the
    #: patch caused.
    failure_pc: int | None = None
    patch_ids: tuple[int, ...] = ()
    deployed: bool = False
    #: Post-deployment clean completions observed near the anchor.
    successes: int = 0
    #: Attributed terminal events.
    crashes: int = 0
    expiries: int = 0
    #: Foreign firings count once per distinct failure location: a
    #: repeat detection at a pc already charged is not a new failure.
    detector_firings: int = 0
    firing_pcs: tuple[int, ...] = ()
    member_kills: int = 0
    killed_members: tuple[str, ...] = ()
    #: Lifecycle verdicts.
    revocations: int = 0
    blacklisted: bool = False
    toxic: bool = False
    #: Rejected by the static vetter before any member ran it.
    vetoed: bool = False
    #: The vetting rules that rejected it (e.g. ``"progress"``).
    veto_rules: tuple[str, ...] = ()
    #: Set once the record first turns bad, so the ledger reports each
    #: verdict exactly once.
    reported_bad: bool = False

    @property
    def bad(self) -> bool:
        """Should this patch be demoted and revoked?"""
        return (self.crashes >= 1 or self.expiries >= 1
                or self.member_kills >= 1
                or self.detector_firings >= FIRING_THRESHOLD)

    @property
    def status(self) -> str:
        if self.vetoed:
            return "vetoed"
        if self.toxic:
            return "toxic"
        if self.blacklisted:
            return "blacklisted"
        if self.bad:
            return "bad"
        if self.crashes or self.expiries or self.detector_firings \
                or self.member_kills:
            return "suspect"
        return "healthy"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "failure_id": self.failure_id,
            "status": self.status,
            "deployed": self.deployed,
            "successes": self.successes,
            "crashes": self.crashes,
            "expiries": self.expiries,
            "detector_firings": self.detector_firings,
            "member_kills": self.member_kills,
            "killed_members": list(self.killed_members),
            "revocations": self.revocations,
            "blacklisted": self.blacklisted,
            "toxic": self.toxic,
            "vetoed": self.vetoed,
            "veto_rules": list(self.veto_rules),
        }


class PatchHealthLedger:
    """Watches deployed patches and attributes terminal events to them."""

    def __init__(self, window: int = PROXIMITY_WINDOW):
        self.window = window
        self.records: dict[str, PatchHealthRecord] = {}
        #: Records that turned bad since the last :meth:`newly_bad` drain.
        self._pending_bad: list[PatchHealthRecord] = []

    # -- lifecycle ------------------------------------------------------

    def watch(self, key: str, failure_id: str, patches,
              failure_pc: int | None = None) -> PatchHealthRecord:
        """Begin (or resume) surveillance of a deployed patch set.

        Counters survive redeployment: a patch that went bad, was
        revoked, and is later re-promoted carries its history.
        """
        record = self.records.get(key)
        if record is None:
            record = PatchHealthRecord(key=key, failure_id=failure_id,
                                       failure_pc=failure_pc)
            self.records[key] = record
        record.failure_pc = failure_pc
        record.patch_ids = tuple(patch.patch_id for patch in patches)
        record.deployed = True
        return record

    def unwatch(self, key: str) -> None:
        """Stop surveillance (patch withdrawn); history is retained."""
        record = self.records.get(key)
        if record is not None:
            record.deployed = False

    # -- attribution ----------------------------------------------------

    def observe_run(self, result: RunResult) -> list[PatchHealthRecord]:
        """Attribute one run's terminal event to watched patches.

        Returns the records that *newly* turned bad on this run.
        """
        proximity = getattr(result, "patch_proximity", None) or {}
        turned: list[PatchHealthRecord] = []
        for record in self.records.values():
            if not record.deployed or not record.patch_ids:
                continue
            near = any(patch_id in proximity
                       for patch_id in record.patch_ids)
            if not near:
                continue
            if result.outcome is Outcome.COMPLETED:
                record.successes += 1
            elif result.outcome is Outcome.CRASH:
                if "exceeded" in (result.detail or "") and \
                        "steps" in (result.detail or ""):
                    record.expiries += 1
                else:
                    record.crashes += 1
            elif result.outcome is Outcome.FAILURE:
                if result.failure_pc != record.failure_pc and \
                        result.failure_pc not in record.firing_pcs:
                    record.firing_pcs += (result.failure_pc,)
                    record.detector_firings = len(record.firing_pcs)
            if self._mark_if_bad(record):
                turned.append(record)
        return turned

    def record_member_kill(self, key: str, members,
                           failure_id: str = "") -> bool:
        """A deployed/trialled patch crashed or hung community members.

        Creates the record if the candidate was never deployed (a toxic
        candidate can kill members before it ever wins selection).
        Returns True if the record (newly) turned bad.
        """
        record = self.records.get(key)
        if record is None:
            record = PatchHealthRecord(key=key, failure_id=failure_id)
            self.records[key] = record
        fresh = [name for name in members
                 if name not in record.killed_members]
        if fresh:
            record.killed_members += tuple(fresh)
            record.member_kills = len(record.killed_members)
        return self._mark_if_bad(record)

    def record_revocation(self, key: str) -> int:
        """Count a fleet-wide revocation; returns the new total."""
        record = self.records.get(key)
        if record is None:
            return 0
        record.revocations += 1
        record.deployed = False
        if record.revocations >= REVOCATION_BLACKLIST:
            record.blacklisted = True
        return record.revocations

    def record_blacklist(self, key: str) -> None:
        record = self.records.get(key)
        if record is not None:
            record.blacklisted = True

    def record_vetoed(self, key: str, failure_id: str = "",
                      rules: tuple[str, ...] = ()) -> None:
        """The static vetter rejected this candidate pre-deployment.

        Unlike toxicity, a veto costs *zero* member kills: the candidate
        never reaches a member.  It is blacklisted all the same so the
        evaluator never retries it.
        """
        record = self.records.get(key)
        if record is None:
            record = PatchHealthRecord(key=key, failure_id=failure_id)
            self.records[key] = record
        record.vetoed = True
        record.veto_rules = tuple(dict.fromkeys(
            record.veto_rules + tuple(rules)))
        record.blacklisted = True

    def record_toxic(self, key: str, failure_id: str = "") -> None:
        record = self.records.get(key)
        if record is None:
            record = PatchHealthRecord(key=key, failure_id=failure_id)
            self.records[key] = record
        record.toxic = True
        record.blacklisted = True

    def _mark_if_bad(self, record: PatchHealthRecord) -> bool:
        if record.bad and not record.reported_bad:
            record.reported_bad = True
            self._pending_bad.append(record)
            return True
        return False

    def newly_bad(self) -> list[PatchHealthRecord]:
        """Drain records that turned bad since the last drain."""
        pending, self._pending_bad = self._pending_bad, []
        return pending

    # -- reporting ------------------------------------------------------

    def report(self) -> dict:
        """Summary for ``community_status`` and the CLI health report."""
        records = [record.to_dict() for record in self.records.values()]
        return {
            "watched": sum(1 for r in self.records.values() if r.deployed),
            "bad": sum(1 for r in self.records.values() if r.bad),
            "toxic": sum(1 for r in self.records.values() if r.toxic),
            "blacklisted": sum(1 for r in self.records.values()
                               if r.blacklisted),
            "vetoed": sum(1 for r in self.records.values() if r.vetoed),
            "revocations": sum(r.revocations
                               for r in self.records.values()),
            "records": records,
        }
