"""Post-deployment surveillance: the patch-health ledger (§2.6 cont'd).

Unit coverage for :mod:`repro.dynamo.guardrails` — proximity
attribution, verdict thresholds, flap damping — plus the end-to-end
path: anchor-step tracking in the patch manager, ``patch_proximity`` on
run results, and :meth:`ClearView.enforce_guardrails` demoting a
deployed repair whose record turned bad.
"""

from __future__ import annotations

import pytest

from repro.dynamo.execution import Outcome, RunResult
from repro.dynamo.guardrails import (
    FIRING_THRESHOLD,
    PatchHealthLedger,
    REVOCATION_BLACKLIST,
    TOXIC_KILLS,
)
from repro.dynamo.patches import (
    JumpPatch,
    Patch,
    PatchManager,
    PROXIMITY_WINDOW,
)


class _FakePatch(Patch):
    def execute(self, cpu, instruction):
        return None


def result(outcome, proximity=None, detail="", failure_pc=None):
    return RunResult(outcome=outcome, output=[], steps=100, detail=detail,
                     failure_pc=failure_pc,
                     patch_proximity=proximity or {})


def watched_ledger(patch_ids=(7,), failure_pc=0x40):
    ledger = PatchHealthLedger()
    patches = [_FakePatch(pc=0x10, patch_id=patch_id)
               for patch_id in patch_ids]
    ledger.watch("repair-A", "fault@0x40", patches, failure_pc=failure_pc)
    return ledger


class TestProximityTracking:
    def test_executed_near_window(self):
        manager = PatchManager()
        manager.last_executed_step = {1: 10, 2: 80, 3: 200}
        near = manager.executed_near(100, window=PROXIMITY_WINDOW)
        assert near == {2: 20}  # 1 is 90 steps away, 3 is in the future

    def test_proximity_flows_into_run_result(self, browser):
        """A patch that executes near the end of a run is attributed in
        ``RunResult.patch_proximity``; distant patches are not."""
        from repro.dynamo.execution import ManagedEnvironment
        from repro.apps import learning_pages

        environment = ManagedEnvironment(browser.stripped())
        page = learning_pages()[0]
        baseline = environment.run(page)
        # Anchor a no-op patch at the entry point: it executes at step
        # ~0, thousands of steps before the run ends.
        patch = _FakePatch(pc=0x0, description="entry no-op")
        environment.install_patch(patch)
        run = environment.run(page)
        assert run.outcome is baseline.outcome
        assert patch.patch_id not in run.patch_proximity


class TestAttribution:
    def test_crash_near_anchor_turns_bad(self):
        ledger = watched_ledger()
        turned = ledger.observe_run(result(Outcome.CRASH,
                                           proximity={7: 3},
                                           detail="write fault"))
        assert [record.key for record in turned] == ["repair-A"]
        record = ledger.records["repair-A"]
        assert record.crashes == 1 and record.bad
        assert record.status == "bad"

    def test_step_budget_expiry_classified_separately(self):
        ledger = watched_ledger()
        ledger.observe_run(result(
            Outcome.CRASH, proximity={7: 0},
            detail="[pc=0x10] exceeded 200000 steps"))
        record = ledger.records["repair-A"]
        assert record.expiries == 1 and record.crashes == 0
        assert record.bad

    def test_distant_crash_not_attributed(self):
        ledger = watched_ledger()
        turned = ledger.observe_run(result(Outcome.CRASH, proximity={}))
        assert turned == []
        assert ledger.records["repair-A"].crashes == 0

    def test_firing_at_own_pc_not_charged(self):
        """A detector firing at the repair's own failure pc is the §2.6
        causal path's business (repair failed), not a *new* failure."""
        ledger = watched_ledger(failure_pc=0x40)
        ledger.observe_run(result(Outcome.FAILURE, proximity={7: 1},
                                  failure_pc=0x40))
        assert ledger.records["repair-A"].detector_firings == 0

    def test_foreign_firings_need_threshold(self):
        ledger = watched_ledger(failure_pc=0x40)
        for index in range(FIRING_THRESHOLD - 1):
            turned = ledger.observe_run(result(
                Outcome.FAILURE, proximity={7: 1},
                failure_pc=0x100 + 0x10 * index))
            assert turned == []
        turned = ledger.observe_run(result(
            Outcome.FAILURE, proximity={7: 1}, failure_pc=0x99))
        assert [record.key for record in turned] == ["repair-A"]

    def test_repeat_firings_at_one_pc_count_once(self):
        """A second detection at a location already charged is not a
        *new* failure: the next defect failing twice near a working
        repair must not revoke it."""
        ledger = watched_ledger(failure_pc=0x40)
        for _ in range(FIRING_THRESHOLD + 2):
            turned = ledger.observe_run(result(
                Outcome.FAILURE, proximity={7: 1}, failure_pc=0x99))
            assert turned == []
        record = ledger.records["repair-A"]
        assert record.detector_firings == 1 and not record.bad

    def test_successes_counted_not_bad(self):
        ledger = watched_ledger()
        for _ in range(5):
            ledger.observe_run(result(Outcome.COMPLETED,
                                      proximity={7: 10}))
        record = ledger.records["repair-A"]
        assert record.successes == 5 and not record.bad
        assert record.status == "healthy"

    def test_unwatched_record_not_charged(self):
        ledger = watched_ledger()
        ledger.unwatch("repair-A")
        ledger.observe_run(result(Outcome.CRASH, proximity={7: 1}))
        assert ledger.records["repair-A"].crashes == 0

    def test_newly_bad_reported_once(self):
        ledger = watched_ledger()
        ledger.observe_run(result(Outcome.CRASH, proximity={7: 1}))
        assert [r.key for r in ledger.newly_bad()] == ["repair-A"]
        ledger.observe_run(result(Outcome.CRASH, proximity={7: 1}))
        assert ledger.newly_bad() == []


class TestLifecycleVerdicts:
    def test_member_kill_creates_record(self):
        ledger = PatchHealthLedger()
        turned = ledger.record_member_kill("cand-X", ["node-1"],
                                           failure_id="fault@0x40")
        assert turned  # one kill already makes the record bad
        record = ledger.records["cand-X"]
        assert record.member_kills == 1
        assert record.killed_members == ("node-1",)

    def test_kills_count_distinct_members(self):
        ledger = PatchHealthLedger()
        ledger.record_member_kill("cand-X", ["node-1"])
        ledger.record_member_kill("cand-X", ["node-1", "node-2"])
        assert ledger.records["cand-X"].member_kills == 2
        assert ledger.records["cand-X"].member_kills >= TOXIC_KILLS

    def test_revocations_blacklist_at_threshold(self):
        ledger = watched_ledger()
        for count in range(1, REVOCATION_BLACKLIST + 1):
            assert ledger.record_revocation("repair-A") == count
        record = ledger.records["repair-A"]
        assert record.blacklisted
        assert not record.deployed
        assert record.status == "blacklisted"

    def test_toxic_record_created_on_demand(self):
        ledger = PatchHealthLedger()
        ledger.record_toxic("cand-Y", failure_id="fault@0x40")
        record = ledger.records["cand-Y"]
        assert record.toxic and record.blacklisted
        assert record.status == "toxic"

    def test_report_summarizes(self):
        ledger = watched_ledger()
        ledger.observe_run(result(Outcome.CRASH, proximity={7: 1}))
        ledger.record_revocation("repair-A")
        ledger.record_toxic("cand-Y")
        report = ledger.report()
        assert report["watched"] == 0  # revocation undeployed repair-A
        assert report["bad"] == 1
        assert report["toxic"] == 1
        assert report["blacklisted"] == 1
        assert report["revocations"] == 1
        assert {record["key"] for record in report["records"]} == \
            {"repair-A", "cand-Y"}


class TestEnforcement:
    """ClearView-level: a deployed repair's record turning bad demotes
    it through the ordinary §2.6 rotation."""

    def _protected(self, prepared_exercise):
        from repro.redteam import exploit
        clearview = prepared_exercise._clearview()
        attack = exploit("gc-collect")
        for _ in range(6):
            run = clearview.run(attack.page())
            session = next(iter(clearview.sessions.values()), None)
            if session is not None and session.state.value == "patched":
                return clearview, session, attack
        raise AssertionError("exploit never got patched")

    def test_bad_record_demotes_deployed_repair(self, prepared_exercise):
        clearview, session, attack = self._protected(prepared_exercise)
        deployed = session.current_repair
        key = deployed.candidate.description
        record = clearview.guardrails.records[key]
        assert record.deployed
        record.crashes += 1
        clearview.guardrails._mark_if_bad(record)
        assert clearview.enforce_guardrails() == [key]
        assert deployed.failures >= 1
        assert session.current_repair is not deployed
        assert not record.deployed
        # Rotation re-triggered selection: the successor has never
        # failed and is installed in the environment.
        assert session.current_repair.never_failed
        installed = {patch.description
                     for patch in clearview.environment.patches}
        assert key not in installed

    def test_stale_record_is_ignored(self, prepared_exercise):
        """A record whose repair was already rotated away must not
        demote the (innocent) successor."""
        clearview, session, attack = self._protected(prepared_exercise)
        deployed = session.current_repair
        key = deployed.candidate.description
        record = clearview.guardrails.records[key]
        record.crashes += 1
        clearview.guardrails._mark_if_bad(record)
        # The causal path rotates first (same terminal event).
        clearview._repair_failed(session)
        successor = session.current_repair
        clearview._demoted_this_run.clear()
        assert clearview.enforce_guardrails() == []
        assert session.current_repair is successor
        assert successor.never_failed

    def test_guardrail_demotion_survives_reprotection(self,
                                                     prepared_exercise):
        """After demotion the community still converges: subsequent
        attacks are blocked and a healthy repair ends up deployed."""
        from repro.dynamo import Outcome

        clearview, session, attack = self._protected(prepared_exercise)
        deployed = session.current_repair
        record = clearview.guardrails.records[
            deployed.candidate.description]
        record.crashes += 1
        clearview.guardrails._mark_if_bad(record)
        clearview.enforce_guardrails()
        outcomes = []
        for _ in range(6):
            outcomes.append(clearview.run(attack.page()).outcome)
            if outcomes[-1] is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert session.current_repair is not deployed

    def test_sequential_defects_keep_working_repairs(self,
                                                     prepared_exercise):
        """311710: each defect's repair succeeds at its own site while
        the next defect fails twice nearby.  Those repeat detections of
        one location are not new failures, so no working repair is
        revoked and every session patches on its first repair."""
        from repro.redteam import exploit

        result = prepared_exercise.attack(exploit("neg-index"),
                                          max_presentations=16)
        assert result.survived_at == 12
        assert len(result.sessions) == 3
        assert [session.unsuccessful_runs
                for session in result.sessions] == [0, 0, 0]
        report = result.patch_health
        assert report["revocations"] == 0 and report["bad"] == 0
        assert not any(event.startswith("repair-revoked")
                       for event in result.clearview.events)
