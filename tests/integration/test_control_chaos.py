"""The control-plane chaos scenario: the PR's acceptance criteria, pinned.

One run of :func:`run_control_chaos` (module-scoped — the scenario is
deterministic) must demonstrate, all at once: a controller crash in the
middle of an SLA violation, restart from the newest *digest-valid*
checkpoint (the corrupted one skipped), journal replay, epoch fencing of
a stale in-flight action, reconcile repair of state that diverged while
the controller was down, zero duplicate actions, and SLA recovery within
two intervals of the restart close.
"""

import pytest

from repro.experiments.control_chaos import (
    ControlChaosConfig,
    run_control_chaos,
)


@pytest.fixture(scope="module")
def outcome():
    return run_control_chaos(ControlChaosConfig())


class TestCrashMidViolation:
    def test_violation_is_live_when_the_controller_dies(self, outcome):
        before_crash = [
            entry for entry in outcome.series
            if entry["sla_met"] is not None
            and entry["interval"] < outcome.crash_interval
        ]
        assert before_crash[-1]["sla_met"] is False

    def test_quota_was_imposed_before_the_storm(self, outcome):
        assert outcome.quota_interval is not None
        assert outcome.quota_interval < outcome.crash_interval
        assert outcome.quota_pages  # the journal recorded concrete pages

    def test_downtime_produces_a_monitoring_gap(self, outcome):
        down = [e for e in outcome.series if e["sla_met"] is None]
        assert len(down) == outcome.supervisor.missed_intervals == 2
        assert [e["interval"] for e in down] == [
            outcome.crash_interval, outcome.crash_interval + 1,
        ]


class TestRestart:
    def test_watchdog_restarted_the_controller(self, outcome):
        supervisor = outcome.supervisor
        assert supervisor.crashes == 1
        assert supervisor.restarts == 1
        assert not supervisor.down

    def test_restored_from_pre_corruption_checkpoint(self, outcome):
        supervisor = outcome.supervisor
        assert supervisor.checkpoints.corrupt_skipped == 1
        assert supervisor.cold_starts == 0
        # The newest checkpoint (the crash interval's) was the corrupted
        # one; restore fell back to the previous cadence point.
        assert supervisor.restored_interval == outcome.crash_interval - 2

    def test_journal_suffix_was_replayed(self, outcome):
        # The coarse fallback decided after the restored checkpoint exists
        # only in the journal; replay must have rebuilt its grace record.
        assert outcome.supervisor.replayed_records >= 1

    def test_sla_recovers_within_two_intervals_of_restart(self, outcome):
        assert outcome.sla_recovery_intervals_after_restart is not None
        assert outcome.sla_recovery_intervals_after_restart <= 2
        assert outcome.sla_met_at_end


class TestNoDuplicateOrStaleActions:
    def test_zero_duplicate_applied_actions(self, outcome):
        assert outcome.supervisor.journal.duplicate_applied() == []

    def test_no_intent_left_open(self, outcome):
        assert outcome.supervisor.journal.open_intents() == []

    def test_stale_epoch_action_was_fenced(self, outcome):
        assert outcome.stale_attempt_made
        assert outcome.stale_attempt_fenced
        assert not outcome.stale_attempt_applied
        assert outcome.supervisor.fence.rejections == 1
        assert outcome.supervisor.journal.counts().get("fenced") == 1

    def test_fenced_action_left_the_quota_untouched(self, outcome):
        # The stale action carried *halved* pages; the engine still holds
        # the journal-repaired original.
        assert outcome.quota_after_stale_attempt == outcome.quota_pages

    def test_epoch_advanced_exactly_once(self, outcome):
        assert outcome.supervisor.epoch == 2


class TestReconcile:
    def test_hand_cleared_quota_was_repaired(self, outcome):
        assert outcome.cleared_quotas  # the hook really cleared something
        report = outcome.supervisor.last_reconcile
        assert report is not None
        assert any(line.startswith("quota:") for line in report.repaired)

    def test_durable_actions_confirmed_not_reissued(self, outcome):
        report = outcome.supervisor.last_reconcile
        assert report.counts()["abandoned"] == 0


class TestFaultDelivery:
    def test_every_storm_event_landed(self, outcome):
        assert outcome.injector.applied_kinds() == {
            "checkpoint_corruption": 1,
            "controller_crash": 1,
        }
        assert outcome.injector.unmatched == []


class TestConfigValidation:
    def test_misordered_hooks_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            ControlChaosConfig(capture_at=11)

    def test_storm_must_fit_between_clear_and_stale_attempt(self):
        with pytest.raises(ValueError, match="storm"):
            ControlChaosConfig(crash_time=40.0, corruption_time=30.0)


class TestJournalIsARecordStream:
    def test_the_written_journal_renders_its_section(
        self, outcome, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.obs import write_records
        from repro.recovery.journal import journal_records

        journal = outcome.supervisor.journal
        path = write_records(tmp_path / "journal.jsonl", journal_records(journal))
        assert main(["obs", "report", "--input", str(path)]) == 0
        section = capsys.readouterr().out.split(
            "Action journal (the controller's write-ahead log)\n"
        )[1].splitlines()
        assert section[0].split() == ["seq", "entry", "epoch", "interval",
                                      "action", "app", "applied", "note"]
        assert len(section) == 2 + len(journal)
        assert [line.split()[1] for line in section[2:]] == [
            record.kind for record in journal.records
        ]
        assert any(line.split()[1] == "fenced" for line in section[2:])
