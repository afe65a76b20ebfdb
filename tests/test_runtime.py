"""Unit tests for the fault-tolerance runtime (repro.runtime)."""

import io
import json
import time

import pytest

from repro.runtime.checkpoint import (
    CheckpointMismatch,
    CheckpointStore,
    atomic_write_text,
    atomic_writer,
)
from repro.runtime.faults import FaultPlan, FaultSpec, chaos
from repro.runtime.guard import (
    ExperimentOutcome,
    GuardConfig,
    OutcomeStatus,
    TransientError,
    run_guarded,
    skipped_outcome,
)
from repro.runtime.manifest import RunManifest, dataset_digest
from repro.runtime.policies import (
    ErrorBudgetExceeded,
    IngestError,
    IngestFault,
    IngestPolicy,
    IngestStats,
    PolicyMode,
    line_error,
)
from repro.runtime.quarantine import (
    QuarantineSink,
    read_quarantine,
    replay_lines,
)


class TestIngestPolicy:
    def test_strict_raises_immediately(self):
        policy = IngestPolicy.strict()
        error = IngestError(3, "BeaconHit", "missing field", field="asn")
        with pytest.raises(IngestFault) as excinfo:
            policy.reject(error, "raw")
        assert "line 3" in str(excinfo.value)
        assert "asn" in str(excinfo.value)

    def test_skip_records_and_continues(self):
        policy = IngestPolicy.skip()
        policy.accept()
        policy.reject(IngestError(2, "T", "bad"), "raw")
        policy.accept()
        stats = policy.finish()
        assert (stats.total_lines, stats.ok_lines, stats.rejected_lines) == (
            3, 2, 1,
        )
        assert stats.error_rate == pytest.approx(1 / 3)

    def test_quarantine_requires_sink(self):
        with pytest.raises(ValueError):
            IngestPolicy(mode=PolicyMode.QUARANTINE)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            IngestPolicy.skip(error_budget=1.5)

    def test_finish_enforces_budget_on_small_streams(self):
        # Below budget_min_lines the mid-stream check never fires, but
        # end-of-stream still refuses a stream that was 50% garbage.
        policy = IngestPolicy.skip(error_budget=0.01)
        policy.accept()
        policy.reject(IngestError(2, "T", "bad"), "raw")
        with pytest.raises(ErrorBudgetExceeded):
            policy.finish()

    def test_stats_cap_records_but_keeps_counting(self):
        stats = IngestStats(max_recorded=2)
        for line_no in range(5):
            stats.record_error(IngestError(line_no, "T", "bad"))
        assert stats.rejected_lines == 5
        assert len(stats.errors) == 2

    def test_line_error_classifies_json_and_keyerror(self):
        json_exc = None
        try:
            json.loads("{broken")
        except json.JSONDecodeError as exc:
            json_exc = exc
        error = line_error(4, "T", "{broken", json_exc)
        assert "invalid JSON" in error.reason
        error = line_error(5, "T", "{}", KeyError("subnet"))
        assert error.field == "subnet"
        assert error.snippet == "{}"

    def test_snippet_is_trimmed(self):
        error = line_error(1, "T", "x" * 500, ValueError("boom"))
        assert len(error.snippet) <= 80
        assert error.snippet.endswith("...")


class TestQuarantine:
    def test_round_trip_and_replay(self):
        sidecar = io.StringIO()
        sink = QuarantineSink(sidecar)
        sink.write(IngestError(7, "BeaconHit", "bad", field="ip"), "rawline\n")
        sink.write(IngestError(9, "BeaconHit", "worse"), "other")
        assert sink.count == 2
        sidecar.seek(0)
        records = list(read_quarantine(sidecar))
        assert [r.error.line_no for r in records] == [7, 9]
        assert records[0].error.field == "ip"
        sidecar.seek(0)
        assert list(replay_lines(sidecar)) == ["rawline", "other"]

    def test_path_sink_opens_lazily(self, tmp_path):
        path = tmp_path / "sub" / "q.jsonl"
        with QuarantineSink(path) as sink:
            pass
        assert not path.exists()  # clean load leaves no empty sidecar
        with QuarantineSink(path) as sink:
            sink.write(IngestError(1, "T", "bad"), "raw")
        assert path.exists()
        with path.open() as stream:
            assert len(list(read_quarantine(stream))) == 1


class TestGuard:
    def test_ok_outcome_carries_result(self):
        outcome = run_guarded("exp", lambda: 42)
        assert outcome.status is OutcomeStatus.OK
        assert outcome.ok and not outcome.is_failure
        assert outcome.result == 42
        assert outcome.attempts == 1

    def test_failure_is_captured_not_raised(self):
        def boom():
            raise ZeroDivisionError("1/0")

        outcome = run_guarded("exp", boom)
        assert outcome.status is OutcomeStatus.FAILED
        assert outcome.is_failure
        assert "ZeroDivisionError" in outcome.error

    def test_logic_errors_are_not_retried(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("deterministic")

        run_guarded("exp", boom, GuardConfig(retries=3, backoff_s=0.0))
        assert len(calls) == 1

    def test_transient_errors_retry_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientError("blip")
            return "done"

        outcome = run_guarded(
            "exp", flaky, GuardConfig(retries=3, backoff_s=0.0)
        )
        assert outcome.ok and outcome.result == "done"
        assert outcome.attempts == 3

    def test_retries_are_bounded(self):
        def always():
            raise TransientError("blip")

        outcome = run_guarded(
            "exp", always, GuardConfig(retries=2, backoff_s=0.0)
        )
        assert outcome.status is OutcomeStatus.FAILED
        assert outcome.attempts == 3  # 1 initial + 2 retries

    def test_timeout_produces_timed_out(self):
        outcome = run_guarded(
            "exp", lambda: time.sleep(5), GuardConfig(timeout_s=0.05)
        )
        assert outcome.status is OutcomeStatus.TIMED_OUT
        assert outcome.is_failure
        assert "wall-clock" in outcome.error

    def test_skipped_outcome(self):
        outcome = skipped_outcome("exp", "already done")
        assert outcome.status is OutcomeStatus.SKIPPED
        assert not outcome.is_failure and not outcome.ok

    def test_describe_mentions_attempts_and_error(self):
        outcome = ExperimentOutcome(
            "exp", OutcomeStatus.FAILED, error="boom", attempts=2
        )
        text = outcome.describe()
        assert "exp" in text and "2 attempts" in text and "boom" in text

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(timeout_s=0)
        with pytest.raises(ValueError):
            GuardConfig(retries=-1)


class TestAtomicWrites:
    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "nested" / "file.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        atomic_write_text(target, "world")
        assert target.read_text() == "world"

    def test_no_temp_litter_on_success(self, tmp_path):
        target = tmp_path / "file.txt"
        with atomic_writer(target) as stream:
            stream.write("data")
        assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


class TestCheckpointStore:
    def test_mark_and_query(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.completed() == []
        assert not store.is_done("fig1")
        store.mark_done("fig1", duration_s=1.25)
        assert store.is_done("fig1")
        assert store.completed() == ["fig1"]
        record = store.completion_record("fig1")
        assert record["status"] == "ok"
        assert record["duration_s"] == pytest.approx(1.25)
        assert store.completion_record("fig2") is None

    def test_bind_fresh_then_resume(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        manifest = RunManifest.for_run(seed=1, scale=0.01)
        bound = store.bind(manifest)
        assert bound is manifest
        # A second bind with an equivalent manifest resumes the stored
        # one (its accumulated timings survive).
        stored = store.load_manifest()
        stored.record_timing("experiment.fig1", 2.0)
        store.save_manifest(stored)
        resumed = CheckpointStore(tmp_path / "ckpt").bind(
            RunManifest.for_run(seed=1, scale=0.01)
        )
        assert resumed.stage_timings["experiment.fig1"] == pytest.approx(2.0)

    def test_bind_rejects_mismatched_run(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.bind(RunManifest.for_run(seed=1, scale=0.01))
        with pytest.raises(CheckpointMismatch):
            store.bind(RunManifest.for_run(seed=2, scale=0.01))
        with pytest.raises(CheckpointMismatch):
            store.bind(RunManifest.for_run(seed=1, scale=0.02))

    def test_bind_rejects_digest_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.bind(
            RunManifest.for_run(
                seed=1, scale=0.01, dataset_digests={"beacon": "aaa"}
            )
        )
        with pytest.raises(CheckpointMismatch):
            store.bind(
                RunManifest.for_run(
                    seed=1, scale=0.01, dataset_digests={"beacon": "bbb"}
                )
            )

    def test_truncated_manifest_is_a_checkpoint_error(self, tmp_path):
        """Half-written JSON must surface a remedy, not a traceback."""
        store = CheckpointStore(tmp_path / "ckpt")
        store.bind(RunManifest.for_run(seed=1, scale=0.01))
        full = store.manifest_path.read_text()
        store.manifest_path.write_text(full[: len(full) // 2])
        with pytest.raises(CheckpointMismatch, match="truncated"):
            store.load_manifest()
        with pytest.raises(CheckpointMismatch, match="start fresh"):
            CheckpointStore(tmp_path / "ckpt").bind(
                RunManifest.for_run(seed=1, scale=0.01)
            )

    def test_wrong_shape_manifest_is_a_checkpoint_error(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.directory.mkdir(parents=True)
        store.manifest_path.write_text('{"not": "a manifest"}')
        with pytest.raises(CheckpointMismatch, match="malformed"):
            store.load_manifest()


class TestManifest:
    def test_json_round_trip(self):
        manifest = RunManifest.for_run(
            seed=3,
            scale=0.005,
            dataset_digests={"beacon": "abc"},
            stage_timings={"ratios": 0.5},
        )
        clone = RunManifest.from_json(manifest.to_json())
        assert clone.seed == 3
        assert clone.scale == 0.005
        assert clone.dataset_digests == {"beacon": "abc"}
        assert clone.stage_timings == {"ratios": 0.5}
        assert clone.versions["python"]
        assert clone.incompatibility(manifest) is None

    def test_record_timing_accumulates(self):
        manifest = RunManifest.for_run(seed=0, scale=1.0)
        manifest.record_timing("stage", 1.0)
        manifest.record_timing("stage", 0.5)
        assert manifest.stage_timings["stage"] == pytest.approx(1.5)

    def test_dataset_digest_is_stable_and_sensitive(self):
        from repro.datasets.demand_dataset import DemandDataset
        from repro.net.prefix import Prefix

        def build(du):
            return DemandDataset.from_request_totals(
                [(Prefix.parse("10.0.0.0/24"), 1, "US", du)]
            )

        assert dataset_digest(build(5)) == dataset_digest(build(5))
        # Same normalized DU but different window metadata must differ.
        other = DemandDataset.from_request_totals(
            [(Prefix.parse("10.0.0.0/24"), 1, "US", 5)], window_days=14
        )
        assert dataset_digest(build(5)) != dataset_digest(other)


class TestRunAllGuarded:
    """Integration with the experiment registry (shared session lab)."""

    PLAN = FaultPlan(name="t", faults=[
        FaultSpec(name="fail-table1", site="experiment.table1", kind="error"),
    ])

    def test_injected_failure_is_isolated(self, lab):
        from repro.experiments.base import run_all_guarded

        with chaos(self.PLAN):
            outcomes = run_all_guarded(lab)
        assert outcomes["table1"].status is OutcomeStatus.FAILED
        assert "InjectedFault: fail-table1" in outcomes["table1"].error
        others = [o for eid, o in outcomes.items() if eid != "table1"]
        assert others and all(o.ok for o in others)

    def test_checkpoint_marks_and_skips(self, lab, tmp_path):
        from repro.experiments.base import run_all_guarded

        store = CheckpointStore(tmp_path / "ckpt")
        with chaos(self.PLAN):
            first = run_all_guarded(lab, checkpoint=store)
        assert not store.is_done("table1")
        assert store.is_done("table2")

        second = run_all_guarded(lab, checkpoint=store)
        assert second["table1"].ok
        assert second["table2"].status is OutcomeStatus.SKIPPED
        assert sum(1 for o in second.values() if o.status is OutcomeStatus.OK) == 1
        assert len(first) == len(second)
