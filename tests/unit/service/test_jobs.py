"""Unit tests for the service job queue (scripted runs, no HTTP, no sims).

The queue's contract — deterministic ids, the ``queued → running →
done/failed/cancelled`` life cycle, fingerprint-keyed duplicate
coalescing, per-job manifests, clean shutdown — is pinned here with
injected ``run`` callables, so every race is scripted with events instead
of timing.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.api import ExecutionConfig
from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.service import JobQueue, JobState
from repro.store import RunArtifact

FP_A = "a1" * 32
FP_B = "b2" * 32


def _artifact(spec_id: str = "E1", cache: str = "miss") -> RunArtifact:
    """A stub artifact a scripted run callable can return."""
    report = ExperimentReport(experiment_id=spec_id, title="t", claim="c", rows=[{"x": 1}])
    return RunArtifact(spec_id=spec_id, execution={"cache": cache}, report=report)


def _config(tmp_path) -> ExecutionConfig:
    return ExecutionConfig.for_service(tmp_path / "store", {"trials": 1})


@pytest.fixture
def gate():
    """An event pair: the run callable blocks until the test releases it."""
    started = threading.Event()
    release = threading.Event()

    def run(spec_id, config=None, **overrides):
        started.set()
        assert release.wait(timeout=30), "test forgot to release the gate"
        return _artifact(spec_id)

    run.started = started
    run.release = release
    return run


def _wait_terminal(queue: JobQueue, job_id: str, timeout: float = 10.0) -> str:
    """Spin until a job reaches a terminal state; return that state."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = queue.get(job_id).state
        if state in JobState.TERMINAL:
            return state
        time.sleep(0.005)
    raise AssertionError(f"job {job_id} never finished: {queue.get(job_id).state}")


class TestSubmission:
    def test_job_ids_are_deterministic_sequence_plus_fingerprint(self, tmp_path, gate):
        queue = JobQueue(tmp_path / "store", workers=1, run=gate)
        try:
            job_a, created_a = queue.submit("E1", FP_A, {"n": 1}, config=_config(tmp_path))
            job_b, created_b = queue.submit("E2", FP_B, {"n": 2}, config=_config(tmp_path))
            assert (created_a, created_b) == (True, True)
            assert job_a.job_id == f"000001-{FP_A[:12]}"
            assert job_b.job_id == f"000002-{FP_B[:12]}"
        finally:
            gate.release.set()
            queue.close()

    def test_duplicate_in_flight_submission_joins_the_existing_job(self, tmp_path, gate):
        queue = JobQueue(tmp_path / "store", workers=1, run=gate)
        try:
            first, created = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            assert created
            gate.started.wait(timeout=10)  # first is now *running*
            again, created_again = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            assert not created_again and again.job_id == first.job_id
            gate.release.set()
            assert _wait_terminal(queue, first.job_id) == JobState.DONE
            # Finished jobs release the fingerprint: a new submission is new.
            fresh, created_fresh = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            assert created_fresh and fresh.job_id != first.job_id
        finally:
            gate.release.set()
            queue.close()

    def test_submit_after_close_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "store", workers=1, run=lambda *a, **k: _artifact())
        queue.close()
        queue.close()  # idempotent
        with pytest.raises(ExperimentError, match="shut down"):
            queue.submit("E1", FP_A, {}, config=_config(tmp_path))


class TestLifeCycle:
    def test_done_job_records_artifact_and_cache_outcome(self, tmp_path):
        queue = JobQueue(tmp_path / "store", workers=1, run=lambda s, config=None, **o: _artifact(s, "miss"))
        try:
            job, _ = queue.submit("E8", FP_A, {"n": 3}, config=_config(tmp_path))
            assert _wait_terminal(queue, job.job_id) == JobState.DONE
            manifest = queue.manifest(job.job_id)
            assert manifest["cache"] == "miss"
            assert manifest["fingerprint"] == FP_A
            assert manifest["spec_id"] == "E8"
            assert manifest["parameters"] == {"n": 3}
            assert manifest["error"] is None
            assert manifest["started_at"] >= manifest["submitted_at"]
            assert manifest["finished_at"] >= manifest["started_at"]
            assert queue.get(job.job_id).artifact is not None
        finally:
            queue.close()

    def test_failed_job_records_error_and_releases_fingerprint(self, tmp_path):
        def explode(spec_id, config=None, **overrides):
            raise ExperimentError("boom: bad driver state")

        queue = JobQueue(tmp_path / "store", workers=1, run=explode)
        try:
            job, _ = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            assert _wait_terminal(queue, job.job_id) == JobState.FAILED
            manifest = queue.manifest(job.job_id)
            assert "boom" in manifest["error"] and "ExperimentError" in manifest["error"]
            assert manifest["cache"] is None
            retry, created = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            assert created and retry.job_id != job.job_id
        finally:
            queue.close()

    def test_on_finish_callback_sees_every_terminal_job(self, tmp_path):
        finished = []
        queue = JobQueue(
            tmp_path / "store",
            workers=1,
            run=lambda s, config=None, **o: _artifact(s),
            on_finish=lambda job: finished.append((job.job_id, job.state)),
        )
        try:
            job, _ = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            _wait_terminal(queue, job.job_id)
        finally:
            queue.close()
        assert (job.job_id, JobState.DONE) in finished

    def test_failing_on_finish_callback_is_logged_not_raised(self, tmp_path, caplog):
        def broken_metrics(job):
            raise RuntimeError("metrics exploded")

        queue = JobQueue(
            tmp_path / "store",
            workers=1,
            run=lambda s, config=None, **o: _artifact(s),
            on_finish=broken_metrics,
        )
        with caplog.at_level(logging.ERROR, logger="repro.service.jobs"):
            try:
                first, _ = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
                assert _wait_terminal(queue, first.job_id) == JobState.DONE
                # The worker thread survived the callback and runs the next job.
                second, _ = queue.submit("E2", FP_B, {}, config=_config(tmp_path))
                assert _wait_terminal(queue, second.job_id) == JobState.DONE
            finally:
                queue.close()
        records = [r for r in caplog.records if r.name == "repro.service.jobs"]
        assert [r.getMessage() for r in records] == [
            f"finish callback failed for job {first.job_id}",
            f"finish callback failed for job {second.job_id}",
        ]
        assert all(r.exc_info and r.exc_info[0] is RuntimeError for r in records)


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path, gate):
        queue = JobQueue(tmp_path / "store", workers=1, run=gate)
        try:
            blocker, _ = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            gate.started.wait(timeout=10)
            victim, _ = queue.submit("E2", FP_B, {}, config=_config(tmp_path))
            assert queue.depth() == 1 and queue.running() == 1
            assert queue.cancel(victim.job_id) is True
            assert queue.get(victim.job_id).state == JobState.CANCELLED
            # Cancelled jobs release their fingerprint for resubmission.
            again, created = queue.submit("E2", FP_B, {}, config=_config(tmp_path))
            assert created and again.job_id != victim.job_id
            gate.release.set()
            assert _wait_terminal(queue, blocker.job_id) == JobState.DONE
            assert _wait_terminal(queue, again.job_id) == JobState.DONE
        finally:
            gate.release.set()
            queue.close()

    def test_running_and_terminal_jobs_are_not_cancellable(self, tmp_path, gate):
        queue = JobQueue(tmp_path / "store", workers=1, run=gate)
        try:
            job, _ = queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            gate.started.wait(timeout=10)
            assert queue.cancel(job.job_id) is False  # running
            gate.release.set()
            _wait_terminal(queue, job.job_id)
            assert queue.cancel(job.job_id) is False  # done
        finally:
            gate.release.set()
            queue.close()

    def test_cancel_unknown_job_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "store", workers=1, run=lambda *a, **k: _artifact())
        try:
            with pytest.raises(ExperimentError, match="unknown job id"):
                queue.cancel("nope")
        finally:
            queue.close()

    def test_cancelled_job_is_skipped_by_workers(self, tmp_path, gate):
        ran = []

        def tracking_gate(spec_id, config=None, **overrides):
            ran.append(spec_id)
            return gate(spec_id, config=config, **overrides)

        queue = JobQueue(tmp_path / "store", workers=1, run=tracking_gate)
        try:
            queue.submit("E1", FP_A, {}, config=_config(tmp_path))
            gate.started.wait(timeout=10)
            victim, _ = queue.submit("E2", FP_B, {}, config=_config(tmp_path))
            queue.cancel(victim.job_id)
            gate.release.set()
        finally:
            queue.close()
        assert ran == ["E1"]  # the cancelled E2 never reached the run callable
