"""Crash-safety tests: journal replay, backpressure, degraded mode, retries.

The chaos harness (:mod:`repro.testing.chaos`) drives the failure
scenarios the serving stack must survive: a worker thread dying with a job
mid-flight, a store that stops accepting writes, a journal that cannot
append, a queue shedding load at its bound — plus the systems-level
``kill -9`` test that murders a real ``repro-flip serve`` subprocess
mid-job and asserts a restart against the same store replays the journal
to the *identical* artifact under the original job id.  The in-process
tests cover the same recovery machinery deterministically (no subprocess,
no signals) so failures localise.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import ExecutionConfig, resolve_run_inputs, run_experiment
from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.service import (
    ExperimentService,
    JobJournal,
    JobQueue,
    JobState,
    QueueSaturated,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    create_server,
)
from repro.store import RunArtifact
from repro.testing import chaos

E1_TOY = {"sizes": [60, 90], "epsilon": 0.3, "trials": 1}


@pytest.fixture(autouse=True)
def _clean_chaos():
    """No fault leaks between tests: the registry is process-global."""
    chaos.reset()
    yield
    chaos.reset()


@pytest.fixture
def server_factory(tmp_path):
    """Build ephemeral-port servers over one shared store directory."""
    servers = []

    def build(run=None, workers=2, max_queued=None, retry=None):
        server = create_server(
            tmp_path / "store", port=0, workers=workers, run=run, max_queued=max_queued
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, ServiceClient(port=server.server_address[1], retry=retry)

    yield build
    for server in servers:
        server.shutdown()
        server.server_close()
        server.service.close()


def _stub_artifact(spec_id: str = "E1", cache: str = "miss") -> RunArtifact:
    """A scripted run's return value (valid report, no simulation)."""
    report = ExperimentReport(experiment_id=spec_id, title="t", claim="c", rows=[{"x": 1}])
    return RunArtifact(spec_id=spec_id, execution={"cache": cache}, report=report)


class TestChaosRegistry:
    def test_unknown_point_or_action_is_rejected(self):
        with pytest.raises(ExperimentError, match="unknown chaos fault point"):
            chaos.ChaosFault("store.frobnicate", "raise", exception=OSError())
        with pytest.raises(ExperimentError, match="unknown chaos action"):
            chaos.ChaosFault("store.put", "explode")

    def test_inject_fires_boundedly_and_disarms_on_exit(self):
        with chaos.inject("store.put", raises=OSError("disk full"), times=2):
            for _ in range(2):
                with pytest.raises(OSError, match="disk full"):
                    chaos.fire("store.put", fingerprint="abc")
            assert chaos.fire("store.put") is None  # exhausted after 2
        assert chaos.active_faults() == []
        assert chaos.fire("store.put") is None  # disarmed outside the block

    def test_raised_faults_carry_their_call_site_context(self):
        with chaos.inject("journal.append", raises=OSError("no space")):
            with pytest.raises(OSError) as excinfo:
                chaos.fire("journal.append", event="submit", job_id="j1")
        assert excinfo.value.chaos_context == {"event": "submit", "job_id": "j1"}

    def test_install_from_env_parses_every_clause_shape(self):
        installed = chaos.install_from_env(
            {"REPRO_CHAOS": "store.put:raise:oserror:1, queue.worker:sleep:0.01, journal.append:die:2"}
        )
        by_point = {fault.point: fault for fault in installed}
        assert isinstance(by_point["store.put"].exception, OSError)
        assert by_point["store.put"].times == 1
        assert by_point["queue.worker"].seconds == 0.01
        assert by_point["journal.append"].action == "die"
        assert by_point["journal.append"].times == 2

    def test_install_from_env_rejects_malformed_clauses(self):
        with pytest.raises(ExperimentError, match="malformed REPRO_CHAOS"):
            chaos.install_from_env({"REPRO_CHAOS": "just-a-word"})
        with pytest.raises(ExperimentError, match="sleep action needs seconds"):
            chaos.install_from_env({"REPRO_CHAOS": "queue.worker:sleep"})
        assert chaos.install_from_env({"REPRO_CHAOS": ""}) == []


class TestJournal:
    def test_replay_folds_last_event_wins_and_orders_pending(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("submit", "000002-bbbb", spec_id="E2", fingerprint="b" * 64,
                       params={"n": 80}, execution={})
        journal.record("submit", "000001-aaaa", spec_id="E1", fingerprint="a" * 64,
                       params={}, execution={})
        journal.record("start", "000001-aaaa")
        journal.record("submit", "000003-cccc", spec_id="E3", fingerprint="c" * 64,
                       params={}, execution={})
        journal.record("start", "000003-cccc")
        journal.record("finish", "000003-cccc", cache="miss")
        replay = journal.replay()
        assert [record.job_id for record in replay.pending] == ["000001-aaaa", "000002-bbbb"]
        assert replay.pending[1].params == {"n": 80}
        assert replay.terminal == 1
        assert replay.max_sequence == 3

    def test_torn_tail_from_a_crashed_writer_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("submit", "000001-aaaa", spec_id="E1", fingerprint="a" * 64,
                       params={}, execution={})
        with open(journal.path, "a", encoding="utf-8") as stream:
            stream.write('{"event": "finish", "job_id": "000001-aa')  # crash mid-write
        replay = journal.replay()
        assert [record.job_id for record in replay.pending] == ["000001-aaaa"]

    def test_checkpoint_compacts_to_pending_submissions_only(self, tmp_path):
        journal = JobJournal(tmp_path)
        for sequence, outcome in enumerate(("finish", "fail", None), start=1):
            job_id = f"{sequence:06d}-{'ab' * 6}"
            journal.record("submit", job_id, spec_id="E1", fingerprint="ab" * 32,
                           params={"trials": sequence}, execution={})
            journal.record("start", job_id)
            if outcome:
                journal.record(outcome, job_id)
        assert journal.checkpoint() == 1
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 and '"event":"submit"' in lines[0].replace(" ", "")
        replay = journal.replay()
        assert [record.job_id for record in replay.pending] == ["000003-abababababab"]
        assert replay.pending[0].params == {"trials": 3}
        assert replay.max_sequence == 3  # sequence survives compaction

    def test_append_failure_disarms_journal_and_reports_once(self, tmp_path):
        reasons = []
        journal = JobJournal(tmp_path, on_error=reasons.append)
        with chaos.inject("journal.append", raises=OSError("read-only filesystem")):
            assert journal.record("submit", "000001-aaaa") is False
            assert journal.record("submit", "000002-bbbb") is False  # already disarmed
        assert journal.disabled_reason is not None
        assert "read-only filesystem" in journal.disabled_reason
        assert len(reasons) == 1  # reported exactly once, then silent


class TestRecovery:
    def test_worker_death_mid_job_is_replayed_by_the_next_service(self, server_factory, tmp_path):
        chaos.install(chaos.ChaosFault("queue.worker", "die", times=1))
        server1, client1 = server_factory(workers=1)
        submission = client1.submit("E1", params=E1_TOY)
        job_id = submission["job_id"]

        deadline = time.monotonic() + 10
        while chaos.active_faults() and time.monotonic() < deadline:
            time.sleep(0.01)  # fault consumed == worker thread is dead
        assert chaos.active_faults() == []
        assert client1.status(job_id)["status"] == JobState.RUNNING  # stuck forever

        # "Restart": a second service over the same store replays the journal.
        server2, client2 = server_factory(workers=1)
        final = client2.wait(job_id, timeout=120)
        assert final["status"] == JobState.DONE
        assert final["recovered"] is True
        assert final["fingerprint"] == submission["fingerprint"]
        assert final["result"]["rendered"]

        health = client2.health()
        assert health["status"] == "ok"
        assert health["recovery"] == {"replayed": 1, "already_stored": 0, "failed": 0}
        # The artifact is durable and byte-identical through the store resource.
        stored = client2.store(submission["fingerprint"][:12])
        assert stored["result"]["rendered"] == final["result"]["rendered"]

    def test_crash_after_persist_recovers_as_store_hit(self, tmp_path):
        root = tmp_path / "store"
        config = ExecutionConfig.for_service(root, {})
        overrides = {"sizes": (60, 90), "epsilon": 0.3, "trials": 1}
        resolved = resolve_run_inputs("E1", config=config, **overrides)
        artifact = run_experiment("E1", config=config, **overrides)  # persists

        # The predecessor journaled submit+start but died before `finish`.
        journal = JobJournal(root)
        job_id = f"000005-{resolved.fingerprint[:12]}"
        journal.record("submit", job_id, spec_id="E1", fingerprint=resolved.fingerprint,
                       params=dict(E1_TOY), execution={})
        journal.record("start", job_id)

        service = ExperimentService(root)
        try:
            assert service.recovery.already_stored == [job_id]
            assert service.recovery.replayed == []
            status, body = service.job_status(job_id)
            assert status == 200
            assert body["status"] == JobState.DONE
            assert body["cache"] == "hit"
            assert body["recovered"] is True
            assert body["result"]["rendered"] == artifact.report.render()
            # No duplicate compute: the hit is the only cache event.
            assert service.metrics.snapshot(0, 0)["cache"]["miss"] == 0
            # The id sequence continues past the journaled job.
            status, body = service.submit_run(
                {"experiment": "E2", "params": {"n": 80, "trials": 1}}
            )
            assert status == 202
            assert body["job_id"].startswith("000006-")
        finally:
            service.close()

    def test_unresolvable_journal_entry_fails_without_crashing_startup(self, tmp_path):
        root = tmp_path / "store"
        journal = JobJournal(root)
        journal.record("submit", "000001-deadbeefdead", spec_id="E1",
                       fingerprint="de" * 32, params={"not_a_param": 1}, execution={})
        service = ExperimentService(root)
        try:
            assert service.recovery.failed == ["000001-deadbeefdead"]
            status, body = service.job_status("000001-deadbeefdead")
            assert status == 200
            assert body["status"] == JobState.FAILED
            assert "not_a_param" in body["error"]
        finally:
            service.close()

    def test_sigterm_drain_leaves_queued_jobs_journaled_for_successor(self, tmp_path):
        root = tmp_path / "store"
        release = threading.Event()
        started = threading.Event()
        ran = []

        def gated_run(spec_id, config=None, **overrides):
            started.set()
            assert release.wait(timeout=30)
            ran.append(spec_id)
            return _stub_artifact(spec_id)

        first = JobQueue(root, workers=1, run=gated_run, journal=JobJournal(root))
        running, _ = first.submit("E1", "a" * 64, {}, config=ExecutionConfig(),
                                  raw_params=dict(E1_TOY), raw_execution={})
        assert started.wait(timeout=10)
        waiting, _ = first.submit("E2", "b" * 64, {}, config=ExecutionConfig(),
                                  raw_params={"n": 80, "trials": 1}, raw_execution={})

        closer = threading.Thread(target=lambda: first.close(timeout=30, finish_queued=False))
        closer.start()
        while not first._closed:  # drain flag is set before the release
            time.sleep(0.005)
        release.set()
        closer.join(timeout=30)
        assert ran == ["E1"]  # the running job finished; the queued one did not
        assert first.get(waiting.job_id).state == JobState.QUEUED

        runs = []

        def recording_run(spec_id, config=None, **overrides):
            runs.append(spec_id)
            return _stub_artifact(spec_id)

        second = JobQueue(root, workers=1, run=recording_run, journal=JobJournal(root))
        report = second.recover()
        assert report.replayed == [waiting.job_id]
        deadline = time.monotonic() + 10
        while second.get(waiting.job_id).state != JobState.DONE:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        second.close()
        assert runs == ["E2"]  # only the abandoned job re-ran


class TestBackpressure:
    def test_saturated_queue_sheds_with_429_and_retry_after(self, server_factory):
        started = threading.Event()
        release = threading.Event()

        def gated_run(spec_id, config=None, **overrides):
            started.set()
            assert release.wait(timeout=30)
            return _stub_artifact(spec_id)

        server, client = server_factory(
            run=gated_run, workers=1, max_queued=1, retry=RetryPolicy(attempts=1)
        )
        blocker = client.submit("E1", params=E1_TOY)
        assert started.wait(timeout=10)
        queued = client.submit("E2", params={"n": 80, "trials": 1})
        assert queued["status"] == JobState.QUEUED

        with pytest.raises(ServiceError) as excinfo:
            client.submit("E3", params={"trials": 1})
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None  # from the Retry-After header
        assert excinfo.value.payload["max_queued"] == 1
        assert "saturated" in excinfo.value.payload["error"]

        # Joining an in-flight duplicate adds no work and is never shed.
        joined = client.submit("E2", params={"n": 80, "trials": 1})
        assert joined["deduplicated"] is True

        release.set()
        assert client.wait(blocker["job_id"])["status"] == JobState.DONE
        assert client.wait(queued["job_id"])["status"] == JobState.DONE
        assert client.metrics()["cache"]["shed"] == 1

    def test_queue_saturated_carries_the_shed_numbers(self, tmp_path):
        release = threading.Event()
        started = threading.Event()

        def gated_run(spec_id, config=None, **overrides):
            started.set()
            assert release.wait(timeout=30)
            return _stub_artifact(spec_id)

        queue = JobQueue(tmp_path, workers=1, run=gated_run, max_queued=2, retry_after=7.5)
        try:
            queue.submit("E1", "a" * 64, {}, config=ExecutionConfig())
            assert started.wait(timeout=10)
            queue.submit("E2", "b" * 64, {}, config=ExecutionConfig())
            queue.submit("E3", "c" * 64, {}, config=ExecutionConfig())
            with pytest.raises(QueueSaturated) as excinfo:
                queue.submit("E4", "d" * 64, {}, config=ExecutionConfig())
            assert excinfo.value.depth == 2
            assert excinfo.value.max_queued == 2
            assert excinfo.value.retry_after == 7.5
        finally:
            release.set()
            queue.close()


class TestDegradedMode:
    def test_store_write_failure_degrades_to_compute_only(self, server_factory):
        server, client = server_factory()
        with chaos.inject("store.put", raises=OSError("disk full"), times=1):
            submission = client.submit("E1", params=E1_TOY)
            final = client.wait(submission["job_id"], timeout=120)
        # The simulation succeeded and the result is served...
        assert final["status"] == JobState.DONE
        assert final["result"]["rendered"]
        assert "disk full" in final["result"]["execution"]["store_error"]
        # ...but nothing persisted, and the service says so on /healthz (200).
        with pytest.raises(ServiceError) as excinfo:
            client.store(submission["fingerprint"][:12])
        assert excinfo.value.status == 404
        health = client.health()
        assert health["status"] == "degraded"
        assert "disk full" in health["degraded_reason"]
        assert client.metrics()["service"]["status"] == "degraded"

    def test_journal_failure_degrades_but_serving_continues(self, server_factory):
        server, client = server_factory()
        with chaos.inject("journal.append", raises=OSError("no space left")):
            submission = client.submit("E1", params=E1_TOY)
            final = client.wait(submission["job_id"], timeout=120)
        assert final["status"] == JobState.DONE  # the job still ran and served
        health = client.health()
        assert health["status"] == "degraded"
        assert "no space left" in health["degraded_reason"]
        assert health["journal"] is False  # durability lost, visibly


class TestRetryingClient:
    def test_delay_is_deterministic_capped_and_honours_retry_after(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, multiplier=2.0)
        delays = [policy.delay(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays == [policy.delay(attempt) for attempt in (1, 2, 3, 4, 5)]
        assert all(0.05 <= delay <= 1.0 for delay in delays)  # jitter in [0.5, 1.0]x
        assert policy.delay(1, retry_after=3.0) == 3.0  # the server's hint wins

    def test_connection_errors_retry_until_success(self):
        client = ServiceClient(retry=RetryPolicy(attempts=4, base_delay=0.001, max_delay=0.002))
        calls = []

        def flaky(method, path, payload=None):
            calls.append(path)
            if len(calls) < 3:
                raise ConnectionRefusedError("service restarting")
            return {"ok": True}

        client._request_once = flaky
        assert client.request("GET", "/healthz") == {"ok": True}
        assert len(calls) == 3

    def test_retryable_status_backs_off_then_exhausts(self):
        client = ServiceClient(retry=RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002))
        calls = []

        def always_shedding(method, path, payload=None):
            calls.append(path)
            raise ServiceError(429, {"error": "saturated"}, retry_after=0.001)

        client._request_once = always_shedding
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/runs", {})
        assert excinfo.value.status == 429
        assert len(calls) == 3  # every configured attempt was used

    def test_client_errors_never_retry(self):
        client = ServiceClient(retry=RetryPolicy(attempts=5, base_delay=0.001))
        calls = []

        def not_found(method, path, payload=None):
            calls.append(path)
            raise ServiceError(404, {"error": "unknown job"})

        client._request_once = not_found
        with pytest.raises(ServiceError):
            client.request("GET", "/v1/runs/nope")
        assert len(calls) == 1

    def test_deadline_stops_retrying_early(self):
        client = ServiceClient(
            retry=RetryPolicy(attempts=10, base_delay=0.5, max_delay=0.5, deadline=0.01)
        )
        calls = []

        def down(method, path, payload=None):
            calls.append(path)
            raise ConnectionRefusedError("down")

        client._request_once = down
        with pytest.raises(ConnectionRefusedError):
            client.request("GET", "/healthz")
        assert len(calls) == 1  # the first backoff would overrun the deadline

    def test_wait_backs_off_polling_up_to_the_cap(self, monkeypatch):
        client = ServiceClient(retry=RetryPolicy(attempts=1))
        polls = []
        sleeps = []

        def scripted_status(job_id):
            polls.append(job_id)
            state = JobState.DONE if len(polls) >= 6 else JobState.RUNNING
            return {"status": state, "job_id": job_id}

        client.status = scripted_status
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        body = client.wait("000001-abc", timeout=60, poll_interval=0.05, max_poll_interval=0.2)
        assert body["status"] == JobState.DONE
        assert sleeps == pytest.approx([0.05, 0.075, 0.1125, 0.16875, 0.2])  # 1.5x, capped


class TestKillDashNine:
    """The systems-level acceptance test: ``kill -9`` a real served process."""

    _LISTENING = re.compile(r"listening on http://[\d.]+:(\d+)")

    def _spawn(self, store, extra_env=None):
        repo_src = str(Path(__file__).resolve().parents[3] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        env.update(extra_env or {})
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(store), "--port", "0", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            match = self._LISTENING.search(line or "")
            if match:
                return process, int(match.group(1))
            if process.poll() is not None:
                break
        process.kill()
        raise AssertionError("service subprocess never reported its port")

    def test_kill9_mid_job_then_restart_replays_to_identical_artifact(self, tmp_path):
        store = tmp_path / "store"
        # The chaos sleep parks the worker *after* the job is journaled as
        # started, guaranteeing the SIGKILL lands mid-job.
        first, port1 = self._spawn(store, {"REPRO_CHAOS": "queue.worker:sleep:45:1"})
        second = None
        try:
            client1 = ServiceClient(port=port1)
            submission = client1.submit("E1", params=E1_TOY)
            assert submission["status"] == JobState.QUEUED
            first.kill()  # SIGKILL: no drain, no checkpoint, no goodbye
            first.wait(timeout=30)

            second, port2 = self._spawn(store)
            client2 = ServiceClient(port=port2)
            final = client2.wait(submission["job_id"], timeout=180)
            assert final["status"] == JobState.DONE
            assert final["recovered"] is True
            assert final["fingerprint"] == submission["fingerprint"]

            stored = client2.store(submission["fingerprint"][:12])
            assert stored["result"]["rendered"] == final["result"]["rendered"]
            health = client2.health()
            assert health["status"] == "ok"
            assert health["recovery"]["replayed"] == 1
            metrics = client2.metrics()
            assert metrics["cache"]["miss"] == 1  # computed exactly once
        finally:
            for process in (first, second):
                if process is not None and process.poll() is None:
                    process.terminate()
                    process.wait(timeout=30)
