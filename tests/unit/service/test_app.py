"""Handler tests for the experiment service, driven through the client.

A real ``ThreadingHTTPServer`` on an ephemeral port, exercised exactly the
way external traffic would be — through
:class:`repro.service.client.ServiceClient` — covering the tentpole's
acceptance criteria: submit/poll/cancel, unknown spec → 404, bad param →
400, the immediate-200 store-hit path with a byte-identical report, and
duplicate concurrent submissions computing once.  Real simulations are
kept to toy E1 sweeps; every scripted race uses injected run callables.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ExperimentError
from repro.experiments.report import ExperimentReport
from repro.service import JobState, ServiceClient, ServiceError, create_server
from repro.store import RunArtifact, RunStore

E1_TOY = {"sizes": [60, 90], "epsilon": 0.3, "trials": 1}


@pytest.fixture
def server_factory(tmp_path):
    """Build ephemeral-port servers that are torn down with the test."""
    servers = []

    def build(run=None, workers=2):
        server = create_server(tmp_path / "store", port=0, workers=workers, run=run)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, ServiceClient(port=server.server_address[1])

    yield build
    for server in servers:
        server.shutdown()
        server.server_close()
        server.service.close()


def _stub_artifact(spec_id: str = "E1", cache: str = "miss") -> RunArtifact:
    """A scripted run's return value (valid report, no simulation)."""
    report = ExperimentReport(experiment_id=spec_id, title="t", claim="c", rows=[{"x": 1}])
    return RunArtifact(spec_id=spec_id, execution={"cache": cache}, report=report)


class TestSubmitPollCancel:
    def test_submit_poll_result_and_store_hit_round_trip(self, server_factory, tmp_path):
        server, client = server_factory()
        submission = client.submit("E1", params=E1_TOY)
        assert submission["status"] == JobState.QUEUED
        assert submission["deduplicated"] is False
        assert len(submission["fingerprint"]) == 64

        final = client.result(submission)
        assert final["status"] == JobState.DONE
        assert final["cache"] == "miss"
        rendered = final["result"]["rendered"]
        assert "E1" in rendered

        # Second identical submission: immediate 200 from the store, no job,
        # byte-identical report — the tentpole acceptance criterion.
        again = client.submit("E1", params=E1_TOY)
        assert again["status"] == JobState.DONE
        assert again["cache"] == "hit"
        assert again["job_id"] is None
        assert again["result"]["rendered"] == rendered
        assert again["result"]["fingerprint"] == submission["fingerprint"]

        # The artifact is also addressable through the store resource.
        stored = client.store(submission["fingerprint"][:12])
        assert stored["result"]["rendered"] == rendered

        metrics = client.metrics()
        assert metrics["cache"]["hit"] == 1
        assert metrics["cache"]["miss"] == 1
        assert metrics["cache"]["hit_rate"] == 0.5
        assert metrics["latency_seconds"]["E1"]["count"] == 2

    def test_cancel_queued_job_and_409_on_done(self, server_factory, tmp_path):
        started = threading.Event()
        release = threading.Event()

        def gated_run(spec_id, config=None, **overrides):
            started.set()
            assert release.wait(timeout=30)
            return _stub_artifact(spec_id)

        server, client = server_factory(run=gated_run, workers=1)
        blocker = client.submit("E1", params=E1_TOY)
        assert started.wait(timeout=10)
        victim = client.submit("E2", params={"n": 80, "trials": 1})
        assert victim["status"] == JobState.QUEUED

        cancelled = client.cancel(victim["job_id"])
        assert cancelled["status"] == JobState.CANCELLED
        assert client.status(victim["job_id"])["status"] == JobState.CANCELLED

        release.set()
        final = client.wait(blocker["job_id"])
        assert final["status"] == JobState.DONE
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(blocker["job_id"])
        assert excinfo.value.status == 409
        assert "only queued jobs" in excinfo.value.payload["error"]

        states = {job["job_id"]: job["state"] for job in client.jobs()}
        assert states[victim["job_id"]] == JobState.CANCELLED
        assert states[blocker["job_id"]] == JobState.DONE

    def test_duplicate_concurrent_submissions_compute_once(self, server_factory):
        run_count = {"E2": 0}
        count_lock = threading.Lock()
        started = threading.Event()
        release = threading.Event()

        def gated_counting_run(spec_id, config=None, **overrides):
            if spec_id == "E1":
                started.set()
                assert release.wait(timeout=30)
                return _stub_artifact("E1")
            with count_lock:
                run_count["E2"] += 1
            return _stub_artifact("E2", "miss")

        server, client = server_factory(run=gated_counting_run, workers=1)
        client.submit("E1", params=E1_TOY)  # occupies the single worker
        assert started.wait(timeout=10)

        first = client.submit("E2", params={"n": 80, "trials": 1})
        second = client.submit("E2", params={"n": 80, "trials": 1})
        assert first["job_id"] == second["job_id"]
        assert second["deduplicated"] is True

        release.set()
        final = client.wait(first["job_id"])
        assert final["status"] == JobState.DONE
        assert run_count["E2"] == 1  # the joined submission never re-ran

        metrics = client.metrics()
        assert metrics["cache"]["deduplicated"] == 1

    def test_failed_job_reports_error_text(self, server_factory):
        def explode(spec_id, config=None, **overrides):
            raise RuntimeError("simulated driver crash")

        server, client = server_factory(run=explode)
        submission = client.submit("E1", params=E1_TOY)
        final = client.wait(submission["job_id"])
        assert final["status"] == JobState.FAILED
        assert "simulated driver crash" in final["error"]
        with pytest.raises(ExperimentError, match="ended failed"):
            client.result(submission)  # result() raises on failed jobs


class TestValidationAndErrors:
    def test_unknown_experiment_is_404(self, server_factory):
        server, client = server_factory()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E99")
        assert excinfo.value.status == 404
        assert "E1" in excinfo.value.payload["experiments"]

    def test_bad_parameter_is_400_with_settable_listing(self, server_factory):
        server, client = server_factory()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E1", params={"not_a_param": 1})
        assert excinfo.value.status == 400
        assert "settable parameters" in excinfo.value.payload["error"]

    def test_forbidden_execution_option_is_400(self, server_factory):
        server, client = server_factory()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E1", execution={"store_path": "/tmp/elsewhere"})
        assert excinfo.value.status == 400
        assert "store_path" in excinfo.value.payload["error"]

    @pytest.mark.parametrize(
        "execution, message",
        [
            ({"batch": "false"}, "batch must be true or false"),
            ({"trials": "3"}, "trials must be a positive integer"),
            ({"trials": 0}, "trials must be a positive integer"),
            ({"base_seed": "7"}, "base_seed must be an integer"),
            ({"backend": "local", "backend_options": {"workers": "2"}}, "workers must be"),
            ({"backend": "local", "backend_options": {"workers": -1}}, "workers must be"),
            ({"backend": "remote"}, "unknown execution backend"),
            ({"jobs": 2}, "unknown execution option(s) jobs"),
        ],
        ids=["batch-str", "trials-str", "trials-zero", "seed-str", "workers-str",
             "workers-negative", "remote", "jobs"],
    )
    def test_badly_typed_execution_option_is_400_at_submission(
        self, server_factory, execution, message
    ):
        server, client = server_factory()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E1", execution=execution)
        assert excinfo.value.status == 400
        assert message in excinfo.value.payload["error"]
        assert client.jobs() == [], "a rejected request must not queue a job"

    def test_double_specified_trials_is_400(self, server_factory):
        # ``trials`` may arrive as a parameter override or an execution
        # option, but not both — plan resolution rejects it at POST time.
        server, client = server_factory()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E1", params={"trials": 2}, execution={"trials": 3})
        assert excinfo.value.status == 400
        assert "trials" in excinfo.value.payload["error"]

    def test_unknown_job_and_resource_are_404(self, server_factory):
        server, client = server_factory()
        for call in (lambda: client.status("000099-abcdef012345"),
                     lambda: client.request("GET", "/v1/nope")):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_malformed_json_body_is_400(self, server_factory):
        import http.client

        server, client = server_factory()
        connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/runs", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_store_prefix_404_and_409(self, server_factory, tmp_path):
        server, client = server_factory()
        with pytest.raises(ServiceError) as excinfo:
            client.store("deadbeef")
        assert excinfo.value.status == 404

        store = RunStore(tmp_path / "store")
        for index in range(2):
            artifact = _stub_artifact()
            artifact.fingerprint = "ef" * 5 + format(index, "054x")
            store.put(artifact)
        with pytest.raises(ServiceError) as excinfo:
            client.store("ef" * 5)
        assert excinfo.value.status == 409
        assert "ambiguous" in excinfo.value.payload["error"]
        assert "extend the prefix" in excinfo.value.payload["error"]


class TestDiscoveryAndHealth:
    def test_experiments_listing_matches_registry(self, server_factory):
        from repro.api import experiment_ids, get_spec

        server, client = server_factory()
        listing = client.experiments()
        assert [entry["id"] for entry in listing] == list(experiment_ids())
        e1 = next(entry for entry in listing if entry["id"] == "E1")
        spec = get_spec("E1")
        assert e1["title"] == spec.title
        assert [p["name"] for p in e1["parameters"]] == list(spec.parameter_names)
        assert "supports_batch" not in e1
        assert "supports_jobs" not in e1

    def test_healthz_reports_queue_gauges(self, server_factory):
        server, client = server_factory()
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["workers"] == 2
        assert "store" in health

    def test_metrics_counts_requests_per_route(self, server_factory):
        server, client = server_factory()
        client.health()
        client.health()
        metrics = client.metrics()
        route_counts = {
            route: count
            for route, count in metrics["requests"].items()
            if "healthz" in route
        }
        assert sum(route_counts.values()) == 2
        assert metrics["queue"] == {"depth": 0, "running": 0}
