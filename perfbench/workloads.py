"""The four workloads: their inputs, their timed unit and their output checks.

Three workloads time one ``run_experiment`` call as their unit, in this
process.  ``service_mixed`` times HTTP requests against a ``repro-flip
serve`` subprocess.  Every unit's output is checked here; a unit that raises
or fails a check counts as failed.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Simulation:
    """A workload whose unit is one in-process ``run_experiment`` call."""

    experiment: str
    execution: Mapping[str, Any]
    params: Mapping[str, Any]
    toy_params: Mapping[str, Any]

    def sizes(self, toy: bool) -> Mapping[str, Any]:
        return self.toy_params if toy else self.params


@dataclass(frozen=True)
class Service:
    """A closed loop of store hits and fresh-seed misses over HTTP."""

    point: Mapping[str, Any]
    toy_point: Mapping[str, Any]

    def sizes(self, toy: bool) -> Mapping[str, Any]:
        return self.toy_point if toy else self.point


WORKLOADS: Dict[str, Any] = {
    "broadcast_serial": Simulation(
        "E1", {}, {"sizes": (500, 1000, 2000), "epsilon": 0.2, "trials": 1},
        {"sizes": (64, 128), "epsilon": 0.2, "trials": 1},
    ),
    "broadcast_batch": Simulation(
        "E1", {"batch": True}, {"sizes": (1000, 2000), "epsilon": 0.3, "trials": 8},
        {"sizes": (64, 128), "epsilon": 0.3, "trials": 2},
    ),
    "majority_pool": Simulation(
        "E8", {"batch": True, "backend": "local", "backend_options": {"workers": 2}},
        {"n": 2000, "set_sizes": (200, 800), "biases": (0.1, 0.35), "trials": 3},
        {"n": 200, "set_sizes": (60, 100), "biases": (0.4,), "trials": 2},
    ),
    "service_mixed": Service(
        {"n": 200, "epsilon": 0.4, "set_sizes": [120], "biases": [0.45], "trials": 2},
        {"n": 120, "epsilon": 0.4, "set_sizes": [60], "biases": [0.45], "trials": 2},
    ),
}


#: Points the service loop stores (through misses) before it starts timing.
STORED_POINTS = 8
#: Request ``i`` of the service loop is a miss when ``i % MISS_EVERY == MISS_EVERY - 1``.
#: The mix is synthetic: 25 hits to 1 miss is the hit rate (0.96) that
#: ``benchmarks/bench_service_load.py`` records for its warm-sweep traffic;
#: the repository holds no record of real service traffic.
MISS_EVERY = 26
#: Seconds between polls of a submitted miss.
POLL_S = 0.002
#: A miss is first polled after this share of the median run time of the
#: last :data:`FIRST_POLL_WINDOW` jobs.  A poll that lands while the job runs
#: takes the server's GIL from the job thread: with a poll every 5 ms from
#: the submit on, the jobs' median time swung by a third between blocks of
#: the same run, against a twentieth with one poll per job.
FIRST_POLL = 0.9
FIRST_POLL_WINDOW = 25
#: Seconds of service traffic between two timings of the reference kernel.
REFERENCE_EVERY_S = 1.0


def unit_seed(seed: int, index: int) -> int:
    """The ``base_seed`` of unit ``index`` of a run with workload seed ``seed``."""
    return 1_000_003 * seed + 7919 * index + 17


def child_env() -> Dict[str, str]:
    """Environment for a child python that imports ``repro`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ------------------------------------------------------------------ checks

#: The corollary's threshold is ``Omega(sqrt(log n / |A|))`` with no constant.
#: At bias 0.1 and |A| = 800 (1.03 times the constant-1 threshold) one trial
#: in about a hundred calls failed, so only points clear of it by this factor
#: are held to "every trial succeeds"; the others still count in
#: ``success_rate``.
MARGIN = 1.5

#: Held trials that may miss all-correct in one run before the run fails.
#: Both guarantees are w.h.p., a miss probability of about 1/n per trial:
#: E1 at n = 1000, eps = 0.3 missed once in about 2500 trials.  A run holds
#: at most a few hundred trials, so a second miss means a broken protocol.
TOLERATED_MISSES = 1


def work_and_check(experiment: str, report: Mapping[str, Any]) -> Tuple[float, int, int, int, List[str]]:
    """Agent-rounds, trials, all-correct trials, misses and failed checks of a report.

    E1: every trial runs exactly the schedule length, and every trial that
    does not end all-correct is a miss.  E8: every trial that fails at a
    point whose bias is at least :data:`MARGIN` times the
    ``sqrt(log n / |A|)`` threshold is a miss (Corollary 2.18).  The caller
    allows :data:`TOLERATED_MISSES` per run.
    """
    from repro.core.parameters import ProtocolParameters

    config, rows = report["config"], report["rows"]
    trials = int(config["trials"])
    agent_rounds, correct, misses, problems = 0.0, 0, 0, []
    for row in rows:
        n = int(row.get("n", config.get("n", 0)))
        agent_rounds += n * row["mean_rounds"] * trials
        row_correct = round(row["success_rate"] * trials)
        correct += row_correct
        if experiment == "E1":
            misses += trials - row_correct
            length = ProtocolParameters.calibrated(n, row["epsilon"]).total_rounds
            if row["mean_rounds"] != length:
                problems.append(f"E1 n={n}: {row['mean_rounds']} rounds, schedule has {length}")
        elif row["initial_bias"] >= MARGIN * row["bias_threshold_sqrt_logn_over_A"]:
            misses += trials - row_correct
    if not rows:
        problems.append(f"{experiment}: empty report")
    return agent_rounds, trials * len(rows), correct, misses, problems


@dataclass
class Tally:
    """What a run's units did: timings, work and failures."""

    unit_s: List[float] = field(default_factory=list)
    ref_s: List[float] = field(default_factory=list)
    unit_agent_rounds: List[float] = field(default_factory=list)
    unit_agent_rounds_per_s: List[float] = field(default_factory=list)
    trials: int = 0
    trials_correct: int = 0
    misses: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def count(self, experiment: str, report: Mapping[str, Any], seconds: float) -> List[str]:
        """Add a unit's checked report; return its failed checks."""
        agent_rounds, trials, correct, misses, problems = work_and_check(experiment, report)
        self.unit_agent_rounds.append(agent_rounds)
        self.unit_agent_rounds_per_s.append(agent_rounds / seconds)
        self.trials += trials
        self.trials_correct += correct
        self.misses += misses
        if misses and self.misses > TOLERATED_MISSES:
            problems.append(f"{self.misses} held trials missed all-correct in this run "
                            f"(at most {TOLERATED_MISSES} allowed)")
        return problems


def run_simulation_unit(sim: Simulation, toy: bool, base_seed: int, tally: Tally) -> Tuple[float, float]:
    """Time the reference kernel and then one ``run_experiment`` call.

    The call is checked and added to ``tally``.  Returns the call's
    ``(start, end)`` on the ``perf_counter`` clock.
    """
    import repro.api as api

    config = api.ExecutionConfig(**sim.execution)
    tally.ref_s.append(reference.seconds())
    tally.attempted += 1
    started = time.perf_counter()
    try:
        artifact = api.run_experiment(sim.experiment, config=config, base_seed=base_seed, **sim.sizes(toy))
    except Exception as error:  # a failed unit is counted, not fatal
        tally.fail(f"{sim.experiment} base_seed={base_seed}: {type(error).__name__}: {error}")
        return started, time.perf_counter()
    ended = time.perf_counter()
    tally.unit_s.append(ended - started)
    problems = tally.count(sim.experiment, artifact.report.to_dict(), ended - started)
    if problems:
        tally.fail("; ".join(problems))
    return started, ended


# ------------------------------------------------------------------ service


class Server:
    """One ``repro-flip serve`` subprocess on an ephemeral port and a fresh store."""

    def __init__(self, store: Path, spans_out: Optional[Path] = None) -> None:
        store.mkdir(parents=True, exist_ok=True)
        serve_args = ["serve", "--store", str(store), "--port", "0", "--workers", "2", "--quiet"]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro.cli"] + serve_args
        else:
            argv = [sys.executable, str(Path(__file__).with_name("serve.py")), str(spans_out)] + serve_args
        self.started = time.perf_counter()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT), text=True)
        line = self.process.stdout.readline()
        marker = "listening on http://"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        host, port = line.split(marker, 1)[1].split()[0].rsplit(":", 1)
        from repro.service.client import RetryPolicy, ServiceClient

        self.client = ServiceClient(host, int(port), timeout=60.0, retry=RetryPolicy(attempts=1))

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from process start until ``/healthz`` first answers."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.client.health().get("status") == "ok":
                    return time.perf_counter() - self.started
            except (ConnectionError, OSError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        elif self.process.stdout is not None:
            self.process.communicate()


@dataclass
class ServiceTally(Tally):
    """A service run: per-request latencies on top of the unit (miss) times."""

    hit_s: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    #: The jobs' own run times (start to finish); they only pace the first poll.
    job_run_s: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    #: Seconds of each full cycle of the mix: ``MISS_EVERY - 1`` hits and the miss.
    cycle_s: List[float] = field(default_factory=list)
    window_start: float = 0.0
    window_s: float = 0.0


def _point_params(service: Service, toy: bool, base_seed: int) -> Dict[str, Any]:
    return dict(service.sizes(toy), base_seed=base_seed)


def request_miss(client: Any, params: Dict[str, Any], tally: ServiceTally,
                 call: Callable[..., Any]) -> Dict[str, Any]:
    """Submit a point not yet stored and poll until done; return its report.

    The unit time is timed by the client, from submit until a poll sees
    the job done, so it holds the HTTP round trips and up to one poll
    interval.  Polls start after :data:`FIRST_POLL` of the recent jobs'
    median run time.  The job's own submit-to-finish span from its manifest
    goes to ``job_s`` as a cross-check.
    """
    started = time.perf_counter()
    body = call(client.submit, "E8", params, {"batch": True})
    if body.get("status") == "done":
        raise RuntimeError(f"fresh point answered from the store: {params}")
    job_id = body["job_id"]
    if tally.job_run_s:
        time.sleep(FIRST_POLL * statistics.median(tally.job_run_s[-FIRST_POLL_WINDOW:]))
    while body.get("status") not in ("done", "failed", "cancelled"):
        time.sleep(POLL_S)
        body = call(client.status, job_id)
    elapsed = time.perf_counter() - started
    if body["status"] != "done":
        raise RuntimeError(f"job {job_id} ended {body['status']}: {body.get('error')}")
    report = body["result"]["report"]
    tally.unit_s.append(elapsed)
    tally.job_s.append(body["finished_at"] - body["submitted_at"])
    tally.job_run_s.append(body["finished_at"] - body["started_at"])
    tally.queue_wait_s.append(body["started_at"] - body["submitted_at"])
    problems = tally.count("E8", report, tally.unit_s[-1])
    if problems:
        raise RuntimeError("; ".join(problems))
    return report


def direct(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def closed_loop(server: Server, service: Service, toy: bool, seed: int, seconds: float,
                call: Callable[..., Any] = direct, reference_every: Optional[float] = REFERENCE_EVERY_S) -> ServiceTally:
    """Store :data:`STORED_POINTS` points, then loop hits and misses for ``seconds``.

    One client, one connection at a time.  Request ``i`` is a miss (a fresh
    ``base_seed``) when ``i % MISS_EVERY == MISS_EVERY - 1`` and otherwise a
    hit on stored point ``i % len(stored)``; every hit must return the report
    its miss stored.  ``call`` wraps each HTTP call (the traced run puts a
    client span around it).  Every ``reference_every`` seconds, in the middle
    of a cycle, the loop pauses to time the reference kernel; the pauses are left out of
    ``window_s`` and ``cycle_s``.  ``None`` never pauses.
    """
    client = server.client
    tally = ServiceTally()
    stored: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    next_seed = itertools.count()
    for _ in range(STORED_POINTS):
        params = _point_params(service, toy, unit_seed(seed, next(next_seed)))
        stored.append((params, request_miss(client, params, ServiceTally(), direct)))

    started = cycle_started = tally.window_start = time.perf_counter()
    paused = cycle_paused = 0.0
    next_reference = started
    index = 0
    while time.perf_counter() - started < seconds + paused:
        # Mid-cycle, a dozen hits after the last miss, the server has no job
        # work left that could run beside the reference on the shared core.
        if (reference_every is not None and index % MISS_EVERY == MISS_EVERY // 2
                and time.perf_counter() >= next_reference):
            begin = time.perf_counter()
            tally.ref_s.append(reference.seconds())
            pause = time.perf_counter() - begin
            paused += pause
            cycle_paused += pause
            next_reference = time.perf_counter() + reference_every
        tally.attempted += 1
        is_miss = index % MISS_EVERY == MISS_EVERY - 1
        try:
            if is_miss:
                params = _point_params(service, toy, unit_seed(seed, next(next_seed)))
                stored.append((params, request_miss(client, params, tally, call)))
            else:
                params, report = stored[index % len(stored)]
                begin = time.perf_counter()
                body = call(client.submit, "E8", params, {"batch": True})
                tally.hit_s.append(time.perf_counter() - begin)
                if body.get("cache") != "hit" or body["result"]["report"] != report:
                    raise RuntimeError(f"hit for base_seed={params['base_seed']} differs from its miss")
        except Exception as error:  # a failed request is counted, not fatal
            tally.fail(f"{'miss' if is_miss else 'hit'} #{index}: {type(error).__name__}: {error}")
        if is_miss:
            now = time.perf_counter()
            tally.cycle_s.append(now - cycle_started - cycle_paused)
            cycle_started, cycle_paused = now, 0.0
        index += 1
    tally.window_s = time.perf_counter() - started - paused
    return tally


def store_bytes(store: Path) -> Tuple[int, int]:
    """(artifact count, total bytes) of the artifacts in a run store."""
    artifacts = [p for p in store.glob("*/*") if p.is_dir() and (p / "manifest.json").exists()]
    total = sum(f.stat().st_size for a in artifacts for f in a.rglob("*") if f.is_file())
    return len(artifacts), total


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]); NaN for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
