"""The repository benchmark: one command, four workloads, end-to-end and per-layer metrics.

Usage::

    python3 perfbench/run.py --workload broadcast_serial --seed 1 --seconds 20 --trace 0

It builds nothing: it imports ``repro`` from ``src/`` of the checkout it sits
in, and exits with code 2 when there is none.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  ``--toy`` shrinks every input so the whole pipeline runs
in seconds (the benchmark's own tests use it).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Times are scaled to nominal speed
by a reference kernel timed beside them (``reference.py``).  The line
before it records the machine stamp, the sample counts, the unscaled times
and the service-only latencies.

See ``perfbench/README.md`` for why each workload exists, what each metric
should move, and the measured run-to-run spread behind each bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import reference
import spans
import workloads as wl
from workloads import ROOT, SRC, WORKLOADS, Service, Simulation

#: Repeated set-ups per run; ``setup_s`` is their median.
SETUPS = 7
TOY_SETUPS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("run_s.p50", "s"),
    ("agent_rounds_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("requests_per_s", "1/s"),
)

#: Span names whose self times (with ``unattributed_s``) add up to ``trace.wall_s``.
SPAN_NAMES = (
    "client.request", "service.http", "service.submit_run", "service.job_status",
    "service.queue.submit", "service.journal.record", "api.run_experiment",
    "api.resolve_run_inputs", "store.fingerprint", "store.get", "store.put",
    "experiments.driver", "exec.batching", "exec.backend.start", "exec.backend.submit",
    "exec.backend.worker", "exec.backend.close", "exec.stage1_batch", "exec.stage2_batch",
    "core.stage1", "core.stage2", "substrate.deliver", "substrate.deliver_batch",
    "substrate.transmit",
)

PER_LAYER = (
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace.spans", "count"),
    ("tracing_overhead_s", "s"),
) + tuple((f"{name}.self_s", "s") for name in SPAN_NAMES) + (
    ("substrate.deliver.calls", "count"),
    ("substrate.deliver_batch.calls", "count"),
    ("substrate.messages", "count"),
    ("substrate.accepted_ratio", "ratio"),
    ("proc.minor_faults", "count"),
    ("exec.backend.submit_s", "s"),
    ("exec.backend.tasks", "count"),
    ("api.resolve_run_inputs.s", "s"),
    ("store.fingerprint.s", "s"),
    ("store.get.s", "s"),
    ("store.get.hit_ratio", "ratio"),
    ("store.put.s", "s"),
    ("store.put.bytes", "B"),
    ("service.journal.record.s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.submit_run.s", "s"),
    ("service.http_overhead_ms", "ms"),
)


# ------------------------------------------------------------------ helpers


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def minor_faults() -> int:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)


def stamp(args: argparse.Namespace) -> Dict[str, Any]:
    """Commit, source digest, core count and versions the result belongs to."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
    }


class Layers:
    """Per-layer totals over the traced windows of a run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.sent = self.delivered = self.hits = 0
        self.wall_s = self.unattributed_s = 0.0
        self.spans = 0
        self.minor_faults = 0
        self.http_overhead_s: List[float] = []

    def add(self, recorded: Sequence[spans.Span], t0: float, t1: float) -> None:
        """Add the spans of one traced window ``[t0, t1]``."""
        self_s, unattributed = spans.decompose(recorded, t0, t1)
        for name, seconds in self_s.items():
            self.self_s[name] += seconds
        self.unattributed_s += unattributed
        self.wall_s += t1 - t0
        by_id = {span[0]: span for span in recorded}
        for span in recorded:
            sid, parent, name, start, end, attr = span
            if not t0 <= start < t1:
                continue
            self.spans += 1
            self.calls[name] += 1
            self.inclusive_s[name] += end - start
            if name in ("substrate.deliver", "substrate.deliver_batch") and attr:
                self.sent += attr[0]
                self.delivered += attr[1]
            elif name == "store.get" and attr:
                self.hits += 1
            elif name == "service.submit_run":
                client = by_id.get(parent)
                while client is not None and client[2] != "client.request":
                    client = by_id.get(client[1])
                if client is not None:
                    self.http_overhead_s.append((client[4] - client[3]) - (end - start))

    def mean_s(self, name: str) -> float:
        return self.inclusive_s[name] / self.calls[name] if self.calls[name] else 0.0

    def metrics(self, overhead_s: float, queue_wait_s: Sequence[float], put_bytes: float) -> Dict[str, float]:
        values = {
            "trace.wall_s": self.wall_s,
            "unattributed_s": self.unattributed_s,
            "trace.spans": self.spans,
            "tracing_overhead_s": overhead_s,
        }
        for name in SPAN_NAMES:
            values[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        unknown = set(self.self_s) - set(SPAN_NAMES)
        if unknown:
            raise RuntimeError(f"spans missing from SPAN_NAMES: {sorted(unknown)}")
        values.update({
            "substrate.deliver.calls": self.calls["substrate.deliver"],
            "substrate.deliver_batch.calls": self.calls["substrate.deliver_batch"],
            "substrate.messages": self.sent,
            "substrate.accepted_ratio": self.delivered / self.sent if self.sent else 0.0,
            "proc.minor_faults": self.minor_faults,
            "exec.backend.submit_s": self.inclusive_s["exec.backend.submit"],
            "exec.backend.tasks": self.calls["exec.backend.worker"],
            "api.resolve_run_inputs.s": self.mean_s("api.resolve_run_inputs"),
            "store.fingerprint.s": self.mean_s("store.fingerprint"),
            "store.get.s": self.mean_s("store.get"),
            "store.get.hit_ratio": self.hits / self.calls["store.get"] if self.calls["store.get"] else 0.0,
            "store.put.s": self.mean_s("store.put"),
            "store.put.bytes": put_bytes,
            "service.journal.record.s": self.mean_s("service.journal.record"),
            "service.queue_wait_s": statistics.fmean(queue_wait_s) if queue_wait_s else 0.0,
            "service.submit_run.s": self.mean_s("service.submit_run"),
            "service.http_overhead_ms": 1000 * statistics.fmean(self.http_overhead_s) if self.http_overhead_s else 0.0,
        })
        return values


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ simulation workloads


def probe(name: str) -> int:
    """One set-up: import ``repro`` and make the workload's first call at toy size."""
    tally = wl.Tally()
    wl.run_simulation_unit(WORKLOADS[name], True, wl.unit_seed(0, 0), tally)
    return 1 if tally.failed else 0


def simulation_setup_s(name: str, toy: bool, ref_s: List[float]) -> List[float]:
    """Wall times of repeated fresh-interpreter set-ups (start, import, first call).

    The reference kernel is timed before each one, into ``ref_s``.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe", name]
    times = []
    for _ in range(TOY_SETUPS if toy else SETUPS):
        ref_s.append(reference.seconds())
        started = time.perf_counter()
        done = subprocess.run(argv, env=wl.child_env(), cwd=str(ROOT), capture_output=True, text=True)
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return times


def timings(setup: Sequence[float], tally: wl.Tally, ref_s: Sequence[float],
            requests_per_s: float, agent_rounds_per_s: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The timing metrics at nominal speed, and as measured.

    Every time is divided, and every rate multiplied, by the run's slowdown:
    the median of all reference timings in the run over
    :data:`reference.NOMINAL_S`.
    """
    slowdown = reference.slowdown(ref_s)
    raw = {
        "setup_s": statistics.median(setup),
        "run_s.p50": median_or_zero(tally.unit_s),
        "agent_rounds_per_s": agent_rounds_per_s,
        "requests_per_s": requests_per_s,
    }
    scaled = {name: value * slowdown if name.endswith("_per_s") else value / slowdown
              for name, value in raw.items()}
    raw.update({"reference_s.p50": statistics.median(ref_s), "reference_samples": len(ref_s),
                "slowdown": slowdown})
    return scaled, raw


def run_simulation(name: str, sim: Simulation, args: argparse.Namespace) -> Tuple[wl.Tally, Dict[str, float], Dict[str, Any]]:
    wl.run_simulation_unit(sim, True, wl.unit_seed(args.seed, 10**6), wl.Tally())  # warm-up
    if args.trace:
        return trace_simulation(sim, args)
    ref_s: List[float] = []
    setup = simulation_setup_s(name, args.toy, ref_s)
    tally = wl.Tally()
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < args.seconds:
        wl.run_simulation_unit(sim, args.toy, wl.unit_seed(args.seed, index), tally)
        index += 1
    # The rates are medians over calls too: a mean over the run let one
    # slow call move them further than it moves run_s.p50.
    metrics, raw = timings(setup, tally, ref_s + tally.ref_s,
                           requests_per_s=median_or_zero([1 / seconds for seconds in tally.unit_s]),
                           agent_rounds_per_s=median_or_zero(tally.unit_agent_rounds_per_s))
    metrics.update({
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": tally.trials_correct / tally.trials if tally.trials else 0.0,
    })
    return tally, metrics, {"setup_samples": len(setup), "run_samples": len(tally.unit_s), "raw": raw}


def trace_simulation(sim: Simulation, args: argparse.Namespace) -> Tuple[wl.Tally, Dict[str, float], Dict[str, Any]]:
    """Alternate untraced and traced units; layer metrics come from the traced ones."""
    tracer = spans.Tracer()
    layers = Layers()
    untraced, traced = wl.Tally(), wl.Tally()
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < args.seconds or not traced.attempted:
        seed = wl.unit_seed(args.seed, index)
        if index % 2 == 0:
            wl.run_simulation_unit(sim, args.toy, seed, untraced)
        else:
            faults = minor_faults()
            tracer.install()
            try:
                window = wl.run_simulation_unit(sim, args.toy, seed, traced)
            finally:
                tracer.uninstall()
            layers.minor_faults += minor_faults() - faults
            layers.add(tracer.take(), *window)
        index += 1
    overhead = median_or_zero(traced.unit_s) - median_or_zero(untraced.unit_s)
    tally = merge(untraced, traced)
    return tally, layers.metrics(overhead, [], 0.0), {"untraced_samples": len(untraced.unit_s),
                                                      "traced_samples": len(traced.unit_s)}


def merge(*tallies: wl.Tally) -> wl.Tally:
    total = wl.Tally()
    for tally in tallies:
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.problems += tally.problems
    return total


# ------------------------------------------------------------------ service workload


def run_service(service: Service, args: argparse.Namespace, work: Path) -> Tuple[wl.Tally, Dict[str, float], Dict[str, Any]]:
    # Client and server share one core: on a small VM, cross-core wake-ups
    # between the two processes made hit latency swing by a quarter from run
    # to run.  Pinned, the loop cannot show a change to the service's use of
    # a second core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        return trace_service(service, args, work)
    setup, ref_s = [], []
    for index in range(TOY_SETUPS if args.toy else SETUPS):
        ref_s.append(reference.seconds())
        server = wl.Server(work / f"setup-{index}")
        try:
            setup.append(server.wait_ready())
        finally:
            server.stop()
    server = wl.Server(work / "store")
    try:
        server.wait_ready()
        tally = wl.closed_loop(server, service, args.toy, args.seed, args.seconds)
    finally:
        server.stop()
    # Both rates are closed-loop throughputs over the median cycle of the mix
    # (a mean over the loop let a few slow misses move them twice as far).
    # Agent-rounds per second is the cycle's simulated work, the miss's, over
    # the whole cycle: a rate over the miss alone spread by a quarter between
    # runs, as the miss's compute drifts apart from the reference's.
    cycle_s = median_or_zero(tally.cycle_s)
    metrics, raw = timings(setup, tally, ref_s + tally.ref_s,
                           requests_per_s=wl.MISS_EVERY / cycle_s,
                           agent_rounds_per_s=median_or_zero(tally.unit_agent_rounds) / cycle_s)
    metrics.update({
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": tally.trials_correct / tally.trials if tally.trials else 0.0,
    })
    return tally, metrics, service_extra(tally, raw["slowdown"], setup_samples=len(setup), raw=raw)


def service_extra(tally: wl.ServiceTally, slowdown: float, **more: Any) -> Dict[str, Any]:
    """The service-only latencies at nominal speed, reported beside the bounded metrics."""
    return dict(more, **{
        "hits": len(tally.hit_s),
        "misses": len(tally.unit_s),
        "hit_latency_ms.p50": 1000 * wl.quantile(tally.hit_s, 0.5) / slowdown,
        "hit_latency_ms.p99": 1000 * wl.quantile(tally.hit_s, 0.99) / slowdown,
        "miss_latency_s.p50": wl.quantile(tally.unit_s, 0.5) / slowdown,
        "job_s.p50": wl.quantile(tally.job_s, 0.5) / slowdown,
    })


def trace_service(service: Service, args: argparse.Namespace, work: Path) -> Tuple[wl.Tally, Dict[str, float], Dict[str, Any]]:
    """Half the time against a plain server, half against a traced one."""
    half = args.seconds / 2
    server = wl.Server(work / "untraced")
    try:
        server.wait_ready()
        untraced = wl.closed_loop(server, service, args.toy, args.seed, half, reference_every=None)
    finally:
        server.stop()

    client = spans.Tracer()
    out = work / "server-spans.json"
    faults = minor_faults()
    server = wl.Server(work / "traced", spans_out=out)
    try:
        server.wait_ready()
        traced = wl.closed_loop(server, service, args.toy, args.seed + 1, half, reference_every=None,
                                call=lambda fn, *a: client.call("client.request", fn, a, {}))
    finally:
        server.stop()
    layers = Layers()
    layers.minor_faults = minor_faults() - faults
    client_spans = client.take()
    server_spans = [tuple(span) for span in json.loads(out.read_text())]
    recorded = client_spans + spans.link_by_containment(server_spans, client_spans)
    layers.add(recorded, traced.window_start, traced.window_start + traced.window_s)
    artifacts, total_bytes = wl.store_bytes(work / "traced")
    overhead = median_or_zero(traced.unit_s) - median_or_zero(untraced.unit_s)
    metrics = layers.metrics(overhead, traced.queue_wait_s, total_bytes / artifacts if artifacts else 0.0)
    return merge(untraced, traced), metrics, service_extra(traced, 1.0, untraced_misses=len(untraced.unit_s))


# ------------------------------------------------------------------ entry point


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--probe", choices=sorted(n for n, w in WORKLOADS.items() if isinstance(w, Simulation)),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.probe is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        return probe(args.probe)

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if isinstance(workload, Service):
            tally, metrics, extra = run_service(workload, args, work)
        else:
            tally, metrics, extra = run_simulation(args.workload, workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    names = PER_LAYER if args.trace else END_TO_END
    record = {"stamp": stamp(args), "samples": extra, "problems": tally.problems}
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
