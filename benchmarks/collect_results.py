"""Merge the per-family speedup JSONs into one machine-readable summary.

Every speedup benchmark (``bench_exec_speedup.py``,
``bench_e7_batch_speedup.py``, ``bench_e8_batch_speedup.py``,
``bench_stage_batch_speedup.py``, ...) records its own file under
``benchmarks/results/``.  That keeps each benchmark self-contained, but the
*perf trajectory* of the repository — which execution paths exist, how fast
each is relative to the serial reference, and how that changes from PR to PR
— lives scattered across files.  This module flattens all of them into one
top-level ``BENCH_SUMMARY.json``: one entry per measured workload with its
serial/batch wall times and speedups, sorted by source, so diffs of the
summary read as the perf history.

Two source shapes are understood:

* single-workload files (``seconds`` / ``speedup_vs_serial`` at top level),
* multi-family files (a ``families`` mapping of per-experiment entries, as
  written by ``bench_stage_batch_speedup.py``).

Every entry is stamped with the ``machine`` it was measured on: commit, CPU
count (``nproc``) and python/numpy versions.  A result file written with a
``machine`` block (see :func:`machine_stamp`) carries its own.  For an older
file, the commit is the one that last changed it (``git log``), the CPU count
comes from its ``host`` block if it has one, and versions it never recorded
are ``null``; a file with uncommitted changes was just measured here, so it
gets the current stamp.

Run directly (``python benchmarks/collect_results.py``) or let the benchmark
suite do it: the pytest session-finish hook in ``benchmarks/conftest.py``
regenerates the summary after every benchmark run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = Path(__file__).parent / "results"
SUMMARY_PATH = REPO_ROOT / "BENCH_SUMMARY.json"


def _git(*args: str) -> Optional[str]:
    """Output of one git command in the repo, or ``None`` if it fails."""
    try:
        completed = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def machine_stamp() -> Dict[str, Any]:
    """Where a measurement runs now: commit, CPU count, python and numpy versions.

    The commit gets a ``-dirty`` suffix when the tree has uncommitted changes;
    ``nproc`` counts the CPUs this process may run on, as ``nproc`` does.
    """
    commit = _git("rev-parse", "--short", "HEAD")
    if commit is not None and _git("status", "--porcelain") is not None:
        commit += "-dirty"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": commit,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _recorded_machine(path: Path, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The machine stamp of one result file (see the module docstring)."""
    machine = payload.get("machine")
    if isinstance(machine, dict):
        return machine
    if _git("status", "--porcelain", "--", str(path)) is not None:
        return machine_stamp()
    host = payload.get("host")
    return {
        "commit": _git("log", "-1", "--format=%h", "--", str(path)),
        "nproc": host.get("cpu_count") if isinstance(host, dict) else None,
        "python": None,
        "numpy": None,
    }


#: Keys a result file may add, copied into its summary entry when present:
#: the quartiles of paired speed ratios, a perfbench pair record's win count
#: and per-side medians and quartiles (``summary``) and the layer it names
#: with its traced metrics per side, the delivery benches' check that the
#: timed paths agree (``agreement``), and the per-round saving of the
#: ``phase`` family of ``bench_deliver_batch.py``.
OPTIONAL_KEYS = (
    "speedup_quartiles", "summary", "layer", "traced", "agreement", "saving_us_per_round"
)


def _entry(source: str, payload: Dict[str, Any], machine: Dict[str, Any]) -> Dict[str, Any]:
    """One summary entry: experiment label, wall times, speedups, machine."""
    workload = payload.get("workload", {})
    return {
        "source": source,
        "experiment": payload.get("description") or workload.get("experiment"),
        "workload": workload,
        "seconds": payload.get("seconds", {}),
        "speedup_vs_serial": payload.get("speedup_vs_serial", {}),
        **{key: payload[key] for key in OPTIONAL_KEYS if key in payload},
        "machine": machine,
    }


def collect(
    results_dir: Path = RESULTS_DIR, summary_path: Optional[Path] = SUMMARY_PATH
) -> Dict[str, Any]:
    """Aggregate ``results_dir``'s ``*.json`` files; optionally write the summary.

    Returns the summary payload.  ``summary_path=None`` skips writing (used
    by the smoke gate).  Files that are not valid JSON objects are reported
    in the ``skipped`` list instead of aborting the aggregation.
    """
    entries: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            skipped.append(path.name)
            continue
        if not isinstance(payload, dict):
            skipped.append(path.name)
            continue
        machine = _recorded_machine(path, payload)
        families = payload.get("families")
        if isinstance(families, dict):
            for family, family_payload in sorted(families.items()):
                entries.append(_entry(f"{path.name}#{family}", family_payload, machine))
        else:
            entries.append(_entry(path.name, payload, machine))

    try:
        results_label = str(results_dir.resolve().relative_to(REPO_ROOT))
    except ValueError:
        results_label = str(results_dir)
    summary = {
        "generated_by": "benchmarks/collect_results.py",
        "results_dir": results_label,
        "entries": entries,
        "skipped": skipped,
    }
    if summary_path is not None:
        summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def main() -> int:
    """CLI entry point: regenerate the top-level summary and print a digest."""
    summary = collect()
    print(f"wrote {SUMMARY_PATH} ({len(summary['entries'])} entries)")
    for entry in summary["entries"]:
        speedups = ", ".join(
            f"{path} {value}x" for path, value in entry["speedup_vs_serial"].items()
        )
        print(f"  {entry['source']}: {speedups or 'no speedup recorded'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
