"""Alternating parent/change pairs of one repo-benchmark workload.

A change that claims a gain on the repo benchmark (``perfbench/run.py``, see
``BENCHMARK.json``) must win at least nine of ten alternating pairs against
its parent commit, and the two medians must differ by more than the
distance between the quartiles of the parent's own runs.  This script runs
those pairs and records them::

    python benchmarks/perfbench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload broadcast_batch --seed 801 --pairs 10

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts (``git clone`` or
``git archive``) of the commits to compare.  Pair ``i`` runs
``python3 perfbench/run.py --workload W --seed SEED+i`` once in each, the
parent first on even ``i`` and the change first on odd ``i``, so slow drift
in machine speed falls on both sides alike.  Every run's end-to-end metrics,
each side's median and quartiles of ``run_s.p50`` and the change's win count
go to ``benchmarks/results/perfbench_<workload>.json``, which
``collect_results.py`` folds into ``BENCH_SUMMARY.json``.

The record's ``machine`` block comes from the change checkout's own
perfbench stamp (commit, CPU count, versions), not from ``git status`` of
the checkout running this script: the results file it writes would mark
that checkout ``-dirty`` for every later run.  ``--layer NAME`` names the
layer the change claims to move (say ``substrate.deliver_batch``) and adds
one traced run per side (``--trace 1 --seconds 0`` at the first seed); that
layer's metrics, the traced wall time, ``substrate.messages`` and
``proc.minor_faults`` go to ``traced``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

RESULTS_DIR = Path(__file__).parent / "results"

#: The metric the pairs are judged on (lower is better).
CLAIM_METRIC = "run_s.p50"

#: Traced metrics kept besides the named layer's own (``<layer>.*``).
TRACED_METRICS = ("trace.wall_s", "substrate.messages", "proc.minor_faults")


def run_once(checkout: Path, workload: str, seed: int, *options: str) -> Dict[str, Any]:
    """One perfbench run in ``checkout``: its stamp and metric values.

    The metrics are the end-to-end ones, or the per-layer ones when
    ``options`` include ``--trace 1``.
    """
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *options],
        cwd=str(checkout),
        capture_output=True,
        text=True,
        check=True,
    )
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {
        "stamp": json.loads(record_line)["perfbench"]["stamp"],
        "correct": result["correct"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def summarize(pairs: Sequence[Dict[str, Any]], metric: str = CLAIM_METRIC) -> Dict[str, Any]:
    """Each side's median and quartiles of ``metric``, and the change's wins.

    Lower wins, and a tie counts for neither side.  Needs two pairs or more.
    """
    sides = {
        side: [pair[side]["metrics"][metric] for pair in pairs] for side in ("parent", "change")
    }
    summary: Dict[str, Any] = {"metric": metric, "pairs": len(pairs)}
    for side, values in sides.items():
        low, _, high = statistics.quantiles(values, n=4)
        summary[side] = {
            "median": statistics.median(values),
            "quartiles": [low, high],
        }
    summary["change_wins"] = sum(
        change < parent for parent, change in zip(sides["parent"], sides["change"])
    )
    return summary


def machine_of(stamp: Dict[str, Any]) -> Dict[str, Any]:
    """The ``machine`` block (commit, CPU count, versions) of a perfbench stamp."""
    return {key: stamp[key] for key in ("commit", "nproc", "python", "numpy")}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--layer", help="layer the change moves; adds one traced run per side")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs per side)")

    pairs: List[Dict[str, Any]] = []
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair: Dict[str, Any] = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed)
        pairs.append(pair)
        print(json.dumps({side: pair[side]["metrics"][CLAIM_METRIC] for side in order}))

    summary = summarize(pairs)
    parent, change = summary["parent"]["median"], summary["change"]["median"]
    payload = {
        "description": f"perfbench {args.workload}: {args.pairs} alternating parent/change pairs",
        "workload": {
            "experiment": f"perfbench/run.py --workload {args.workload}",
            "seeds": [pair["seed"] for pair in pairs],
            **{
                f"{side}_{key}": pairs[0][side]["stamp"][key]
                for side in ("parent", "change")
                for key in ("commit", "src_sha256")
            },
        },
        "machine": machine_of(pairs[0]["change"]["stamp"]),
        "seconds": {"parent_run_s_p50": round(parent, 3), "change_run_s_p50": round(change, 3)},
        "speedup_vs_serial": {"change_vs_parent": round(parent / change, 2)},
        "summary": summary,
        "runs": [
            {
                "seed": pair["seed"],
                "first": pair["first"],
                **{side: {"correct": pair[side]["correct"], **pair[side]["metrics"]}
                   for side in ("parent", "change")},
            }
            for pair in pairs
        ],
    }
    if args.layer:
        payload["layer"] = args.layer
        payload["traced"] = {}
        for side in ("parent", "change"):
            metrics = run_once(
                getattr(args, side), args.workload, args.seed, "--trace", "1", "--seconds", "0"
            )["metrics"]
            payload["traced"][side] = {
                name: value for name, value in metrics.items()
                if name.startswith(f"{args.layer}.") or name in TRACED_METRICS
            }
    path = RESULTS_DIR / f"perfbench_{args.workload}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
