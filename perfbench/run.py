"""Benchmark of the takahashi library.

    python3 perfbench/run.py [--workload paper|general|unit|all] [--seed N]
                             [--seconds 40] [--trace 0|1]

Run from the root of a source tree.  Each workload runs in a child process
(perfbench/workloads.py) against the library under ``src/``, checks every
answer, and prints its metrics by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` each query also runs under per-layer spans and the
metrics are the per-layer ones (see perfbench/spans.py).  ``--workload
all`` runs the three workloads in turn and reports each under its name.
``--seconds`` is accepted so that the benchmark's standard command line
works, and must equal RUN_SECONDS, the run length the baselines use.

Exit codes: 0 when every answer checked out, 1 when an answer was wrong,
a query raised, or a workload did not finish, 2 when there is no library
to measure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "general", "unit")

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mib": "MiB",
}

RUN_SECONDS = 40

# A run must end within 180 s; the slack above --seconds covers set-up
# and the last query's deadline.
CHILD_LIMIT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a child process; None if it did not finish."""
    cmd = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(seconds), str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_LIMIT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]
    counts = " ".join(f"{k}={v}" for k, v in result["counts"].items())
    print(f"{name}: attempted={result['attempted']} {counts} "
          f"fingerprint={result['fingerprint']}")
    for metric, unit in units.items():
        print(f"{name}  {metric:<44} {result['metrics'][metric]:>16.6g} {unit}")
    if "latency_p90_ms" in units and result["p90_samples_beyond"] < 10:
        print(f"{name}  note: only {result['p90_samples_beyond']} samples beyond p90")
    for message in result["messages"]:
        print(f"{name}  check failed: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, choices=(RUN_SECONDS,), default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "takahashi" / "__init__.py").is_file():
        print(f"no library to measure: {ROOT / 'src' / 'takahashi'} is missing",
              file=sys.stderr)
        return 2
    units = metric_units() if args.trace else END_TO_END_UNITS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        report(result, units)
        results.append(result)

    correct = all(r["correct"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = {m: {"value": results[0]["metrics"][m], "unit": u}
                              for m, u in units.items()}
    else:
        summary["workloads"] = {
            r["workload"]: {m: {"value": r["metrics"][m], "unit": u} for m, u in units.items()}
            for r in results}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
