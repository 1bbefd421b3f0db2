"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py [--workloads paper,general,unit] [--seeds 1-10]
                                [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every metric its median, quartiles and spread: the distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``.  With ``--out`` it also writes the
runs and the summary as JSON, together with why each workload was chosen,
what one query is and how the seed shapes the inputs.  A later change quotes these
numbers before and after, measured with identical settings on both commits.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import RUN_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="paper,general,unit")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    doc = {"python": platform.python_version(), "cpu": cpu_model(),
           "seconds": RUN_SECONDS, "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            fingerprint = next((ln.split("fingerprint=")[1] for ln in lines
                                if "fingerprint=" in ln), None)
            if not lines or not lines[-1].startswith("{"):
                print(f"{name} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "fingerprint": fingerprint,
                         "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: attempted={result['attempted']} "
                  f"failed={result['failed']} fingerprint={fingerprint}", flush=True)
        if len(runs) < 2:
            continue
        units = {m: v["unit"] for m, v in result["metrics"].items()}
        summary = {m: dict(summarise([r["metrics"][m] for r in runs]), unit=units[m])
                   for m in units}
        w = WORKLOADS[name]
        doc["workloads"][name] = {"why": w.why, "query": w.query,
                                  "seed_argument": w.seed_argument, "deadline_s": w.deadline,
                                  "runs": runs, "summary": summary}
        for m, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{name}  {m:<44} median {s['median']:>12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
