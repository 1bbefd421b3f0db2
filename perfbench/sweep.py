"""Per-layer n-sweep of the routes the planned speed-ups target.

    python3 perfbench/sweep.py [--out FILE]

Traced and not gated: each point runs one route on one spec under the
per-layer spans of perfbench/spans.py and a 5 s deadline, and reports its wall
time and the per-layer totals that moved.  A point past the deadline is
reported as a timeout with what it did until then.

- ``surgery``: h1_takahashi on M_n(3/2, 1/5), n = 100..150 in steps of
  10.  The Smith form's entry explosion makes some n take tens of seconds
  (130 and 150 at the baseline) while its neighbours take a fraction of one.
- ``representer``, ``cover``, ``cover_order``: representer_order,
  branched_cover_homology and branched_cover_order on the Fibonacci
  manifolds M_n(1, -1) up to n = 400, where the Sylvester-matrix Bareiss
  determinant grows as n^3.

A change to one of these layers quotes the sweep before and after.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from spans import Tracer  # noqa: E402
from workloads import Deadline, DeadlineExceeded  # noqa: E402

import takahashi  # noqa: E402
from takahashi import Rational, knotkit, manifolds  # noqa: E402

SWEEP_DEADLINE_S = 5.0


def _surgery(spec):
    return manifolds.h1_takahashi(spec)


def _representer(spec):
    return manifolds.representer_order(spec)


def _delta(spec):
    return knotkit.alexander_two_bridge(manifolds.branch_knot(spec.pq.den, spec.rs.den))


def _cover(spec):
    return knotkit.branched_cover_homology(_delta(spec), spec.n)


def _cover_order(spec):
    return knotkit.branched_cover_order(_delta(spec), spec.n)


SWEEPS = [
    ("surgery", (3, 2), (1, 5), range(100, 151, 10), _surgery),
    ("representer", (1, 1), (-1, 1), (50, 100, 200, 300, 400), _representer),
    ("cover", (1, 1), (-1, 1), (50, 100, 200, 300, 400), _cover),
    ("cover_order", (1, 1), (-1, 1), (50, 100, 200, 300, 400), _cover_order),
]


def sweep_point(route, spec, deadline: float) -> dict:
    tracer = Tracer()
    start = perf_counter()
    timed_out = False
    try:
        with tracer, Deadline(deadline):
            route(spec)
    except DeadlineExceeded:
        timed_out = True
    wall = perf_counter() - start
    tracer.fold()
    return {"wall_s": wall, "timed_out": timed_out,
            "layers": {k: v for k, v in tracer.totals.items() if v}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    points = []
    for name, pq, rs, ns, route in SWEEPS:
        for n in ns:
            spec = takahashi.normalize_spec(n, Rational(*pq), Rational(*rs))
            point = {"route": name, "spec": str(spec), "n": n,
                     **sweep_point(route, spec, SWEEP_DEADLINE_S)}
            points.append(point)
            smith = point["layers"].get("exactalg.smith_normal_form.s", 0.0)
            det = point["layers"].get("exactalg.determinant.s", 0.0)
            status = "timeout" if point["timed_out"] else "ok"
            print(f"{name:<12} {str(spec):<20} {status:<8} wall {point['wall_s']:8.3f} s  "
                  f"smith self {smith:8.3f} s  bareiss self {det:8.3f} s", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"deadline_s": SWEEP_DEADLINE_S, "points": points}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
