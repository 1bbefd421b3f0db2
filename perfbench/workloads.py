"""One benchmark workload, run in its own process.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS TRACE

prints one JSON object with the run's counts, metrics and fingerprint.
``perfbench/run.py`` starts this file as a child process, one per
workload, so that the peak resident set and the import time belong to the
workload alone.

Every workload is a closed loop with a single client: one query at a time
on one thread, the next sent when the previous one is answered.  Each
query runs under a deadline; a query past it, one that raises, and one
whose answer disagrees with an independent route or a closed form all
count as failed, and enter the latency percentiles at the deadline, so
turning a timeout into a slow success never raises latency.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 40


class DeadlineExceeded(BaseException):
    """Raised inside a query that ran past its deadline.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


class Deadline:
    """Context manager that interrupts the block after ``seconds``."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._armed = False

    def _fire(self, signum, frame):
        if self._armed:
            raise DeadlineExceeded

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._armed = False
        signal.signal(signal.SIGALRM, self._previous)
        return False


def percentile(values: list[float], q: float) -> float:
    """q-quantile (0 <= q <= 1) by linear interpolation between order
    statistics, as ``statistics.quantiles(method="inclusive")``."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(values: list[float], q: float) -> int:
    """Number of samples strictly above the q-quantile.  A percentile is
    trustworthy when at least ten samples lie beyond it."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def int_bytes(*xs: int) -> bytes:
    """Length-prefixed two's-complement encoding of integers.

    Never decimal: group orders here outgrow Python's int-to-str limit.
    """
    out = bytearray()
    for x in xs:
        b = x.to_bytes(x.bit_length() // 8 + 1, "big", signed=True)
        out += len(b).to_bytes(4, "big") + b
    return bytes(out)


def group_key(spec, group) -> bytes:
    """Fingerprint entry for one answered query: spec, torsion, free rank."""
    return (int_bytes(spec.n, spec.pq.num, spec.pq.den, spec.rs.num, spec.rs.den)
            + int_bytes(len(group.torsion), *group.torsion, group.free_rank))


class Tally:
    """Outcome of a run: counts by status over every attempt, the time spent
    in queries, each query's attempts, and the result fingerprint.

    A query's latency is the median of its attempts in the run, a failed
    attempt entering at the deadline.  The median, not the lowest: on a
    shared machine a whole run can pass without one undisturbed moment,
    and the lowest attempt then swings from run to run far more than the
    median does.

    The fingerprint hashes the first answer of each query the workload
    names in ``fingerprinted``, in query order, so runs of any length over
    the same seed agree; a query never answered enters as a marker.
    """

    def __init__(self, workload):
        self.deadline = workload.deadline
        self.fingerprinted = workload.fingerprinted
        self.counts = {"ok": 0, "timeout": 0, "error": 0, "wrong": 0}
        self.attempts: dict[int, list[float]] = {}
        self.keys: dict[int, bytes] = {}
        self.messages: list[str] = []
        self.passes = 0
        self.busy = 0.0

    def record(self, index: int, seconds: float, status: str, key: bytes = b"",
               message: str = ""):
        self.busy += seconds
        if status == "ok" and seconds > self.deadline:
            status = "timeout"
        self.counts[status] += 1
        if status != "ok":
            seconds = self.deadline
        self.attempts.setdefault(index, []).append(seconds)
        if key and index in self.fingerprinted:
            self.keys.setdefault(index, key)
        if message and len(self.messages) < 5:
            self.messages.append(message)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def correct(self) -> bool:
        """No answer disagreed with its check and nothing raised."""
        return self.counts["wrong"] == 0 and self.counts["error"] == 0

    def latencies(self) -> list[float]:
        """Each attempted query's latency."""
        return [statistics.median(v) for v in self.attempts.values()]

    def queries_per_s(self) -> float:
        """Correct answers per second of the run's time spent in queries: the
        wall time of the closed loop, less what it spent between queries."""
        return self.counts["ok"] / self.busy

    def fingerprint(self) -> str:
        indices = [i for i in sorted(self.fingerprinted) if i in self.attempts]
        parts = (self.keys.get(i, b"\x00no-answer") for i in indices)
        digest = hashlib.sha256(b"".join(hashlib.sha256(k).digest() for k in parts))
        return f"{len(indices)}:{digest.hexdigest()[:32]}"


def run_query(workload, index: int, query, tally: Tally) -> None:
    """Run one query under the deadline, check it and record the outcome."""
    start = perf_counter()
    try:
        with Deadline(workload.deadline):
            answer = workload.run(query)
    except DeadlineExceeded:
        tally.record(index, perf_counter() - start, "timeout")
        return
    except Exception as exc:  # a failed query; the run goes on
        tally.record(index, perf_counter() - start, "error", message=f"{query!r}: {exc!r}")
        return
    seconds = perf_counter() - start
    problem = workload.check(query, answer)
    status = "wrong" if problem else "ok"
    tally.record(index, seconds, status, workload.key(query, answer), problem or "")


def closed_loop(workload, seconds: float, run=run_query, passes: int | None = None) -> Tally:
    """Send the queries one at a time, in passes over the whole list, until
    ``seconds`` have passed or ``passes`` passes are complete."""
    tally = Tally(workload)
    start = perf_counter()
    while perf_counter() - start < seconds and tally.passes != passes:
        for index, query in enumerate(workload.queries):
            if perf_counter() - start >= seconds:
                return tally
            run(workload, index, query, tally)
        tally.passes += 1
    return tally


def traced_loop(workload, seconds: float, tracer, passes: int | None = None
                ) -> tuple[Tally, Tally, float]:
    """Run each query twice, untraced then traced, for ``seconds``.

    The per-layer totals come from the traced runs.  Returns the untraced
    and the traced tally and the tracing overhead: traced over untraced
    wall time on the same queries, minus one.
    """
    plain = Tally(workload)
    wall = {"plain": 0.0, "traced": 0.0}

    def both(workload, index, query, traced):
        t0 = perf_counter()
        run_query(workload, index, query, plain)
        t1 = perf_counter()
        with tracer:
            run_query(workload, index, query, traced)
        wall["plain"] += t1 - t0
        wall["traced"] += perf_counter() - t1
        tracer.fold()

    traced = closed_loop(workload, seconds, run=both, passes=passes)
    return plain, traced, wall["traced"] / wall["plain"] - 1


def spread_order(m: int) -> list[int]:
    """0..m-1 in bit-reversed (van der Corput) order: every prefix samples
    the whole range evenly, so a run cut at any point saw a representative
    mix of sizes."""
    bits = max(1, (m - 1).bit_length())
    return sorted(range(m), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def _import(name: str):
    return importlib.import_module(f"takahashi.{name}")


class Paper:
    """The claims suite as every user runs it: ``verify-paper --json``."""

    why = ("The path every user runs: thousands of tiny matrices, where Word "
           "construction, free reduction and per-call overhead dominate. It barely "
           "touches large-entry Smith forms or big resultants, so a Smith-form-mod-D "
           "or Lucas change should leave it unchanged, while removing the Word "
           "detour should move it.")
    query = ("one in-process cli.main(['verify-paper', '--json']) pass with stdout "
             "captured; it must exit 0 and report 8 pass, 0 fail and 1 "
             "unverified-by-design")
    seed_argument = "unused: the claims suite has fixed inputs"
    deadline = 10.0
    fingerprinted = frozenset({0})
    expected_statuses = {"pass": 8, "fail": 0, "unverified-by-design": 1}

    def __init__(self, seed: int):
        self.cli = _import("cli")
        self.queries = [("verify-paper", "--json")]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(list(argv))
        return code, out.getvalue()

    def check(self, argv, answer):
        code, text = answer
        if code != 0:
            return f"verify-paper exited {code}"
        claims = json.loads(text)["claims"]
        counts = {status: 0 for status in self.expected_statuses}
        for claim in claims:
            counts[claim["status"]] = counts.get(claim["status"], 0) + 1
        if counts != self.expected_statuses:
            return f"claim statuses {counts}, expected {self.expected_statuses}"
        return None

    def key(self, argv, answer):
        claims = json.loads(answer[1])["claims"]
        return json.dumps(sorted((c["claimId"], c["status"], c["computed"])
                                 for c in claims)).encode()


# Reduced fractions p/q with 0 <= p <= 3 and |q| <= 3, infinity (1/0) and
# zero (0/1) included once each.
COEFFICIENTS = [(p, q) for p in range(4) for q in range(-3, 4)
                if math.gcd(p, q) == 1 and (p, q) != (0, -1)]


class General:
    """Random specs with small coefficients, up to the foot of the Smith-form cliff."""

    why = ("Seeded M_n(p/q, r/s) with entries bounded by 3 and n up to 30, where "
           "exactalg.smith_normal_form and the Bareiss determinant that confirms "
           "each order do nearly all the work, and the Smith form's entry growth "
           "shows as dominant queries: the slowest spec takes about a hundred "
           "times the median. About a quarter of the specs have free rank, so a "
           "determinant-bounded Smith form also shows what its D = 0 fallback "
           "costs.")
    query = ("h1_takahashi(spec) plus takahashi_determinant(spec): the order must "
             "equal |det|, and det = 0 exactly when the free rank is positive")
    seed_argument = ("--seed N seeds random.Random(N); n in [3, 30] is cut into 4 "
                     "bands of 7, and in each band the seed shuffles the 256 ordered "
                     "pairs of the 16 coefficients, pair i meeting the band's "
                     "(i mod 7)-th n in bit-reversed order; 1024 specs, bands "
                     "interleaved")
    # Every seed asks every pair of coefficients once in each band of n, so
    # seeds differ only in which n of a band each pair meets, and their costs
    # agree closely.  A thousand specs, not 256, because the seed-to-seed
    # spread of p50 and p90 falls with the number of specs.
    #
    # n stops at 30 so that no query fails: a run must give the same answers
    # each time, and from n = 31 on some specs take seconds to minutes in the
    # Smith form (M_31(3/2, -3); M_40(-2, 2/3): 217 s), so whether they beat
    # a deadline would depend on the machine.  perfbench/sweep.py reports
    # such specs as timeouts.  Every one of the 7168 specs this range can
    # draw was timed once: the slowest, M_26(3/2, 3), took 0.29 s against a
    # median of 2.2 ms, far inside the deadline.
    n_range = (3, 30)
    bands = 4
    deadline = 10.0
    # The first 256 queries enter the fingerprint: every run gets that far.
    fingerprinted = frozenset(range(256))

    def __init__(self, seed: int):
        exactalg, self.manifolds = _import("exactalg"), _import("manifolds")
        Rational, normalize = exactalg.Rational, self.manifolds.normalize_spec
        rng = random.Random(seed)
        lo, hi = self.n_range
        width = (hi - lo + 1) // self.bands
        columns = []
        for band in range(self.bands):
            ns = [lo + band * width + i for i in spread_order(width)]
            pairs = [(a, b) for a in COEFFICIENTS for b in COEFFICIENTS]
            rng.shuffle(pairs)
            columns.append([normalize(ns[i % width], Rational(*a), Rational(*b))
                            for i, (a, b) in enumerate(pairs)])
        # Interleaved, so that every prefix of the list, and so a run cut at
        # any point, holds each band and each n alike.
        self.queries = [spec for row in zip(*columns) for spec in row]

    def run(self, spec):
        m = self.manifolds
        return m.h1_takahashi(spec), m.takahashi_determinant(spec)

    def check(self, spec, answer):
        group, det = answer
        if det == 0:
            if group.free_rank == 0:
                return f"{spec}: det 0 but H_1 = {group} is finite"
        elif group.free_rank or group.order() != abs(det):
            return f"{spec}: |det| has {abs(det).bit_length()} bits, H_1 = {group}"
        return None

    def key(self, spec, answer):
        return group_key(spec, answer[0])


def lucas(k: int) -> int:
    """Lucas number L_k (L_0 = 2, L_1 = 1)."""
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# H_1(M_n(1, 1)) by n mod 6, as (torsion, free rank): the n-fold cyclic
# branched covers of the trefoil.
TREFOIL_H1 = {1: ((), 0), 2: ((3,), 0), 3: ((2, 2), 0), 4: ((3,), 0),
              5: ((), 0), 0: ((), 2)}


class Unit:
    """M_n(+-1, +-1): unit coefficients, every route, closed-form answers."""

    why = ("Seeded M_n(+-1, +-1) with n up to 160: entries stay +-1, so the time "
           "goes to O(n^3) Bareiss on the (n+2)-square Sylvester matrix, not to "
           "Smith-form explosion. The workload for a Lucas or companion-matrix "
           "route; covers infinite homology when 6 | n.")
    query = ("a certified H_1: h1_takahashi, h1_cyclic_route, representer_order, and "
             "branched_cover_homology and branched_cover_order over "
             "alexander_two_bridge(branch_knot(q, s)) must agree with each other "
             "and with the closed form (L_2n - 2 for qs = -1, the n mod 6 table "
             "for qs = 1)")
    seed_argument = ("--seed N seeds random.Random(N), which picks the two signs of "
                     "every query; n runs once through the ladder 4 + 156k // 99, "
                     "k = 0..99, in bit-reversed order")
    # A hundred queries, so that ten of them lie beyond p90; n stops at 160
    # so that a run makes about three passes and each query's latency is a
    # median of three.  The n-sweep goes on to n = 400.
    rungs = 100
    n_max = 160
    deadline = 10.0
    fingerprinted = frozenset(range(rungs))

    def __init__(self, seed: int):
        exactalg, self.manifolds = _import("exactalg"), _import("manifolds")
        self.knotkit = _import("knotkit")
        Rational, normalize = exactalg.Rational, self.manifolds.normalize_spec
        rng = random.Random(seed)
        self.queries = []
        # n is fixed, not seeded: the cost of a query changes by up to half
        # between neighbouring n, so a seeded n would make seeds disagree.
        # The ladder meets every residue mod 6 at least 16 times.
        for k in spread_order(self.rungs):
            n = 4 + k * (self.n_max - 4) // (self.rungs - 1)
            a, b = rng.choice((1, -1)), rng.choice((1, -1))
            expected = lucas(2 * n) - 2 if a * b < 0 else TREFOIL_H1[n % 6]
            self.queries.append((normalize(n, Rational(a, 1), Rational(b, 1)), expected))

    def run(self, query):
        m, k, spec = self.manifolds, self.knotkit, query[0]
        surgery = m.h1_takahashi(spec)
        cyclic = m.h1_cyclic_route(spec)
        representer = m.representer_order(spec)
        delta = k.alexander_two_bridge(m.branch_knot(spec.pq.den, spec.rs.den))
        cover = k.branched_cover_homology(delta, spec.n)
        cover_order = k.branched_cover_order(delta, spec.n)
        return surgery, cyclic, representer, cover, cover_order

    def check(self, query, answer):
        spec, expected = query
        surgery, cyclic, representer, cover, cover_order = answer
        if not surgery == cyclic == cover:
            return f"{spec}: surgery {surgery}, cyclic {cyclic}, cover {cover}"
        order = surgery.order()
        if (representer or None) != order or cover_order != order:
            return f"{spec}: resultant orders disagree with the Smith forms"
        if isinstance(expected, int):
            if order != expected:
                return f"{spec}: order is not L_2n - 2"
        elif (surgery.torsion, surgery.free_rank) != expected:
            return f"{spec}: H_1 = {surgery}, expected {expected} from n mod 6"
        return None

    def key(self, query, answer):
        return group_key(query[0], answer[0])


WORKLOADS = {"paper": Paper, "general": General, "unit": Unit}


def set_up(name: str, seed: int):
    """Import takahashi afresh and build the workload's inputs; returns the
    workload and the seconds it took."""
    for module in [m for m in sys.modules if m == "takahashi" or m.startswith("takahashi.")]:
        del sys.modules[module]
    # The copies set up before are garbage now; collect them outside the
    # timed part, so that neither set-up time nor the peak resident set
    # carries what a single import in a fresh process would not.
    gc.collect()
    start = perf_counter()
    importlib.import_module("takahashi")
    workload = WORKLOADS[name](seed)
    return workload, perf_counter() - start


class SpacedSetUps:
    """A closed-loop ``run`` that also sets the workload up afresh
    SETUP_REPEATS times, evenly spaced over the run, and sends every later
    query to the fresh copy.

    Set-up takes milliseconds, so set-ups made back to back all see the
    machine in one moment; spaced out, they see the same stretch of time as
    the queries.  The lowest of them is the least disturbed reading: load
    from elsewhere only slows a set-up down.  (Set-ups are short, so unlike
    a query, some set-up in a run nearly always meets a quiet moment.)
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed = name, seed
        self.interval = seconds / SETUP_REPEATS
        self.workload, took = set_up(name, seed)
        self.times = [took]
        self.start = perf_counter()

    def __call__(self, workload, index, query, tally):
        if perf_counter() - self.start >= self.interval * len(self.times):
            self.workload, took = set_up(self.name, self.seed)
            self.times.append(took)
        # The fresh copy's own query: its objects belong to the fresh modules.
        run_query(self.workload, index, self.workload.queries[index], tally)


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(SRC))
    workload, _ = set_up(name, seed)
    origin = Path(sys.modules["takahashi"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"takahashi was imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2

    if trace:
        tracer = Tracer()
        plain, tally, overhead = traced_loop(workload, seconds, tracer)
        correct = plain.correct and tally.correct
        messages = plain.messages + tally.messages
        metrics = dict(tracer.totals, **{"trace.overhead_frac": overhead})
    else:
        spaced = SpacedSetUps(name, seed, seconds)
        tally = closed_loop(spaced.workload, seconds, run=spaced)
        correct, messages = tally.correct, tally.messages
        lat = [1000 * s for s in tally.latencies()]
        metrics = {
            "setup_s": min(spaced.times),
            "queries_per_s": tally.queries_per_s(),
            "latency_p50_ms": percentile(lat, 0.5),
            "latency_p90_ms": percentile(lat, 0.9),
            "ok_frac": tally.counts["ok"] / tally.attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps({
        "workload": name,
        "seed": seed,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "counts": tally.counts,
        "messages": messages,
        "passes": tally.passes,
        "p90_samples_beyond": samples_beyond(tally.latencies(), 0.9),
        "fingerprint": tally.fingerprint(),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
