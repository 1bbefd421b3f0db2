"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from takahashi import BigIntMatrix, Rational, exactalg, knotkit, manifolds, normalize_spec  # noqa: E402


class Sleeper:
    """Fake workload: each query sleeps for the given seconds."""

    deadline = 0.05
    fingerprinted = frozenset(range(10))

    def __init__(self, delays):
        self.queries = delays

    def run(self, delay):
        time.sleep(delay)
        return delay

    def check(self, delay, answer):
        return None

    def key(self, delay, answer):
        return workloads.int_bytes(int(delay * 1000))


def test_query_past_deadline_fails_and_run_continues():
    started = time.perf_counter()
    tally = workloads.closed_loop(Sleeper([0.0, 5.0, 0.0]), 60, passes=1)
    assert time.perf_counter() - started < 2
    assert tally.counts == {"ok": 2, "timeout": 1, "error": 0, "wrong": 0}
    assert tally.attempted == 3 and tally.failed == 1 and tally.correct
    assert tally.attempts[1] == [Sleeper.deadline]
    assert tally.passes == 1


def test_raising_query_fails_and_run_continues():
    class Raiser(Sleeper):
        def run(self, delay):
            if delay:
                raise ValueError("boom")
            return delay

    tally = workloads.closed_loop(Raiser([1.0, 0.0]), 60, passes=1)
    assert tally.counts == {"ok": 1, "timeout": 0, "error": 1, "wrong": 0}
    assert not tally.correct
    assert tally.attempts[0] == [Sleeper.deadline]


def test_passes_repeat_the_queries_until_time_is_up():
    tally = workloads.closed_loop(Sleeper([0.0, 0.001]), seconds=0.2)
    assert tally.passes >= 2
    assert tally.counts["ok"] >= 4
    assert len(tally.latencies()) == 2 and tally.latencies()[1] >= 0.001
    assert tally.fingerprint().startswith("2:")


def test_median_attempt_and_first_answer_count():
    class Flaky(Sleeper):
        """Query 0 runs past the deadline on its first attempt only."""

        def __init__(self):
            super().__init__([0.002, 0.001])
            self.attempts = 0

        def run(self, delay):
            self.attempts += 1
            time.sleep(5.0 if self.attempts == 1 else delay)
            return delay

    flaky = Flaky()
    tally = workloads.closed_loop(flaky, 60, passes=3)
    assert tally.counts == {"ok": 5, "timeout": 1, "error": 0, "wrong": 0}
    assert tally.attempts[0][0] == Sleeper.deadline
    assert 0.002 <= tally.latencies()[0] < Sleeper.deadline
    steady = workloads.closed_loop(Sleeper([0.002, 0.001]), 60, passes=1)
    assert tally.fingerprint() == steady.fingerprint()


def test_throughput_is_correct_answers_per_second_in_queries():
    tally = workloads.closed_loop(Sleeper([0.01, 0.01]), 60, passes=2)
    assert tally.busy == pytest.approx(0.04, rel=0.5)
    assert tally.queries_per_s() == pytest.approx(100, rel=0.5)
    # a timed-out query adds its time but no answer
    tally = workloads.closed_loop(Sleeper([0.01, 5.0]), 60, passes=1)
    assert tally.queries_per_s() == pytest.approx(1 / 0.06, rel=0.5)


def test_spread_order_is_a_balanced_permutation():
    assert workloads.spread_order(8) == [0, 4, 2, 6, 1, 5, 3, 7]
    order = workloads.spread_order(63)
    assert sorted(order) == list(range(63))
    assert max(order[:8]) - min(order[:8]) > 40


def test_percentile_rule():
    values = [float(v) for v in range(1, 101)]
    for q in (0.25, 0.5, 0.9):
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        assert workloads.percentile(values, q) == pytest.approx(cuts[round(q * 100) - 1])
    assert workloads.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert workloads.percentile([5.0], 0.9) == 5.0
    # ten samples beyond p90 need about a hundred samples
    assert workloads.samples_beyond(values, 0.9) == 10
    assert workloads.samples_beyond(values[:33], 0.9) == 4


def test_self_time_arithmetic():
    recorded = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 8.0, 2),
        None,  # a span that never closed
        ("e", 11.0, 12.5, -1),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 2.0, 2.0, 0.0, 1.5]


@pytest.fixture
def tracer():
    return spans.Tracer()


def test_one_h1_call_gives_one_smith_span_below_it(tracer):
    spec = normalize_spec(5, Rational(3, 2), Rational(1, 5))
    with tracer:
        manifolds.h1_takahashi(spec)
    recorded = tracer.spans
    smith = [i for i, s in enumerate(recorded) if s[0] == "exactalg.smith_normal_form"]
    assert len(smith) == 1
    ancestors = []
    i = recorded[smith[0]][3]
    while i >= 0:
        ancestors.append(recorded[i][0])
        i = recorded[i][3]
    assert ancestors[-1] == "manifolds.h1_takahashi"
    tracer.fold()
    assert tracer.totals["exactalg.smith_normal_form.calls"] == 1
    assert tracer.totals["exactalg.smith_normal_form.cells"] == 100
    assert tracer.totals["manifolds.h1_takahashi.calls"] == 1
    assert tracer.spans == []


def test_every_binding_is_wrapped_and_restored(tracer):
    originals = (knotkit.poly_divmod, manifolds.determinant, exactalg.smith_normal_form)
    with tracer:
        assert knotkit.poly_divmod.__wrapped__ is originals[0]
        assert manifolds.determinant.__wrapped__ is originals[1]
        assert sys.modules["takahashi"].smith_normal_form.__wrapped__ is originals[2]
        exactalg.cokernel(BigIntMatrix.diagonal([2, 3]))
    assert [s[0] for s in tracer.spans] == ["exactalg.smith_normal_form"]
    assert (knotkit.poly_divmod, manifolds.determinant, exactalg.smith_normal_form) == originals


def test_function_no_longer_present_reports_zero_calls(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "exactalg", spans.LAYERS["exactalg"] + ("gone",))
    tracer = spans.Tracer()
    with tracer:
        manifolds.h1_takahashi(normalize_spec(2, Rational(1, 1), Rational(1, 1)))
    tracer.fold()
    assert tracer.totals["exactalg.gone.calls"] == 0
    assert tracer.totals["exactalg.gone.s"] == 0


def test_int_bytes_handles_orders_past_the_str_limit():
    big = 3 ** 20000  # over 4300 decimal digits
    assert workloads.int_bytes(big) != workloads.int_bytes(big + 1)
    assert workloads.int_bytes(-1) != workloads.int_bytes(255)


def test_closed_forms():
    assert [workloads.lucas(k) for k in range(7)] == [2, 1, 3, 4, 7, 11, 18]
    for n in range(1, 13):
        group = manifolds.h1_takahashi(normalize_spec(n, Rational(1, 1), Rational(1, 1)))
        assert (group.torsion, group.free_rank) == workloads.TREFOIL_H1[n % 6]


@pytest.mark.parametrize("name", ["general", "unit"])
def test_true_answers_pass_and_injected_wrong_answer_fails(name):
    workload = workloads.WORKLOADS[name](seed=7)
    workload.queries = [q for q in workload.queries
                        if (q if name == "general" else q[0]).n <= 20][:8]
    tally = workloads.closed_loop(workload, 600, passes=1)
    assert tally.counts["ok"] == 8 and tally.correct

    honest = workload.run

    def corrupted(query):
        answer = honest(query)
        return answer[:-1] + (answer[-1] + 1,) if name == "general" else \
            answer[:2] + ((answer[2] or 0) + 1,) + answer[3:]

    workload.run = corrupted
    tally = workloads.closed_loop(workload, 600, passes=1)
    assert tally.counts["wrong"] == 8 and not tally.correct
    assert tally.failed == 8


def test_fingerprint_same_traced_and_untraced(tracer):
    workload = workloads.General(seed=3)
    workload.queries = [q for q in workload.queries[:200] if q.n <= 20]
    workload.fingerprinted = frozenset(range(len(workload.queries)))
    untraced = workloads.closed_loop(workload, 600, passes=1)
    plain, traced, overhead = workloads.traced_loop(workload, 600, tracer, passes=1)
    assert untraced.fingerprint() == plain.fingerprint() == traced.fingerprint()
    assert untraced.fingerprint().startswith(f"{len(workload.queries)}:")
    assert tracer.totals["manifolds.h1_takahashi.calls"] == len(workload.queries)
    assert overhead > -1


def test_spaced_set_ups_switch_to_the_fresh_copy(monkeypatch):
    # set-up imports takahashi afresh; give the other tests their modules back
    for name in [m for m in sys.modules if m.split(".")[0] == "takahashi"]:
        monkeypatch.setitem(sys.modules, name, sys.modules[name])
    spaced = workloads.SpacedSetUps("general", 2, seconds=1.0)
    first = spaced.workload
    tally = workloads.closed_loop(first, 1.0, run=spaced)
    assert len(spaced.times) >= 3 and spaced.workload is not first
    assert tally.correct and tally.counts["ok"] > 0
