"""Per-layer spans recorded from outside the library.

The library has no instrumentation of its own, so the benchmark wraps the
public functions of each module and records one span per call: name,
start, end and parent span.  Every binding of a wrapped function across
the ``takahashi`` package namespaces is replaced, so a call through
``manifolds.determinant`` or ``knotkit.poly_divmod`` is caught as well as
one through the defining module.  Spans are kept in memory for one query
at a time and folded into per-layer totals when the query ends.

A layer's self time is its span's duration minus the time its child spans
cover.  Calls run on one thread and nest, so child spans never overlap and
their coverage is the sum of their durations.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Functions wrapped, by defining module.  A function that a later change
# removes is skipped and reports zero calls.
LAYERS = {
    "exactalg": ("smith_normal_form", "determinant", "resultant", "poly_divmod"),
    "grouppres": ("takahashi_presentation", "cyclic_presentation", "abelianize",
                  "relator_identity_check"),
    "knotkit": ("alexander_two_bridge", "alexander_from_braid3",
                "branched_cover_homology", "branched_cover_order"),
    "manifolds": ("h1_takahashi", "h1_cyclic_route", "representer_order",
                  "takahashi_determinant", "cross_check_prop4", "symmetry_check"),
    "claims": ("run_claims",),
    "cli": ("main",),
}

# Layers that report only self time: their call count is one per query.
_SELF_TIME_ONLY = {"claims.run_claims", "cli.main"}


def _smith_counts(args, result):
    m = args[0]
    return {"exactalg.smith_normal_form.cells": m.nrows * m.ncols,
            "exactalg.smith_normal_form.out_bits":
                sum(d.bit_length() for d in result.invariant_factors)}


def _determinant_counts(args, result):
    m = args[0]
    return {"exactalg.determinant.cells": m.nrows * m.ncols}


def _resultant_counts(args, result):
    f, g = args[0], args[1]
    if f.is_zero or g.is_zero:
        return {}
    return {"exactalg.resultant.dim": f.degree + g.degree}


def _letter_counts(args, result):
    return {"grouppres.letters": sum(len(r.letters) for r in result.relators)}


# Counts taken from a call's arguments and result, keyed by layer.  The
# letters of both presentation builders go to one grouppres-wide counter.
_COUNTERS = {
    "exactalg.smith_normal_form": _smith_counts,
    "exactalg.determinant": _determinant_counts,
    "exactalg.resultant": _resultant_counts,
    "grouppres.takahashi_presentation": _letter_counts,
    "grouppres.cyclic_presentation": _letter_counts,
}

# Metrics beyond .s and .calls, with their units.
_EXTRA_UNITS = {
    "exactalg.smith_normal_form.cells": "count",
    "exactalg.smith_normal_form.max_call_s": "s",
    "exactalg.smith_normal_form.out_bits": "bits",
    "exactalg.determinant.cells": "count",
    "exactalg.resultant.dim": "count",
    "grouppres.letters": "count",
    "trace.overhead_frac": "frac",
}

# Which end-to-end metric, on which workload, each layer metric should move.
LAYER_TARGETS = {
    "exactalg.smith_normal_form.{s,calls,cells,max_call_s,out_bits}":
        "general: queries_per_s, latency_p90_ms, ok_frac, peak_rss_mib; "
        "little movement expected on unit and paper",
    "exactalg.determinant.{s,calls,cells}, exactalg.resultant.{s,calls,dim}":
        "unit: queries_per_s, latency_p90_ms; on general the determinant that "
        "confirms each order also takes more self time than the Smith form",
    "exactalg.poly_divmod, knotkit.branched_cover_homology, knotkit.branched_cover_order":
        "unit: latency_p90_ms; they also run in the paper P4 grid",
    "grouppres.{takahashi_presentation,cyclic_presentation,abelianize,"
    "relator_identity_check}, grouppres.letters":
        "paper: latency_p50_ms; also unit at small n",
    "knotkit.alexander_two_bridge, knotkit.alexander_from_braid3":
        "paper only; tiny, a floor check",
    "manifolds.*.{s,calls}":
        "self time of composition; near zero, a rise means composition overhead",
    "claims.run_claims.s, cli.main.s":
        "paper: latency_p50_ms (JSON and formatting)",
    "trace.overhead_frac":
        "traced wall time against untraced wall time on the same queries",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for module, funcs in LAYERS.items():
        for func in funcs:
            layer = f"{module}.{func}"
            units[f"{layer}.s"] = "s"
            if layer not in _SELF_TIME_ONLY:
                units[f"{layer}.calls"] = "count"
    return {**units, **_EXTRA_UNITS}


def self_times(spans: list[tuple[str, float, float, int] | None]) -> list[float]:
    """Self time of each span (name, start, end, parent index or -1).

    A slot left None by a span that never closed counts for nothing.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    return [0.0 if span is None else (span[2] - span[1]) - covered[i]
            for i, span in enumerate(spans)]


class Tracer:
    """Wraps the functions in LAYERS while installed (``with tracer:``).

    ``spans`` holds the spans of the current query; ``fold`` moves them
    into the per-layer totals and clears them.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.totals = {name: 0 for name in metric_units() if name != "trace.overhead_frac"}
        self._stack: list[int] = []
        self._patches = []
        modules = [m for name, m in sys.modules.items()
                   if name == "takahashi" or name.startswith("takahashi.")]
        for module, funcs in LAYERS.items():
            defining = sys.modules.get(f"takahashi.{module}")
            for func in funcs:
                original = getattr(defining, func, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(layer)
        totals = self.totals

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            if counter is not None:
                try:
                    counts = counter(args, result)
                except (AttributeError, TypeError, IndexError):
                    counts = {}  # a later change altered the signature
                for key, value in counts.items():
                    totals[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        return False

    def fold(self) -> None:
        """Add the current query's spans to the totals and clear them."""
        spans = self.spans
        for span, own in zip(spans, self_times(spans)):
            if span is None:
                continue
            layer, start, end, _ = span
            self.totals[f"{layer}.s"] += own
            if layer not in _SELF_TIME_ONLY:
                self.totals[f"{layer}.calls"] += 1
            if layer == "exactalg.smith_normal_form":
                key = f"{layer}.max_call_s"
                self.totals[key] = max(self.totals[key], end - start)
        spans.clear()
        self._stack.clear()
