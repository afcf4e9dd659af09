"""Outside-in span recorder for the traced benchmark pass.

The recorder wraps public functions of the package from outside: every
module attribute bound to a wrapped function is replaced, because the
layers import kernel functions by name (``verify``, ``fusion``,
``rmatrix``, ``evaluation`` and ``kernel.tensor`` each hold their own
reference to ``tensor_compose``).  Spans stay in memory and are written
out once, when the pass ends.

A span is a list ``[id, name, start, end, parent, check, counts, rollup]``.
``parent`` is the id of the enclosing span in the same thread, ``check``
the identifier shared by all spans of one check.  ``LaurentPoly.__mul__``
runs millions of times on some workloads, so its calls are rolled up into
the enclosing span (``rollup[name] = [calls, seconds, term_products]``)
instead of each keeping a span.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "check", "counts", "rollup")
ID, NAME, START, END, PARENT, CHECK, COUNTS, ROLLUP = range(len(SPAN_FIELDS))

# (metric, unit, better): every per-layer metric a traced run reports
PER_LAYER = (
    ("kernel.compose.calls", "count", "lower"),
    ("kernel.compose.self_s", "s", "lower"),
    ("kernel.compose.term_products", "count", "lower"),
    ("kernel.compose.out_terms", "count", "lower"),
    ("kernel.compose.peak_terms", "count", "lower"),
    ("kernel.compose.yield", "ratio", "higher"),
    ("kernel.poly_mul.calls", "count", "lower"),
    ("kernel.poly_mul.self_s", "s", "lower"),
    ("kernel.poly_mul.term_products", "count", "lower"),
    ("kernel.embed.calls", "count", "lower"),
    ("kernel.embed.self_s", "s", "lower"),
    ("kernel.tau.calls", "count", "lower"),
    ("kernel.tau.self_s", "s", "lower"),
    ("kernel.substitute.calls", "count", "lower"),
    ("kernel.substitute.self_s", "s", "lower"),
    ("rmatrix.build.calls", "count", "lower"),
    ("rmatrix.build.self_s", "s", "lower"),
    ("fusion.fused_r.calls", "count", "lower"),
    ("fusion.fused_r.self_s", "s", "lower"),
    ("fusion.component.calls", "count", "lower"),
    ("fusion.component.self_s", "s", "lower"),
    ("fusion.component.terms", "count", "lower"),
    ("verify.check.calls", "count", "lower"),
    ("verify.check.s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.witness.bytes", "bytes", "lower"),
    ("evaluation.calls", "count", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("modes.expand.calls", "count", "lower"),
    ("modes.expand.self_s", "s", "lower"),
    ("modes.expand.relations", "count", "lower"),
    ("modes.rules.self_s", "s", "lower"),
    ("modes.rules.count", "count", "lower"),
    ("modes.normal_form.calls", "count", "lower"),
    ("modes.normal_form.self_s", "s", "lower"),
    ("modes.normal_form.words_in", "count", "lower"),
    ("modes.normal_form.words_out", "count", "lower"),
    ("modes.substitute.self_s", "s", "lower"),
    ("cli.run_suite.s", "s", "lower"),
    ("cli.check_s.sum", "s", "lower"),
    ("cli.checks", "count", "lower"),
    ("cli.cores_used", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Recorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._checks = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, counts=None, new_check=False):
        """Wrap fn so each call records a span; counts(result, *args)
        returns a dict of exact counts taken after the span closes."""
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if new_check:
                check = next(self._checks)
            else:
                check = parent[CHECK] if parent is not None else 0
            record = [next(self._ids), name, clock(), None,
                      parent[ID] if parent is not None else None, check, None, None]
            self.spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counts is not None:
                record[COUNTS] = counts(result, *args, **kwargs)
            return result

        return wrapper

    def leaf(self, name, fn, products):
        """Wrap a hot leaf function: calls, time and products(result, *args)
        accumulate on the enclosing span instead of opening a span each."""
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args):
            started = clock()
            result = fn(*args)
            elapsed = clock() - started
            if result is NotImplemented:
                return result
            stack = self._stack()
            if stack:
                owner = stack[-1]
            else:
                owner = [next(self._ids), "trace.orphans", started,
                         started + elapsed, None, 0, None, None]
                self.spans.append(owner)
            rollup = owner[ROLLUP]
            if rollup is None:
                rollup = owner[ROLLUP] = {}
            entry = rollup.get(name)
            if entry is None:
                entry = rollup[name] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += products(result, *args)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, handle)


def load_spans(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["spans"]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span id: duration minus the time its child spans and rolled-up
    leaf calls cover."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = {}
    for span in spans:
        rolled = sum(entry[1] for entry in (span[ROLLUP] or {}).values())
        covered = _covered(children.get(span[ID], ()), span[START], span[END])
        result[span[ID]] = span[END] - span[START] - covered - rolled
    return result


def _outermost(spans, name):
    """Spans called name with no ancestor of the same name."""
    by_id = {span[ID]: span for span in spans}
    chosen = []
    for span in spans:
        if span[NAME] != name:
            continue
        parent = by_id.get(span[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:
            chosen.append(span)
    return chosen


def layer_metrics(spans, cpu_s=0.0, wall_s=0.0):
    """Aggregate spans into the PER_LAYER metrics (without trace.overhead_s)."""
    own = self_times(spans)
    calls, self_s, counters, peaks = {}, {}, {}, {}
    for span in spans:
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[span[ID]]
        for key, value in (span[COUNTS] or {}).items():
            if key.startswith("peak_"):
                peaks[(name, key)] = max(peaks.get((name, key), 0), value)
            else:
                counters[(name, key)] = counters.get((name, key), 0) + value
        for leaf, (count, seconds, products) in (span[ROLLUP] or {}).items():
            calls[leaf] = calls.get(leaf, 0) + count
            self_s[leaf] = self_s.get(leaf, 0.0) + seconds
            key = (leaf, "term_products")
            counters[key] = counters.get(key, 0) + products

    def counter(name, key):
        return counters.get((name, key), 0)

    metrics = {}
    for name in ("kernel.compose", "kernel.poly_mul", "kernel.embed", "kernel.tau",
                 "kernel.substitute", "rmatrix.build", "fusion.fused_r",
                 "fusion.component", "modes.expand", "modes.normal_form"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("kernel.compose", "kernel.poly_mul"):
        metrics[f"{name}.term_products"] = counter(name, "term_products")
    metrics["kernel.compose.out_terms"] = counter("kernel.compose", "out_terms")
    metrics["kernel.compose.peak_terms"] = peaks.get(("kernel.compose", "peak_terms"), 0)
    products = metrics["kernel.compose.term_products"]
    metrics["kernel.compose.yield"] = (
        metrics["kernel.compose.out_terms"] / products if products else 0.0
    )
    metrics["fusion.component.terms"] = counter("fusion.component", "terms")
    metrics["verify.check.calls"] = calls.get("verify.check", 0)
    metrics["verify.check.s"] = sum(
        span[END] - span[START] for span in _outermost(spans, "verify.check")
    )
    metrics["verify.self_s"] = self_s.get("verify.check", 0.0)
    metrics["verify.witness.bytes"] = sum(
        value for (_name, key), value in counters.items() if key == "witness_bytes"
    )
    metrics["evaluation.calls"] = calls.get("evaluation", 0)
    metrics["evaluation.self_s"] = self_s.get("evaluation", 0.0)
    metrics["modes.expand.relations"] = counter("modes.expand", "relations")
    metrics["modes.rules.self_s"] = self_s.get("modes.rules", 0.0)
    metrics["modes.rules.count"] = counter("modes.rules", "rules")
    metrics["modes.normal_form.words_in"] = counter("modes.normal_form", "words_in")
    metrics["modes.normal_form.words_out"] = counter("modes.normal_form", "words_out")
    metrics["modes.substitute.self_s"] = self_s.get("modes.substitute", 0.0)
    metrics["cli.run_suite.s"] = sum(
        span[END] - span[START] for span in _outermost(spans, "cli.run_suite")
    )
    metrics["cli.check_s.sum"] = sum(
        span[END] - span[START] for span in spans if span[NAME] == "cli.check"
    )
    metrics["cli.checks"] = calls.get("cli.check", 0)
    metrics["cli.cores_used"] = cpu_s / wall_s if wall_s else 0.0
    return metrics


# -- what to wrap --------------------------------------------------------------


def _compose_counts(result, a, b):
    row_terms = {}
    for (row, _col), poly in b.entries.items():
        row_terms[row] = row_terms.get(row, 0) + len(poly.terms)
    products = sum(
        len(poly.terms) * row_terms.get(mid, 0) for (_row, mid), poly in a.entries.items()
    )
    out = sum(len(poly.terms) for poly in result.entries.values())
    return {"term_products": products, "out_terms": out, "peak_terms": out}


def _mul_products(result, a, b):
    return len(a.terms) * len(b.terms) if hasattr(b, "terms") else len(a.terms)


def _component_terms(result, *args, **kwargs):
    return {"terms": sum(len(poly.terms) for poly in result.entries.values())}


def _check_counts(report, *args, **kwargs):
    if report.witness is None:
        return None
    return {"witness_bytes": len(json.dumps(report.witness, sort_keys=True))}


def _relation_count(result, *args, **kwargs):
    return {"relations": len(result)}


def _rule_count(result, *args, **kwargs):
    return {"rules": len(result.rules)}


def _normal_form_counts(result, p, rs):
    return {"words_in": len(p.terms), "words_out": len(result.terms)}


def _targets():
    """(span name, function, counts) for every function the tracer wraps."""
    from reflection_workbench import cli, evaluation, fusion, modes, rmatrix, verify
    from reflection_workbench.kernel import tensor

    targets = [
        ("kernel.compose", tensor.tensor_compose, _compose_counts),
        ("kernel.embed", tensor.embed_legs, None),
        ("kernel.tau", tensor.tau_on_leg, None),
        ("kernel.substitute", tensor.op_substitute, None),
        ("fusion.component", fusion.fused_s, _component_terms),
        ("modes.expand", modes.expand_relation, _relation_count),
        ("modes.rules", modes.derive_rules, _rule_count),
        ("modes.normal_form", modes.normal_form, _normal_form_counts),
        ("modes.substitute", modes.substitute_gens, None),
        ("modes.embedding", modes.verify_twisted_embedding, _check_counts),
        ("cli.run_suite", cli.run_suite, None),
    ]
    for fn in (rmatrix.flip_p, rmatrix.yang_r, rmatrix.yang_r_bar, rmatrix.r_primes,
               rmatrix.zeta_factor, rmatrix.breve_r_series):
        targets.append(("rmatrix.build", fn, None))
    for fn in (fusion.fused_r, fusion.fused_r_prime_flipped, fusion.breve_product,
               fusion.fused_breve):
        targets.append(("fusion.fused_r", fn, None))
    for name in sorted(vars(verify)):
        if name.startswith("check_"):
            targets.append(("verify.check", getattr(verify, name), _check_counts))
    for fn in (evaluation.eval_t, evaluation.build_twisted_s, evaluation.eval_double,
               evaluation.check_double_relations, evaluation.pairing_series,
               evaluation.coaction_image):
        targets.append(("evaluation", fn, _check_counts
                        if fn is evaluation.check_double_relations else None))
    return targets


def install(recorder, modules):
    """Wrap every target in every module that binds it by name, plus
    RFamily.build, LaurentPoly multiplication and the CLI check runners."""
    import dataclasses

    from reflection_workbench import cli
    from reflection_workbench.kernel.laurent import LaurentPoly
    from reflection_workbench.rmatrix import RFamily

    replacements = {}
    for name, fn, counts in _targets():
        replacements[id(fn)] = (fn, recorder.span(name, fn, counts))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    build = RFamily.build
    RFamily.build = staticmethod(recorder.span("rmatrix.build", build))
    mul = recorder.leaf("kernel.poly_mul", LaurentPoly.__mul__, _mul_products)
    LaurentPoly.__mul__ = mul
    LaurentPoly.__rmul__ = mul
    for name, spec in list(cli.REGISTRY.items()):
        runner = recorder.span("cli.check", spec.runner, new_check=True)
        cli.REGISTRY[name] = dataclasses.replace(spec, runner=runner)
