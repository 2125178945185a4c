"""Spans around the calls into each gmotzkin module, recorded from outside.

The package is not modified: ``instrument`` replaces module attributes (the
public functions, and the names other modules imported them under) with
wrappers that open a span for the duration of the call.  A span is
``[name, start, end, parent]`` with times from ``time.perf_counter`` and
``parent`` the index of the enclosing span or -1.  Spans are kept in memory
and written out when the run ends.

The wrappers record only while ``Tracer.active`` is set, which the worker
sets around each timed call, so the checks that follow the timed calls
leave no spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Functions whose spans share one name, by span name.
CLOSED_FORMS = ("g_uvv_closed", "gbar_uvv_closed")
FIXED_POINT_COUNTS = ("f_closed", "f_recurrence", "fixed_point_sequences")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name_of):
        """``fn`` with a span per call while active; ``name_of(args)`` names it."""

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced


def patch(modules, attr: str, make) -> None:
    """Rebind ``attr`` to ``make(original)`` in ``modules[0]``, which defines
    it, and in every other module that imported the same function object.
    Nothing happens when ``modules[0]`` has no such attribute: the metrics
    of its spans then read 0."""
    original = getattr(modules[0], attr, None)
    if original is None:
        return
    replacement = make(original)
    for module in modules:
        if getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def spanned(tracer: Tracer, name: str, fn):
    """``fn`` with one span named ``name`` per call."""
    return tracer.wrap(fn, lambda a, k: name)


def instrument(tracer: Tracer, gm, with_bijection: bool) -> None:
    """Wrap the package's public entry points in spans and counters.

    ``with_bijection`` wraps ``sigma`` and ``sigma_inv`` too; it is left off
    for the batch workloads, which call them tens of thousands of times.
    """
    mods = [gm.polyring, gm.paths, gm.enumeration, gm.formulas, gm.series,
            gm.bijection, gm.verify, gm.cli, gm.render]

    def named(label):
        return lambda fn: spanned(tracer, label, fn)

    def counted_expand(expand):
        def run(kind, order):
            result = expand(kind, order)
            if tracer.active:
                tracer.counts["series.terms"] += sum(len(c) for c in result.coeffs)
            return result

        return tracer.wrap(run, lambda a, k: "series.expand." + str(a[0] if a else k["kind"]))

    def counted_generate(generate):
        def run(*args, **kwargs):
            paths = generate(*args, **kwargs)
            if not tracer.active:
                return paths
            return _count_into(tracer, "enumeration.paths", paths)

        return run

    patch([gm.series] + mods, "expand", counted_expand)
    patch([gm.enumeration] + mods, "generate", counted_generate)
    patch([gm.enumeration] + mods, "weight_sum", named("enumeration.weight_sum"))
    for name in CLOSED_FORMS:
        patch([gm.formulas] + mods, name, named("formulas.closed_forms"))
    for name in FIXED_POINT_COUNTS:
        patch([gm.formulas] + mods, name, named("formulas.fixed_point_counts"))
    patch([gm.cli], "main", named("cli.main"))
    patch([gm.paths] + mods, "parse_word", named("paths.parse_word"))
    for name in ("render_ascii", "render_svg"):
        patch([gm.render] + mods, name, named("render"))
    if with_bijection:
        for name in ("sigma", "sigma_inv"):
            patch([gm.bijection] + mods, name, named("bijection." + name))


def _count_into(tracer: Tracer, key: str, items):
    for item in items:
        tracer.counts[key] += 1
        yield item


def harness_class(verify, tracer: Tracer):
    """A ``verify.Harness`` subclass with a span around every call of a
    shared computation (``sums``, ``series``, ``sweep``), counting how many
    of those calls asked for a key already computed.  A computation the
    harness no longer has is left out."""
    base = verify.Harness
    seen: dict[str, set] = defaultdict(set)

    def shared(method, label):
        def run(self, *key):
            tracer.counts[f"verify.{label}.calls"] += 1
            if key in seen[label]:
                tracer.counts[f"verify.{label}.hits"] += 1
            seen[label].add(key)
            index = tracer.begin("verify." + label)
            try:
                return method(self, *key)
            finally:
                tracer.end(index)

        return run

    namespace = {label: shared(getattr(base, label), label)
                 for label in ("sums", "series", "sweep") if hasattr(base, label)}
    return type("BenchHarness", (base,), namespace)


def span_metrics(spans: list[list]) -> dict[str, dict]:
    """Per-layer times from the spans.

    ``<name>.s`` is the time spent inside spans of that name, counting a
    span nested in another of the same name once; ``<name>.self_s`` is that
    time minus the time of child spans; ``calls`` counts the spans.
    """
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] += end - start
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[0]] += 1
    return {"total": dict(total), "self": dict(self_time), "calls": dict(calls)}
