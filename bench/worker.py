"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload verify|sweep|queries --trace 0|1

``run.py`` starts this script once per repetition, so every repetition
begins with cold package caches, as a command-line user does.  The request
stream for ``queries`` arrives as JSON on stdin.  The last line of stdout is
one JSON object with the repetition's timings, counts and failures, and with
``--trace 1`` its spans.

An operation is one call the benchmark makes into the package's public
interface: a criterion of ``verify.Harness``, or one query.  Its time, and
its cost in units of the reference job of ``speed.py``, are read around
that call only, so the measurement does not depend on how the package is
built inside.  Answers are checked after the last timed call, so that no
check warms a cache a later timed call uses.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import queries
import speed
import tracing

import gmotzkin
import gmotzkin.cli
from gmotzkin import bijection, verify

SRC = Path(__file__).resolve().parent.parent / "src"

# The jobs are pinned here so that a change of the package defaults does not
# change what is measured.  They are smaller than `gmotzkin verify` at its
# defaults (max_n 8, series order 30: 14 to 27 s) and the sweep for n <= 9
# (8 to 15 s), so that a run repeats each about ten times and takes the
# median of the operations' costs over them.  Series work still dominates
# `verify`, and enumeration and sigma still dominate `sweep`.
VERIFY_BOUNDS = {"max_n": 6, "series_order": 20}
SWEEP_MAX_N = 8
# The criteria each job runs, in order; `verify` runs what `run_all` runs.
CRITERIA = {
    "verify": [f"criterion_{k}" for k in range(1, 10)],
    "sweep": ["criterion_4", "criterion_6"],
}


def cache_counts() -> dict[str, int]:
    """Hits, misses and evictions of the sigma and sigma_inv LRU caches,
    or none when the package no longer has them."""
    out = {}
    for name in ("sigma", "sigma_inv"):
        info = getattr(getattr(bijection, "_" + name, None), "cache_info", None)
        if info is None:
            continue
        info = info()
        out[f"bijection.{name}.cache_hits"] = info.hits
        out[f"bijection.{name}.cache_misses"] = info.misses
        out[f"bijection.{name}.cache_evictions"] = info.misses - info.currsize
    return out


def timed(tracer, meter, call, *args):
    """(answer, error, ms, cost) of one operation; see ``speed.Meter.run``."""
    if tracer:
        tracer.active = True
    try:
        return meter.run(call, *args)
    finally:
        if tracer:
            tracer.active = False


def run_harness(workload: str, tracer, meter) -> dict:
    harness_cls = tracing.harness_class(verify, tracer) if tracer else verify.Harness
    if workload == "verify":
        harness = harness_cls(**VERIFY_BOUNDS)
    else:
        harness = harness_cls(max_n=SWEEP_MAX_N)
    ops, costs, failures = [], [], []
    for name in CRITERIA[workload]:
        call = getattr(harness, name)
        if tracer:
            call = tracing.spanned(tracer, "verify." + name, call)
        result, error, elapsed, cost = timed(tracer, meter, call)
        ops.append(elapsed)
        costs.append(cost)
        if error is None and not result.ok:
            error = result.line()
        if error:
            failures.append(f"{name}: {error}")
    return {"ops": ops, "costs": costs, "labels": CRITERIA[workload],
            "failures": failures, "counts": cache_counts()}


def run_queries(stream: list[dict], tracer, meter) -> dict:
    ops, costs, answers = [], [], []
    for query in stream:
        answer, error, elapsed, cost = timed(tracer, meter, queries.run, gmotzkin, query)
        answers.append((answer, error))
        ops.append(elapsed)
        costs.append(cost)
    counts = cache_counts()
    failures = []
    for query, (answer, error) in zip(stream, answers):
        if error is None:
            try:
                error = queries.check(gmotzkin, query, answer)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"[:300]
        if error:
            failures.append(f"{query['op']}: {error}")
    labels = [f"{query['op']}/{query['via']}" for query in stream]
    return {"ops": ops, "costs": costs, "labels": labels, "failures": failures,
            "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("verify", "sweep", "queries"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if Path(gmotzkin.__file__).resolve().parent.parent != SRC:
        print(f"gmotzkin imported from {gmotzkin.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, gmotzkin, with_bijection=args.workload == "queries")
    # Nothing runs inside a traced call but the package, so that its spans
    # hold only the package's time.
    meter = speed.Meter(sampling=not args.trace)
    if args.workload == "queries":
        result = run_queries(json.load(sys.stdin), tracer, meter)
    else:
        result = run_harness(args.workload, tracer, meter)
    result["attempted"] = len(result["ops"])
    result["failed"] = len(result["failures"])
    result["wall_s"] = sum(result["ops"]) / 1000
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["counts"]["ops"] = result["attempted"]
    if tracer:
        result["spans"] = tracer.spans
        result["counts"].update(tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
