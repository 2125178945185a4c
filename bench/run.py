"""Benchmark of the gmotzkin package: one workload, one run.

    python3 bench/run.py --workload verify|sweep|queries --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Every repetition runs in a fresh interpreter (``worker.py``), so it starts
with cold package caches, and performs the same operations in the same
order.  Times are corrected for the speed of the shared host (``speed.py``):
an operation's latency is the median over the repetitions of its cost, its
time in units of a reference job run around and during it, times REF_MS.
A run makes ``--seconds`` divided by the workload's REP_SECONDS
repetitions, at least MIN_REPS: the count depends on ``--seconds`` alone.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it makes one untraced and one traced repetition and
reports the per-layer metrics, the tracing overhead among them; the spans
are written to ``.bench_out/``.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment and what the metrics were computed from.  Exit status 0
means the run completed, whether or not every answer was right; any other
status means no result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 80
MIN_REPS = 3
# Seconds one repetition takes, with its interpreter start and its checks,
# on the machine of the baseline (see README.md) when other tenants keep it
# busy; when they do not, a run ends early.
REP_SECONDS = {"verify": 2.8, "sweep": 3.2, "queries": 2.2}
REP_TIMEOUT_S = 170
TAIL_PERCENTILES = (90, 95, 98, 99, 99.5, 99.9)
SERIES_KINDS = ("G", "G_uvv", "G_uvu", "T", "Gbar_uvv", "F", "A")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def interpreter_start(env: dict) -> float:
    """Cost of one interpreter start plus ``import gmotzkin``, in units of the
    reference job read before and after it (``speed.cost``).

    ``-S`` skips the site hooks of the Python installation, which the
    package does not need and which made up a noisy third of the time.  No
    timeout: with one, ``subprocess`` polls for the exit in steps of up to
    50 ms, and the time read would be rounded up to the next step.
    """
    before = speed.read()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "import gmotzkin"], env=env, cwd=ROOT,
                   check=True)
    elapsed = time.perf_counter() - start
    return speed.cost(elapsed, [before, speed.read()])


def repetition(workload: str, trace: int, stream: str, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--trace", str(trace)],
        input=stream, capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it, or the maximum."""
    ordered = sorted(samples)
    pct = 100.0
    for candidate in TAIL_PERCENTILES:
        if len(ordered) * (100 - candidate) / 100 >= 10:
            pct = candidate
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return pct, ordered[rank - 1], len(ordered) - rank


def latencies(reps: list[dict]) -> list[float]:
    """Each operation's latency in ms: the median of its cost over the
    repetitions, times REF_MS."""
    if len({len(rep["costs"]) for rep in reps}) != 1:
        raise RuntimeError("repetitions ran different numbers of operations")
    return [statistics.median(costs) * speed.REF_MS
            for costs in zip(*(rep["costs"] for rep in reps))]


def end_to_end(workload: str, reps: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run.

    ``wall_s`` sums the operations' latencies.  A query is one operation of
    ``queries``; for ``verify`` and ``sweep`` the user waits for the whole
    job, so the latency sample is the job itself (its criteria are
    operations too, and per-layer metrics).  The report gives the median
    latency of each kind of operation.
    """
    best = latencies(reps)
    labels = reps[0]["labels"]
    samples = best if workload == "queries" else [sum(best)]
    by_label: dict[str, list[float]] = {}
    for label, ms in zip(labels, best):
        by_label.setdefault(label, []).append(ms)
    pct, tail_ms, beyond = tail(samples)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    metrics = {
        "setup_s": statistics.median(setup) * speed.REF_MS / 1000,
        "wall_s": sum(best) / 1000,
        "latency_p50_ms": statistics.median(samples),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }
    extra = {
        "repetitions": len(reps),
        # Uncorrected, and how much slower than REF_MS the host ran.
        "wall_s_each": [rep["wall_s"] for rep in reps],
        "host_slowdown_each": [rep["wall_s"] / (sum(rep["costs"]) * speed.REF_MS / 1000)
                               for rep in reps],
        "setup_cost_each": setup,
        "latency_samples": len(samples),
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latency_p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "failed_ratio": failed / attempted,
    }
    return metrics, extra


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: dict, untraced: dict) -> dict:
    spans = tracing.span_metrics(traced["spans"])
    total, own, calls = spans["total"], spans["self"], spans["calls"]
    counts = traced["counts"]
    metrics = {}
    for k in range(1, 10):
        metrics[f"verify.criterion_{k}.s"] = total.get(f"verify.criterion_{k}", 0.0)
        metrics[f"verify.criterion_{k}.self_s"] = own.get(f"verify.criterion_{k}", 0.0)
    for label in ("sums", "series", "sweep"):
        metrics[f"verify.{label}.s"] = total.get(f"verify.{label}", 0.0)
    for label in ("sums", "series"):
        metrics[f"verify.{label}.hit_ratio"] = _ratio(
            counts.get(f"verify.{label}.hits", 0), counts.get(f"verify.{label}.calls", 0))
    for kind in SERIES_KINDS:
        metrics[f"series.expand.{kind}.s"] = total.get(f"series.expand.{kind}", 0.0)
    metrics["series.terms"] = counts.get("series.terms", 0)
    for name in ("sigma", "sigma_inv"):
        prefix = f"bijection.{name}"
        hits, misses = counts.get(f"{prefix}.cache_hits", 0), counts.get(f"{prefix}.cache_misses", 0)
        metrics[f"{prefix}.s"] = total.get(prefix, 0.0)
        metrics[f"{prefix}.calls"] = calls.get(prefix, 0)
        metrics[f"{prefix}.cache_hit_ratio"] = _ratio(hits, hits + misses)
        metrics[f"{prefix}.cache_misses"] = misses
        metrics[f"{prefix}.cache_evictions"] = counts.get(f"{prefix}.cache_evictions", 0)
    metrics["enumeration.paths"] = counts.get("enumeration.paths", 0)
    for name in ("enumeration.weight_sum", "formulas.closed_forms",
                 "formulas.fixed_point_counts", "paths.parse_word", "cli.main", "render"):
        metrics[f"{name}.s"] = total.get(name, 0.0)
    metrics["cli.self.s"] = own.get("cli.main", 0.0)
    metrics["ops"] = counts["ops"]
    # Corrected for the host's speed as the end-to-end times are; the traced
    # calls are read only before and after, as nothing may run inside them.
    metrics["trace.overhead_s"] = (
        (sum(traced["costs"]) - sum(untraced["costs"])) * speed.REF_MS / 1000)
    return metrics


def code_hash() -> str:
    """Digest of the package and benchmark sources, naming this version."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def count_mismatches(reps: list[dict], record: Path) -> list[str]:
    """Exact counts that differ between repetitions or from an earlier run.

    Runs of the same code, workload and seed are recorded in ``record``; a
    count seen there must come out the same again.
    """
    problems = []
    merged: dict[str, int] = {}
    for rep in reps:
        for key, value in rep["counts"].items():
            if merged.setdefault(key, value) != value:
                problems.append(f"{key}: {merged[key]} in one repetition, {value} in another")
    earlier = json.loads(record.read_text()) if record.exists() else {}
    for key, value in merged.items():
        if earlier.get(key, value) != value:
            problems.append(f"{key}: {value} now, {earlier[key]} in an earlier run")
    if not problems:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({**earlier, **merged}, indent=1, sort_keys=True))
    return problems


def git_commit() -> str:
    """The commit checked out, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "code": code_hash(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=REP_SECONDS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "gmotzkin" / "__init__.py").is_file() or not spec_file.is_file():
        return fail(f"no gmotzkin sources under {SRC} or no {spec_file.name}; "
                    "run from the root of a gmotzkin checkout")
    spec = json.loads(spec_file.read_text())
    # Every child caches its bytecode, as an installed package does, whatever
    # the caller's environment says (the first start, not counted, writes
    # it), and hashes strings the same way in every run.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    stream = ""
    if args.workload == "queries":
        sys.path.insert(0, str(SRC))
        import gmotzkin

        stream = json.dumps(queries.build(args.seed, gmotzkin))

    try:
        if args.trace:
            untraced = repetition(args.workload, 0, stream, env)
            traced = repetition(args.workload, 1, stream, env)
            reps = [untraced, traced]
            metrics = per_layer(traced, untraced)
            wanted = spec["per_layer"]
        else:
            count = max(MIN_REPS, round(args.seconds / REP_SECONDS[args.workload]))
            interpreter_start(env)  # compiles the bytecode; not counted
            setup, reps = [], []
            for _ in range(count):
                # Set-up is timed between the repetitions, so that its median
                # samples the whole run and not one moment of it.
                setup += [interpreter_start(env) for _ in range(-(-SETUP_STARTS // count))]
                reps.append(repetition(args.workload, 0, stream, env))
            metrics, extra = end_to_end(args.workload, reps, setup)
            wanted = spec["end_to_end"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))

    record = OUT / "counts" / f"{code_hash()}-{args.workload}-seed{args.seed}.json"
    mismatches = count_mismatches(reps, record)
    failures = [f for rep in reps for f in rep["failures"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "counts": reps[-1]["counts"],
        "count_mismatches": mismatches,
        "failures": failures[:10],
    }
    if args.trace:
        report["trace_overhead_s"] = metrics["trace.overhead_s"]
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"report": report, "spans": traced["spans"]}))
        report["spans_file"] = str(trace_file.relative_to(ROOT))
    else:
        report.update(extra)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
