#!/usr/bin/env python3
"""Benchmark of cliquesub: the ratio sweep, the dense pipeline and colouring.

    python3 perfbench/run.py --workload sweep-gap --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  It makes the workload's inputs from the
seed, runs whole rounds of the workload's operations until they have taken
``--seconds`` in all, checks every output, and prints one JSON line: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
rounds on the same inputs; the difference of their median wall times is
``trace.overhead_s``.  Workloads and checks are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SETUPS, MIN_SETUP_S = 3, 1.0  # setup_s is the median of these set-ups


def load_workloads() -> dict:
    """Cap BLAS threads at the CPUs this process may use, put src/ on the
    path, then import the workloads (and with them numpy and cliquesub)."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.WORKLOADS


def output_dir() -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    return out


def measure(workload, inputs, seconds: float, traced: bool, instrument):
    """Whole rounds, as many as bring the operations' time nearest to
    ``seconds``: another round starts only while less than ``seconds`` minus
    half a mean round has been measured.  When ``traced``, odd rounds run with
    spans on.  Returns, per round, whether it was traced, its wall time, the
    main operation's times and the outputs."""
    rounds = []
    measured = 0.0
    while (
        not rounds
        or measured < seconds - measured / len(rounds) / 2
        or len(rounds) < (2 if traced else 1)
    ):
        tracing = traced and len(rounds) % 2 == 1
        instrument.install(spans.LAYERS if tracing else spans.CAPTURED)
        instrument.tracing = tracing
        instrument.captured = []
        wall, main_times, results = 0.0, [], []
        try:
            for name, op in workload.operations(inputs):
                start = perf_counter()
                result = op()
                elapsed = perf_counter() - start
                wall += elapsed
                if name == workload.main:
                    main_times.append(elapsed)
                results.append((name, workload.collect(inputs, result)))
        finally:
            instrument.tracing = False
            instrument.uninstall()
        rounds.append((tracing, wall, main_times, results, instrument.captured))
        measured += wall
    return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cliquesub benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cliquesub" / "__init__.py").is_file():
        print(f"no cliquesub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = load_workloads().get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out = output_dir()
    setup_times: list[float] = []
    while len(setup_times) < MIN_SETUPS or sum(setup_times) < MIN_SETUP_S:
        start = perf_counter()
        inputs = workload.setup(args.seed, out)
        setup_times.append(perf_counter() - start)
    instrument = spans.Instrument()
    rounds = measure(workload, inputs, args.seconds, bool(args.trace), instrument)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # everything below is outside the timed region and the memory peak
    ref = workload.reference(inputs)
    verdicts = [workload.check(inputs, ref, r[3], r[4]) for r in rounds]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    for problem in dict.fromkeys(p for v in verdicts for p in v.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    for tracing, wall, main_times, *_ in rounds:
        times = " ".join(f"{t:.3f}" for t in main_times)
        print(f"round traced={int(tracing)} wall={wall:.3f} {workload.main}: {times}", file=sys.stderr)

    if args.trace:
        walls = {t: [r[1] for r in rounds if r[0] == t] for t in (False, True)}
        stats = instrument.layer_stats(len(walls[True]))
        selfs = sorted((v, k) for k, v in stats.items() if k.endswith(".self_s"))
        for value, key in reversed(selfs):
            print(f"{key} {value:.4f}", file=sys.stderr)
        stats["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(
            walls[False]
        )
        built = stats.get("subdivision.build_subdivision.built", 0.0)
        calls = stats.get("subdivision.build_subdivision.calls", 0.0)
        stats["subdivision.build_subdivision.useful_ratio"] = built / calls if calls else 0.0
        chosen = spec["per_layer"]
    else:
        stats = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(t for r in rounds for t in r[2]),
            "peak_rss_mb": peak_rss_mb,
            "chi_lower_certified": statistics.median(v.chi_lower_certified for v in verdicts),
        }
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": stats.get(m["name"], 0.0), "unit": m["unit"]} for m in chosen}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
