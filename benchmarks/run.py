"""Benchmark runner for cfx: one workload, one process, one thread, a closed loop.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload exact-deep --seed 1 --seconds 25 --trace 0

cfx is imported from ``src/`` of the checkout, nowhere else.  The runner

1. times the set-up (import cfx and build the inputs from the seed) in
   ``SETUP_SAMPLES`` fresh child processes, one after another, and keeps the
   median;
2. runs passes over the workload's items, one caller waiting for each call,
   until another pass would end after ``--seconds``;
3. checks every output outside the timed region: the first pass against
   mpmath built-ins or a reference recurrence, every later pass against the
   first (exact values and printed text must be identical);
4. prints each metric by name with its unit, the result digest, the
   failures, and as the last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes (averages per pass) and the spans go to
``benchmarks/out/``.

``correct`` is false when any answer is wrong: a value, an exit code, a
report count, or a pass that differs from the first.  ``attempted`` is the
number of items in the seed's input set and ``failed`` the number of those
that failed a check in any pass, including items whose printed value is right
but whose own ``oracle_delta`` self-check exceeds its tolerance.  Both depend
on the seed only, not on how many passes fit in ``--seconds``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from tracing import Tracer, cfx_modules
from workloads import WORKLOADS, WRONG

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 9

END_TO_END_UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    """cfx is not importable from this checkout's ``src/``."""


def import_cfx():
    """cfx's modules, imported from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import cfx.cli
    except ImportError as exc:
        raise MissingProgram(f"cannot import cfx from {SRC}: {exc}") from exc
    if Path(cfx.__file__).resolve().parent != SRC / "cfx":
        raise MissingProgram(f"cfx was imported from {cfx.__file__}, not from {SRC}")
    return types.SimpleNamespace(engine=cfx.engine, families=cfx.families, cli=cfx.cli)


def setup_probe(workload, seed, smoke) -> float:
    """Seconds to import cfx and build the inputs, in this (fresh) process."""
    start = time.perf_counter()
    import_cfx()
    workload.inputs(seed, smoke)
    return time.perf_counter() - start


def setup_samples(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise MissingProgram(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_pass(workload, cfx, items, tracer=None):
    """(seconds, per-item seconds, outputs) of one pass over every item."""
    latencies, outputs = [], []
    gc.collect()  # start every pass with the same collector state
    perf = time.perf_counter
    pass_start = perf()
    for index, item in enumerate(items):
        start = perf()
        if tracer is None:
            output = workload.run(cfx, item)
        else:
            output = tracer.run_item(index, workload.run, cfx, item)
        latencies.append(perf() - start)
        outputs.append(output)
    return perf() - pass_start, latencies, outputs


def measure(workload_name, seed, seconds, trace, smoke, setup):
    """Run one workload; returns (result object, report lines).

    ``setup`` holds the set-up samples; it is not used with tracing.
    """
    workload = WORKLOADS[workload_name]
    cfx = import_cfx()
    items = workload.inputs(seed, smoke)
    tracer = Tracer(cfx_modules()) if trace else None

    plain_times, traced_times, latencies = [], [], []
    first_keys = None
    first_outputs = None
    repeat_failures = []  # (pass number, item index)
    passes = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install()
            try:
                seconds_taken, lat, outputs = run_pass(
                    workload, cfx, items, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else plain_times).append(seconds_taken)
            if not traced:
                latencies += lat
            keys = [_key(workload, item, out) for item, out in zip(items, outputs)]
            if first_keys is None:
                first_keys, first_outputs = keys, outputs
            else:
                repeat_failures += [(passes, i) for i, (a, b) in enumerate(zip(first_keys, keys))
                                    if a != b]
            passes += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = {i: check_output(workload, item, out)
                for i, (item, out) in enumerate(zip(items, first_outputs))}
    failing_items = [i for i, p in problems.items() if p]
    # One attempt per item of the seed's input set, however many passes the
    # time allowed: the counts then depend on the seed alone.
    attempted = len(items)
    failed = len(set(failing_items) | {i for _, i in repeat_failures})
    correct = not repeat_failures and not any(
        kind == WRONG for p in problems.values() for kind, _ in p)
    digest = hashlib.sha256("\n".join(first_keys).encode()).hexdigest()

    lines = [f"workload {workload_name} seed {seed} trace {int(trace)}: {passes} passes of "
             f"{len(items)} items, {len(latencies)} latency samples",
             "  pass seconds: " + " ".join(f"{t:.3f}" for t in plain_times)
             + (" | traced: " + " ".join(f"{t:.3f}" for t in traced_times) if trace else "")]
    if trace:
        overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1
        metrics = tracer.metrics(len(traced_times), overhead)
        tracer.write_spans(HERE / "out" / f"spans-{workload_name}-seed{seed}.jsonl")
    else:
        values = {
            "wall_s": statistics.median(plain_times),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p95_ms": 1000 * _percentile95(latencies),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    lines.append(f"  digest sha256:{digest}")
    for i in failing_items:
        for kind, message in problems[i]:
            lines.append(f"  FAILED [{kind}] {message}")
    for pass_no, i in repeat_failures[:10]:
        lines.append(f"  FAILED [{WRONG}] pass {pass_no} differs from pass 0: {items[i].label}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def _key(workload, item, output):
    try:
        return workload.key(item, output)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"{item.label} unreadable output ({exc!r})"


def check_output(workload, item, output):
    """The workload's check; output it cannot read is a wrong answer."""
    try:
        return workload.check(item, output)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [(WRONG, f"{item.label}: unreadable output ({exc!r})")]


def _percentile95(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            print(setup_probe(workload, args.seed, args.smoke))
            return 0
        setup = None if args.trace else setup_samples(args)
        result, lines = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.smoke, setup)
    except MissingProgram as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
