"""Benchmark of the volterra classifier.

Run from the repository root (no install needed; ``src/`` is put on the path):

    python3 perfbench/run.py --workload report-table --seed 1 --seconds 20 --trace 0

Workloads: ``report-table``, ``classify-grid``, ``sector-lemma2`` (see
``workloads.py`` and ``BENCHMARK.json``).  Every operation is checked; a wrong
or failed one counts into ``failed``.

``--trace 0`` times whole rounds of operations until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` runs the first
round only, each operation once untraced and once with every layer wrapped in
spans, and reports per-layer metrics per operation plus the tracing overhead
(traced minus untraced time, as a share of untraced); spans are written to
``.bench_build/perfbench/``.

Standard output logs every drawn input, then human-readable metric lines,
and ends with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up (imports and input generation) in a fresh process
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that only import and draw inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which quantizes the measured time
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(wl, op):
    """Execute and check one operation; returns ``(result, seconds, errors)``."""
    t0 = time.perf_counter()
    try:
        result = wl.execute(op)
    except Exception:
        return None, time.perf_counter() - t0, [traceback.format_exc(limit=4)]
    seconds = time.perf_counter() - t0
    try:
        errors = wl.check(op, result)
    except Exception:
        errors = [traceback.format_exc(limit=4)]
    return result, seconds, errors


def _log(index, wl, op, seconds, errors, note=""):
    status = "ok" if not errors else "FAILED " + " | ".join(e.strip() for e in errors)
    print(f"op={index} {wl.describe(op)} seconds={seconds:.6f}{note} {status}", flush=True)


def tail(values):
    """``(percentile, value)`` at the highest integer percentile with at least
    10 samples beyond it; the maximum when there are fewer than 11 samples."""
    s, n = sorted(values), len(values)
    for p in range(99, 0, -1):
        k = -(-p * n // 100)
        if n - k >= 10:
            return p, s[k - 1]
    return 100, s[-1]


class Tally:
    """Timings, work and verdict counts of the executed operations."""

    def __init__(self):
        self.attempted = self.failed = self.decided = self.verdicts = 0
        self.latency, self.rate_seconds, self.rate_work = [], [], 0

    def add(self, wl, op, result, seconds, errors):
        self.attempted += 1
        self.failed += bool(errors)
        if result is None:
            return
        if wl.latency_op(op):
            self.latency.append(seconds)
        if wl.rate_op(op):
            self.rate_seconds.append(seconds)
            self.rate_work += wl.work(op)
        d, v = wl.verdicts(op, result)
        self.decided += d
        self.verdicts += v


def run_timed(wl, seconds: float) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    index = 0
    for ops in wl.rounds():
        for op in ops:
            result, dt, errors = run_op(wl, op)
            _log(index, wl, op, dt, errors)
            tally.add(wl, op, result, dt, errors)
            index += 1
        if time.perf_counter() - start >= seconds:
            return tally


def run_traced(wl, seed: int):
    from spans import Recorder, instrumented, layer_metrics, write_spans
    rec = Recorder()
    tally = Tally()
    plain_total = traced_total = 0.0
    ops = next(wl.rounds())
    for index, op in enumerate(ops):
        runs = {}
        # alternate which pass goes first so warm-up does not bias the overhead
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                rec.group = str(index)
                with instrumented(rec):
                    runs[traced] = run_op(wl, op)
            else:
                runs[traced] = run_op(wl, op)
        (plain, plain_s, plain_err), (result, dt, errors) = runs[False], runs[True]
        errors = plain_err + errors
        if plain is not None and result is not None and \
                wl.fingerprint(plain) != wl.fingerprint(result):
            errors.append("tracing changed the result")
        plain_total += plain_s
        traced_total += dt
        _log(index, wl, op, dt, errors, note=f" untraced_seconds={plain_s:.6f}")
        tally.add(wl, op, result, dt, errors)
    write_spans(rec, SPAN_DIR / f"spans-{wl.name}-{seed}.jsonl")
    overhead = (traced_total - plain_total) / plain_total
    print(f"tracing overhead: {traced_total - plain_total:.4f} s over {plain_total:.4f} s "
          f"untraced ({overhead:+.2%}), {len(rec.spans)} spans", flush=True)
    return tally, layer_metrics(rec, len(ops), overhead)


def end_to_end(wl, tally: Tally, setup_s: float) -> dict:
    p, tail_s = tail(tally.latency)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(tally.latency), "s"),
        "op_tail_s": (tail_s, "s"),
        "work_per_s": (tally.rate_work / sum(tally.rate_seconds), "1/s"),
    }
    print(f"latency samples: {len(tally.latency)}, tail at p{p}", flush=True)
    named = dict(wl.named_metrics(metrics, tally, p))
    named["peak_rss_mb"] = (peak_mb, "MB")
    if tally.verdicts:
        named["decided_ratio"] = (tally.decided / tally.verdicts, "ratio")
    named["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
    for name, (value, unit) in list(metrics.items()) + list(named.items()):
        print(f"{name} = {value:.6g} {unit}", flush=True)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "volterra" / "__init__.py").is_file():
        print(f"perfbench: no volterra package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        next(WORKLOADS[args.workload](args.seed).rounds())
        return 0
    wl = WORKLOADS[args.workload](args.seed)
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
          flush=True)
    if args.trace:
        tally, metrics = run_traced(wl, args.seed)
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}", flush=True)
    else:
        setup_s = measure_setup(args)
        tally = run_timed(wl, args.seconds)
        if not tally.latency or not tally.rate_seconds:
            print("perfbench: no operation completed", file=sys.stderr)
            return 1
        metrics = end_to_end(wl, tally, setup_s)
    print(f"attempted={tally.attempted} failed={tally.failed}", flush=True)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
