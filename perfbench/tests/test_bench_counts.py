"""Checks of the benchmark itself: traced counts repeat exactly for a seed, and
the metric names agree with BENCHMARK.json.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from spans import COUNT_METRICS, LAYER_METRICS, metric_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a small report configuration keeps the report-table case to a few seconds;
# the count check does not depend on the configuration
SMALL_REPORT = ("report", "--format", "json", "--kmax", "4", "--angles", "64",
                "--degree", "16", "--probe-nmax", "16")


def _traced_counts(name, seed, n_ops):
    wl = WORKLOADS[name](seed)
    if name == "report-table":
        wl.argv = SMALL_REPORT
    ops = next(wl.rounds())[:n_ops]
    wl.rounds = lambda: iter([ops])
    _, metrics = run.run_traced(wl, seed)
    return {k: metrics[k]["value"] for k in COUNT_METRICS}


@pytest.mark.parametrize("name,n_ops,reached", [
    ("report-table", 1, "series.horner_madds"),
    ("classify-grid", 2, "criteria.ladder.calls"),
    ("sector-lemma2", 1, "sector.density_points"),
])
def test_traced_counts_repeat_exactly(name, n_ops, reached):
    first = _traced_counts(name, 7, n_ops)
    second = _traced_counts(name, 7, n_ops)
    assert first == second
    assert first[reached] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, metric_unit(name), better) for name, better in LAYER_METRICS]
    tally = run.Tally()
    tally.latency, tally.rate_seconds, tally.rate_work = [1.0, 2.0, 3.0], [1.0], 5
    tally.attempted = 3
    printed = run.end_to_end(WORKLOADS["sector-lemma2"](0), tally, 0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in printed.items()}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 12)]) == (9, 1.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)
