"""Report assembly: classification plus empirical corroboration for every
ground-truth row, serialized deterministically to JSON/CSV/text.

Rows are independent and pure, so they may be computed by a worker pool; the
document is always assembled in table order, which makes the output bytes
independent of the worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .criteria import CriterionReport, LadderConfig, VerdictTag, classify
# compactness_probe and lower_bound_details are bound only for perfbench's tracer
from .estimation import (build_battery, compactness_probe, estimate_row,  # noqa: F401
                         lower_bound_details, tg_min_upper_bound)
from .errors import HypothesisError
from .operators import OperatorKind
from .spaces import SpacePair
from .symbols import DEFAULT_DEGREE, GroundTruthRow, get_symbol, ground_truth_table

CSV_HEADER = ["symbol", "op", "alpha", "beta", "verdict", "value",
              "lower", "upper", "probe_exp", "agree"]

WORKERS_ENV = "VOLTERRA_WORKERS"


@dataclass(frozen=True)
class ReportConfig:
    k_max: int = 40
    # printed as the JSON report's config.n_angles and read by nothing else:
    # every angular sup is taken on a peak ray
    n_angles: int = 512
    degree: int = DEFAULT_DEGREE
    probe_n_max: int = 64

    def ladder(self) -> LadderConfig:
        return LadderConfig(k_max=self.k_max)

    def resolve_workers(self) -> int:
        """Row workers: ``WORKERS_ENV`` when set, else the machine's CPU count."""
        env = os.environ.get(WORKERS_ENV, "")
        if env.strip():
            return max(1, int(env))
        return os.cpu_count() or 1


def _verdict_payload(v) -> dict:
    return {
        "tag": v.tag.value,
        "value": v.value,
        "evidence": list(v.evidence),
        "reason": v.reason,
    }


def _row_result(row: GroundTruthRow, cfg: ReportConfig, battery) -> dict:
    symbol = get_symbol(row.symbol)
    pair = SpacePair(row.alpha, row.beta)
    ladder_cfg = cfg.ladder()
    rep: CriterionReport = classify(symbol, row.operator, pair, ladder_cfg)

    lower, probe = estimate_row(symbol.taylor(cfg.degree), row.operator, pair, battery,
                                cfg.probe_n_max)
    upper = None
    if row.operator is OperatorKind.Tg:
        try:
            upper = tg_min_upper_bound(symbol, pair, ladder_cfg, rep.tg_engine)[0]
        except HypothesisError:
            upper = None

    b, c = rep.boundedness, rep.compactness
    inconclusive = not (b.decided and c.decided)
    tags_match = b.tag.value == row.boundedness and c.tag.value == row.compactness
    value_ok = True
    if row.value is not None:
        value_ok = b.value is not None and abs(b.value - row.value) <= (row.value_tol or 1e-3)
    match = bool(tags_match and value_ok)
    # probes corroborate only: a Compact verdict with a clearly non-decaying
    # trace is flagged as a diagnostic, never used to flip the verdict
    probe_contradiction = bool(
        c.tag is VerdictTag.COMPACT
        and probe.decay_exponent > 0.0
        and probe.final_value > 0.1 * max(probe.values[0], 1e-300))

    return {
        "symbol": row.symbol,
        "op": row.operator.value,
        "alpha": row.alpha,
        "beta": row.beta,
        "boundedness": _verdict_payload(b),
        "compactness": _verdict_payload(c),
        "value": b.value,
        "lower_bound": lower.value,
        "lower_bound_witness": lower.best_label,
        "upper_bound": upper,
        "probe_exponent": probe.decay_exponent,
        "probe_final": probe.final_value,
        "probe_contradiction": probe_contradiction,
        "cross_check_agreement": rep.cross_check_agreement,
        "expected": {
            "boundedness": row.boundedness,
            "compactness": row.compactness,
            "value": row.value,
            "value_tol": row.value_tol,
            "justification": row.justification,
        },
        "match": match,
        "inconclusive": inconclusive,
        "notes": list(rep.notes),
    }


def build_report(cfg: Optional[ReportConfig] = None) -> dict:
    """Classify and probe every ground-truth row; returns the report document."""
    cfg = cfg or ReportConfig()
    rows = ground_truth_table()
    batteries = {}
    for row in rows:
        if row.alpha not in batteries:
            batteries[row.alpha] = build_battery(row.alpha, cfg.degree)
    workers = cfg.resolve_workers()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda r: _row_result(r, cfg, batteries[r.alpha]), rows))
    else:
        results = [_row_result(r, cfg, batteries[r.alpha]) for r in rows]

    disagreements = [r["symbol"] + "/" + r["op"] for r in results
                     if not r["match"] and not r["inconclusive"]]
    inconclusive = [r["symbol"] + "/" + r["op"] for r in results if r["inconclusive"]]
    return {
        "config": {
            "k_max": cfg.k_max,
            "n_angles": cfg.n_angles,
            "degree": cfg.degree,
            "probe_n_max": cfg.probe_n_max,
        },
        "rows": results,
        "summary": {
            "rows": len(results),
            "matches": sum(1 for r in results if r["match"]),
            "disagreements": disagreements,
            "inconclusive": inconclusive,
        },
    }


def report_exit_code(doc: dict) -> int:
    if doc["summary"]["disagreements"]:
        return 1
    if doc["summary"]["inconclusive"]:
        return 2
    return 0


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in doc["rows"]:
        verdict = f"{r['boundedness']['tag']}+{r['compactness']['tag']}"
        writer.writerow([
            r["symbol"], r["op"], _fmt(float(r["alpha"])), _fmt(float(r["beta"])),
            verdict, _fmt(r["value"]), _fmt(r["lower_bound"]), _fmt(r["upper_bound"]),
            _fmt(r["probe_exponent"]), "true" if r["match"] else "false",
        ])
    return buf.getvalue()


def to_text(doc: dict) -> str:
    lines = []
    head = f"{'symbol':<10} {'op':<3} {'alpha':>5} {'beta':>5} {'verdict':<24} " \
           f"{'value':>12} {'lower':>12} {'upper':>12} {'probe':>8} agree"
    lines.append(head)
    lines.append("-" * len(head))
    for r in doc["rows"]:
        verdict = f"{r['boundedness']['tag']}+{r['compactness']['tag']}"

        def num(x, w=12, p=6):
            return f"{x:>{w}.{p}g}" if isinstance(x, float) else " " * w
        lines.append(
            f"{r['symbol']:<10} {r['op']:<3} {r['alpha']:>5.2f} {r['beta']:>5.2f} "
            f"{verdict:<24} {num(r['value'])} {num(r['lower_bound'])} "
            f"{num(r['upper_bound'])} {num(r['probe_exponent'], 8, 3)} "
            f"{'yes' if r['match'] else 'NO'}")
    s = doc["summary"]
    lines.append(f"rows={s['rows']} matches={s['matches']} "
                 f"disagreements={len(s['disagreements'])} inconclusive={len(s['inconclusive'])}")
    for name in s["disagreements"]:
        lines.append(f"  disagreement: {name}")
    for name in s["inconclusive"]:
        lines.append(f"  inconclusive: {name}")
    return "\n".join(lines) + "\n"
