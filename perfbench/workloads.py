"""The benchmark's three workloads: inputs drawn from a seed, one operation, and
the correctness gate applied to every operation.

Each workload yields its operations in rounds.  A timed run executes whole
rounds until the requested seconds have passed; a traced run executes the
first round only, so its counts repeat exactly for a seed.  Every workload is
closed-loop with one caller: an operation starts when the previous one
returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

WEIGHTS = (0.0, 0.5, 1.0, 2.0)


def _hex_list(values) -> str:
    return "[" + ",".join(float(v).hex() for v in values) + "]"


class Workload:
    """Defaults shared by the workloads; ``end_to_end`` in run.py reads these."""

    def latency_op(self, op) -> bool:
        """Whether the operation's wall time enters ``op_p50_s`` and ``op_tail_s``."""
        return True

    def rate_op(self, op) -> bool:
        """Whether the operation enters ``work_per_s``."""
        return True

    def verdicts(self, op, result):
        """``(decided, total)`` verdict counts of one result."""
        return 0, 0

    def named_metrics(self, metrics: dict, tally, percentile: int):
        """The generic metrics under this workload's own names."""
        return []


# ---------------------------------------------------------------------------
# report-table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRun:
    workers: int

    @property
    def serial(self) -> bool:
        return self.workers == 1


class ReportTable(Workload):
    """``volterra report --format json`` in-process, at 1 and at nproc workers.

    The input is the fixed ground-truth table, so the seed does not apply.
    """

    name = "report-table"
    argv = ("report", "--format", "json")

    def __init__(self, seed: int):
        from volterra import cli, report, symbols
        self._cli = cli
        self._workers_env = report.WORKERS_ENV
        self.rows = len(symbols.ground_truth_table())
        self.workers = os.cpu_count() or 1
        self._schema = None
        self._serial_payload = None

    def rounds(self):
        while True:
            yield [ReportRun(1), ReportRun(self.workers)]

    def describe(self, op: ReportRun) -> str:
        return f"report argv={list(self.argv)} {self._workers_env}={op.workers}"

    def execute(self, op: ReportRun):
        previous = os.environ.get(self._workers_env)
        os.environ[self._workers_env] = str(op.workers)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self._cli.main(list(self.argv))
        finally:
            if previous is None:
                del os.environ[self._workers_env]
            else:
                os.environ[self._workers_env] = previous
        return code, out.getvalue()

    def check(self, op: ReportRun, result) -> list:
        import jsonschema
        code, payload = result
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        doc = json.loads(payload)
        bad = [f"{r['symbol']}/{r['op']}/{r['alpha']:g}/{r['beta']:g}"
               for r in doc["rows"] if not r["match"]]
        if bad or len(doc["rows"]) != self.rows:
            errors.append(f"rows not matching the ground truth: {bad}")
        if self._schema is None:
            path = Path(self._cli.__file__).parent / "data" / "report_schema.json"
            self._schema = json.loads(path.read_text())
        try:
            jsonschema.validate(doc, self._schema)
        except jsonschema.ValidationError as exc:
            errors.append(f"schema: {exc.message}")
        if op.serial:
            self._serial_payload = payload
        elif payload != self._serial_payload:
            errors.append("report bytes differ between 1 and "
                          f"{op.workers} workers")
        return errors

    def work(self, op: ReportRun) -> int:
        return self.rows

    def latency_op(self, op: ReportRun) -> bool:
        return op.serial

    def rate_op(self, op: ReportRun) -> bool:
        return not op.serial

    def fingerprint(self, result):
        return result

    def named_metrics(self, metrics, tally, percentile):
        par = tally.rate_seconds
        return [("report_s", metrics["op_p50_s"]),
                ("report_par_s", (statistics.median(par), "s")),
                ("report_workers", (self.workers, "count"))]

    def verdicts(self, op: ReportRun, result):
        doc = json.loads(result[1])
        tags = [r[k]["tag"] for r in doc["rows"] for k in ("boundedness", "compactness")]
        return sum(t != "Inconclusive" for t in tags), len(tags)


# ---------------------------------------------------------------------------
# classify-grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    symbol: str
    op: str
    alpha: float
    beta: float
    rotations: tuple  # composed rotation angles, applied in order

    @property
    def base(self) -> tuple:
        return (self.symbol, self.op, self.alpha, self.beta)


def base_cells(names) -> list:
    """The fixed set of unrotated cells classified in every round.

    Every ground-truth cell, plus two cells per (symbol, operator) from a
    Latin arrangement of the weight grid: for symbol index k, weight indices
    ``a in {k % 4, (k + 1) % 4}`` and ``b = (-a - k) % 4``.  Every alpha and
    every beta then appears, a third of the cells have an unweighted target,
    and every criterion branch is reached: the forwarded Sg cell at
    alpha = beta = 0, Sg with alpha > 0 and beta = 0 (ladder plus zero-symbol
    rule), Sg with alpha = 0 and beta > 0 (pointwise only), and both operators
    with alpha, beta > 0.  The set is fixed rather than drawn, because cell
    cost spans 0.05-3 s and a drawn subset of the grid moves the median and
    tail by more than the benchmark's bounds.
    """
    from volterra.symbols import ground_truth_table
    cells = [(r.symbol, r.operator.value, float(r.alpha), float(r.beta))
             for r in ground_truth_table()]
    for k, name in enumerate(names):
        for op in ("Tg", "Sg"):
            for a in (k % 4, (k + 1) % 4):
                cells.append((name, op, WEIGHTS[a], WEIGHTS[(-a - k) % 4]))
    return list(dict.fromkeys(cells))


class ClassifyGrid(Workload):
    """``criteria.classify`` on one cell at the default ladder configuration.

    Each round visits every base cell twice, in a fixed order: unrotated,
    then composed with one or two seeded rotations, so every rotated cell's
    tags can be compared with its unrotated base.  The seed draws only the
    angles.
    """

    name = "classify-grid"

    def __init__(self, seed: int):
        from volterra import criteria, symbols
        from volterra.operators import OperatorKind
        from volterra.spaces import SpacePair
        self._criteria = criteria
        self._symbols = symbols
        self._kind = OperatorKind
        self._pair = SpacePair
        self._rng = random.Random(seed)
        self.base = base_cells(symbols.symbol_names())
        self.truth = {(r.symbol, r.operator.value, float(r.alpha), float(r.beta)): r
                      for r in symbols.ground_truth_table()}
        self._base_tags = {}

    def rounds(self):
        rng = self._rng
        while True:
            ops = []
            for sym, op, a, b in self.base:
                angles = tuple(math.tau * rng.random() for _ in range(rng.randint(1, 2)))
                ops.append(self._input(Cell(sym, op, a, b, ())))
                ops.append(self._input(Cell(sym, op, a, b, angles)))
            yield ops

    def _input(self, cell: Cell):
        g = self._symbols.get_symbol(cell.symbol)
        for phi in cell.rotations:
            g = g.rotated(phi)
        return cell, g, self._kind(cell.op), self._pair(cell.alpha, cell.beta)

    def describe(self, op) -> str:
        cell = op[0]
        return (f"cell symbol={cell.symbol} rotations={_hex_list(cell.rotations)} "
                f"op={cell.op} alpha={cell.alpha:g} beta={cell.beta:g}")

    def execute(self, op):
        _, g, kind, pair = op
        return self._criteria.classify(g, kind, pair)

    def check(self, op, rep) -> list:
        cell = op[0]
        b, c = rep.boundedness.tag.value, rep.compactness.tag.value
        errors = []
        if b == "Unbounded" and c == "Compact":
            errors.append("Compact and Unbounded")
        if not cell.rotations:
            self._base_tags[cell.base] = (b, c)
        else:
            for got, want in zip((b, c), self._base_tags[cell.base]):
                if "Inconclusive" not in (got, want) and got != want:
                    errors.append(f"rotation changed {want} to {got}")
        row = self.truth.get(cell.base)
        if row is not None:
            value_ok = row.value is None or (
                rep.boundedness.value is not None
                and abs(rep.boundedness.value - row.value) <= (row.value_tol or 1e-3))
            if (b, c) != (row.boundedness, row.compactness) or not value_ok:
                errors.append(f"ground truth {row.boundedness}/{row.compactness} "
                              f"value {row.value}, got {b}/{c} value {rep.boundedness.value}")
        return errors

    def work(self, op) -> int:
        return 1

    def latency_op(self, op) -> bool:
        # rotated cells cost up to 2.6x their base depending on the drawn
        # angles (lacunary Tg 0/1: 2.5-3.4 s), which moved the 10-seed tail by
        # 31 %; the unrotated cells are the same in every run
        return not op[0].rotations

    def fingerprint(self, rep):
        return (rep.boundedness.tag, rep.boundedness.value,
                rep.compactness.tag, rep.compactness.value)

    def named_metrics(self, metrics, tally, percentile):
        return [("cells_per_s", (metrics["work_per_s"][0], "cells/s")),
                ("cell_p50_s", metrics["op_p50_s"]),
                (f"cell_tail_s (p{percentile} of {len(tally.latency)} unrotated cells)",
                 metrics["op_tail_s"])]

    def verdicts(self, op, rep):
        return rep.boundedness.decided + rep.compactness.decided, 2


# ---------------------------------------------------------------------------
# sector-lemma2
# ---------------------------------------------------------------------------

SAMPLE_SIZES = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
DRAWS_PER_ROUND = 8


@dataclass(frozen=True)
class SectorDraw:
    gamma: float
    eta: float
    theta: float


class SectorLemma2(Workload):
    """``sector.estimate_density_bound`` at nested sample counts up to 10^6,
    after building and checking the normalized map, as ``volterra lemma2`` does.

    Apertures are drawn from [pi/8, 7pi/8] and the subsector from
    [0.25, 0.95] of the aperture.
    """

    name = "sector-lemma2"

    def __init__(self, seed: int):
        from volterra import sector
        self._sector = sector
        self._rng = random.Random(seed)

    def rounds(self):
        rng = self._rng
        while True:
            draws = []
            for _ in range(DRAWS_PER_ROUND):
                eta = math.pi * (0.125 + 0.75 * rng.random())
                gamma = eta * (0.25 + 0.7 * rng.random())
                theta = (math.tau * rng.random()) % math.tau
                draws.append(SectorDraw(gamma, eta, theta))
            yield draws

    def describe(self, d: SectorDraw) -> str:
        return (f"sector gamma={d.gamma.hex()} eta={d.eta.hex()} theta={d.theta.hex()} "
                f"samples={list(SAMPLE_SIZES)}")

    def execute(self, d: SectorDraw):
        sector = self._sector
        smap = sector.build_sector_map(sector.SectorParams(eta=d.eta, theta=d.theta))
        estimates = [sector.estimate_density_bound(d.gamma, d.eta, n, theta=d.theta)
                     for n in SAMPLE_SIZES]
        return smap, estimates

    def check(self, d: SectorDraw, result) -> list:
        smap, estimates = result
        errors = []
        if not (smap.center_residual < 1e-10 and smap.vertex_solve_residual < 1e-10):
            errors.append(f"map residuals {smap.center_residual:.3e}/"
                          f"{smap.vertex_solve_residual:.3e}")
        if not all(math.isfinite(e) for e in estimates):
            errors.append(f"non-finite estimate {estimates}")
        # the tolerance of `volterra lemma2`
        elif not all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:])):
            errors.append(f"estimates decrease with the sample count {estimates}")
        return errors

    def work(self, d: SectorDraw) -> int:
        return sum(SAMPLE_SIZES)

    def fingerprint(self, result):
        return result[1]

    def named_metrics(self, metrics, tally, percentile):
        return [("sector_points_per_s", (metrics["work_per_s"][0], "points/s"))]


WORKLOADS = {w.name: w for w in (ReportTable, ClassifyGrid, SectorLemma2)}
