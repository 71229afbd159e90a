"""Empirical operator-norm bounds and weakly-null compactness probes.

Lower bounds come straight from the definition: apply the operator to a battery
of test functions with known (or safely overestimated) source norms and measure
the image norms.  The battery mixes normalized monomials, the rotational family
``1/(1 - e^{-2 i theta} z^2)^alpha`` and a boundary-peaking kernel family aimed
at several directions, so divergences localized at any boundary angle are
witnessed.  Upper bounds come from the two-piece split of the boundedness
ladder: the sup over radii up to a cut rung plus the sup of the weighted tail
integral beyond it.

Each battery and each probe trace first builds all its operator images
exactly, then measures them with one :func:`~volterra.spaces.weighted_sup_norms`
call on ``ESTIMATION_GRID``, which sweeps them a few at a time: a stack of all
64 probe images would be a 10 MB array per sweep step, far outside the cache,
and a stack of 8 already measured slower than sweeping the images one by one.

Probes send the normalized monomials through the operator.  These tend to zero
uniformly on compact subsets, so a compact operator must crush them; a trace
that refuses to decay certifies non-compactness, while decay is supporting
(not conclusive) evidence for compactness.  Verdicts belong to the classifier;
probe results are attached to reports as corroboration only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import HypothesisError
from .criteria import DEFAULT_LADDER, K_MIN, LadderConfig, VerdictTag, tg_boundedness
from .operators import OperatorKind, apply_operator
from .series import TaylorSeries, evaluate_polynomial
from .spaces import DiskGrid, SpacePair, golden_max, weighted_sup_norms
# bound here only for perfbench's tracer, which wraps estimation.weighted_sup_norm
from .spaces import weighted_sup_norm  # noqa: F401
from .symbols import DEFAULT_DEGREE, SymbolSpec

# coarser polar grid for battery/probe image norms; series images are
# additionally sampled on the boundary ring when the target weight vanishes,
# which pins the polynomial sup-norms exactly, so refinement is skipped
ESTIMATION_GRID = DiskGrid(radial_k=80, n_angles=128, refine_top=0, outer_rungs=4)

# peaking-parameter schedule lambda = 1 - 2^{-j} and aim directions
PEAK_RUNGS = (1, 2, 3, 4, 5, 6)
PEAK_DIRECTIONS = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
THETA_FAMILY_COUNT = 8
MONOMIAL_POWERS = (1, 2, 4, 8, 16, 32, 64)


def monomial_norm(n: int, alpha: float) -> float:
    """``max_r r^n (1 - r^2)^alpha``, attained at ``r^2 = n / (n + 2 alpha)``."""
    if n == 0:
        return 1.0
    if alpha == 0.0:
        return 1.0
    return (n / (n + 2.0 * alpha)) ** (0.5 * n) * (2.0 * alpha / (n + 2.0 * alpha)) ** alpha


def _radial_max(mag_rows: np.ndarray, alpha: float) -> np.ndarray:
    """``max_r (1-r^2)^alpha sum_m |a_m| r^m`` for each row of magnitudes ``|a_m|``.

    Every row is swept on one graded grid, then all rows are refined by one
    batched golden-section search.  For series whose terms align in phase along
    some direction this equals the weighted sup-norm exactly; it is never below
    it, so it is safe as a lower bound denominator.
    """
    ks = np.arange(0, 241)
    s = 2.0 ** (-ks / 8.0)
    r = 1.0 - s
    if alpha == 0.0:
        r = np.concatenate([r, [1.0]])
        s = np.concatenate([s, [0.0]])
    w = (s * (2.0 - s)) ** alpha if alpha else np.ones_like(s)
    # one matrix-vector product per row: a matrix-matrix product would round a
    # row differently depending on the rest of the batch
    powers = np.vander(r, mag_rows.shape[1], increasing=True)
    prof = w[:, None] * np.column_stack([powers @ row for row in mag_rows])
    best = np.max(prof, axis=0)
    i = np.argmax(prof, axis=0)

    def f(x):
        sx = 1.0 - x
        wx = (sx * (2.0 - sx)) ** alpha if alpha else 1.0
        return wx * evaluate_polynomial(mag_rows.T, x).real

    _, peak = golden_max(f, r[np.maximum(i - 1, 0)], r[np.minimum(i + 1, len(r) - 1)], 60)
    return np.maximum(best, peak)


@dataclass(frozen=True)
class BatteryEntry:
    label: str
    series: TaylorSeries
    norm_alpha: float  # at least the true source norm of the truncated entry

    def __post_init__(self):
        if self.norm_alpha <= 0:
            raise ValueError("battery entries need a positive source norm")


@dataclass(frozen=True)
class TestBattery:
    alpha: float
    entries: tuple


def _binom_series(exponent: float, degree: int) -> np.ndarray:
    """Nonnegative coefficients of ``(1 - w)^(-exponent)`` up to ``w^degree``."""
    c = np.empty(degree + 1)
    c[0] = 1.0
    for m in range(1, degree + 1):
        c[m] = c[m - 1] * (exponent + m - 1.0) / m
    return c


def build_battery(alpha: float, degree: int = DEFAULT_DEGREE) -> TestBattery:
    """Deterministic test battery for source exponent ``alpha``."""
    entries = [BatteryEntry("const", TaylorSeries((1 + 0j,)), 1.0)]
    for n in MONOMIAL_POWERS:
        cs = [0j] * n + [1 + 0j]
        entries.append(BatteryEntry(f"monomial:{n}", TaylorSeries(tuple(cs)),
                                    monomial_norm(n, alpha)))
    if alpha > 0.0:
        half = degree // 2
        c = _binom_series(alpha, half)
        rotational = []
        for j in range(THETA_FAMILY_COUNT):
            theta = math.pi * j / THETA_FAMILY_COUNT
            w = complex(math.cos(-2.0 * theta), math.sin(-2.0 * theta))
            cs = [0j] * (degree + 1)
            for m in range(half + 1):
                cs[2 * m] = c[m] * w ** m
            rotational.append(cs)
        d = _binom_series(2.0 * alpha, degree)
        peaks = []
        for j in PEAK_RUNGS:
            lam = 1.0 - 2.0 ** (-j)
            peaks.append((1.0 - lam * lam) ** alpha * d * lam ** np.arange(degree + 1))
        norms = _radial_max(np.array([[abs(v) for v in cs] for cs in rotational] + peaks),
                            alpha)
        for j, (cs, norm) in enumerate(zip(rotational, norms)):
            entries.append(BatteryEntry(f"rotational:{j}", TaylorSeries(tuple(cs)), float(norm)))
        for j, mags, norm in zip(PEAK_RUNGS, peaks, norms[THETA_FAMILY_COUNT:]):
            for phi in PEAK_DIRECTIONS:
                w = complex(math.cos(phi), math.sin(phi))
                cs = tuple(mags[n] * w ** n for n in range(degree + 1))
                entries.append(BatteryEntry(f"peak:{j}:{phi:.4f}", TaylorSeries(cs), float(norm)))
    else:
        for j in PEAK_RUNGS:
            lam = 1.0 - 2.0 ** (-j)
            # exact sup-norm of the truncated kernel: (1+lam)(1 - lam^(N+1))
            norm = (1.0 + lam) * (1.0 - lam ** (degree + 1))
            base = (1.0 - lam * lam) * lam ** np.arange(degree + 1)
            for phi in PEAK_DIRECTIONS:
                w = complex(math.cos(phi), math.sin(phi))
                cs = tuple(base[n] * w ** n for n in range(degree + 1))
                entries.append(BatteryEntry(f"peak:{j}:{phi:.4f}", TaylorSeries(cs), norm))
    return TestBattery(alpha=alpha, entries=tuple(entries))


@dataclass(frozen=True)
class LowerBoundReport:
    value: float
    best_label: str
    ratios: tuple  # (label, ratio) in battery order


def lower_bound_details(g: SymbolSpec, operator: OperatorKind, pair: SpacePair,
                        battery: Optional[TestBattery] = None,
                        degree: int = DEFAULT_DEGREE) -> LowerBoundReport:
    """Largest image-to-source norm ratio over the battery."""
    battery = battery or build_battery(pair.alpha, degree)
    g_series = g.taylor(degree)
    images = [apply_operator(operator, g_series, entry.series) for entry in battery.entries]
    nums = weighted_sup_norms(images, pair.beta, ESTIMATION_GRID).tolist()
    ratios = []
    best, best_label = 0.0, ""
    for entry, num in zip(battery.entries, nums):
        ratio = num / entry.norm_alpha
        ratios.append((entry.label, ratio))
        if ratio > best:
            best, best_label = ratio, entry.label
    return LowerBoundReport(value=best, best_label=best_label, ratios=tuple(ratios))


def tg_upper_bound(g: SymbolSpec, pair: SpacePair, t0: float,
                   cfg: Optional[LadderConfig] = None, engine=None) -> float:
    """Two-piece norm bound for the ``int f g'`` operator at cut radius ``t0``.

    ``M`` is the sup of the weighted integral over radii up to ``t0``; the tail
    piece takes the weighted integral from ``t0`` outward, which is the variant
    of the split that tightens to the criterion value as ``t0`` grows.  Only
    meaningful when the boundedness ladder actually converged.
    """
    cfg = cfg or DEFAULT_LADDER
    if not 0.0 < t0 < 1.0:
        raise ValueError(f"t0 must lie in (0, 1), got {t0}")
    k0 = round(-math.log2(1.0 - t0))
    if not (1 <= k0 <= cfg.k_max - 1) or abs((1.0 - 2.0 ** -k0) - t0) > 1e-12:
        raise ValueError("t0 must be a rung of the ladder schedule")
    outcome = tg_boundedness(g, pair, cfg, engine)
    if outcome.verdict.tag is not VerdictTag.BOUNDED:
        raise HypothesisError("the split bound needs a Bounded ladder verdict")
    return outcome.engine.split_bound(k0)


def tg_min_upper_bound(g: SymbolSpec, pair: SpacePair,
                       cfg: Optional[LadderConfig] = None, engine=None):
    """Tightest split bound over all cut rungs; returns ``(bound, t0)``."""
    cfg = cfg or DEFAULT_LADDER
    outcome = tg_boundedness(g, pair, cfg, engine)
    if outcome.verdict.tag is not VerdictTag.BOUNDED:
        raise HypothesisError("the split bound needs a Bounded ladder verdict")
    best, best_k = math.inf, K_MIN
    for k0 in range(K_MIN, cfg.k_max):
        b = outcome.engine.split_bound(k0)
        if b < best:
            best, best_k = b, k0
    return best, 1.0 - 2.0 ** -best_k


@dataclass(frozen=True)
class ProbeTrace:
    """Normalized-monomial probe ``||Op z^n|| / ||z^n||`` with a fitted decay rate."""

    indices: tuple
    values: tuple
    decay_exponent: float
    operator: OperatorKind
    alpha: float
    beta: float

    def __post_init__(self):
        if len(self.indices) < 8:
            raise ValueError("probe traces need at least 8 entries")
        if any(v < 0 for v in self.values):
            raise ValueError("probe values are norms and cannot be negative")

    @property
    def final_value(self) -> float:
        return self.values[-1]


def compactness_probe(g: SymbolSpec, operator: OperatorKind, pair: SpacePair,
                      n_max: int = 64, degree: int = DEFAULT_DEGREE) -> ProbeTrace:
    """Drive the normalized monomials through the operator and fit the decay."""
    if n_max < 16:
        raise ValueError("n_max must be at least 16")
    g_series = g.taylor(degree)
    ns = list(range(1, n_max + 1))
    images = [apply_operator(operator, g_series, TaylorSeries((0j,) * n + (1 + 0j,)))
              for n in ns]
    nums = weighted_sup_norms(images, pair.beta, ESTIMATION_GRID).tolist()
    values = [num / monomial_norm(n, pair.alpha) for n, num in zip(ns, nums)]
    half = np.array(values[n_max // 2 - 1:])
    idx = np.array(ns[n_max // 2 - 1:], dtype=float)
    if np.all(half <= 1e-300):
        exponent = 0.0
    else:
        exponent = float(np.polyfit(np.log(idx), np.log(np.maximum(half, 1e-300)), 1)[0])
    return ProbeTrace(indices=tuple(ns), values=tuple(values), decay_exponent=exponent,
                      operator=operator, alpha=pair.alpha, beta=pair.beta)
