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
call on ``ESTIMATION_GRID``.  A battery's images share one ``g'``; a probe's
are shifted copies of ``g'`` or ``n g``, with no convolution
(:func:`~volterra.operators.monomial_images`).  An image whose coefficients
are all real and ``>= 0`` is read on the ray ``theta = 0`` alone; so is every
probe image of a registry symbol other than ``affine``, 70 % of a default
report's images.  Only the rest are swept over every angle, and only on the
rings whose majorant ``sum |c_m| r^m`` can reach the image's largest sample:
3,168 of their 33,502 rings in a default report.

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
from .operators import OperatorKind, apply_operator, monomial_images
from .series import TaylorSeries, derivative, evaluate_polynomial
from .spaces import DiskGrid, SpacePair, radial_weight, ray_max, weighted_sup_norms
# bound here only for perfbench's tracer, which wraps estimation.weighted_sup_norm
from .spaces import weighted_sup_norm  # noqa: F401
from .symbols import DEFAULT_DEGREE, SymbolSpec

# coarser polar grid for battery/probe image norms; series images are
# additionally sampled on the boundary ring when the target weight vanishes,
# which pins the polynomial sup-norms exactly
ESTIMATION_GRID = DiskGrid(radial_k=80, n_angles=128, outer_rungs=4)

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

    It serves the battery at ``alpha > 0``, where the weight vanishes on the
    boundary circle: one :func:`~volterra.spaces.ray_max` over all rows, each
    profile a column of one Horner evaluation.  For series whose terms align
    in phase along some direction this equals the weighted sup-norm exactly;
    it is never below it, so it is safe as a lower bound denominator.
    """
    return ray_max(lambda r, s: evaluate_polynomial(mag_rows.T, r).real, alpha)


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
        # coefficients c_m w^m at z^(2m), each direction's powers w^m once, as
        # Python's complex ** int rounds them
        rotational = np.zeros((THETA_FAMILY_COUNT, degree + 1), dtype=complex)
        for j in range(THETA_FAMILY_COUNT):
            theta = math.pi * j / THETA_FAMILY_COUNT
            w = complex(math.cos(-2.0 * theta), math.sin(-2.0 * theta))
            rotational[j, ::2] = [w ** m for m in range(half + 1)]
        rotational[:, ::2] *= c
        d = _binom_series(2.0 * alpha, degree)
        # (1 - lambda^2)^alpha of lambda = 1 - 2^-j, all exact at s = 2^-j
        peaks = [radial_weight(2.0 ** -j, alpha) * d * (1.0 - 2.0 ** -j) ** np.arange(degree + 1)
                 for j in PEAK_RUNGS]
        # np.hypot rounds like abs() of one complex; np.abs of a complex array
        # can be an ulp away from it
        norms = _radial_max(np.vstack([np.hypot(rotational.real, rotational.imag)] + peaks),
                            alpha)
        for j, (cs, norm) in enumerate(zip(rotational, norms)):
            entries.append(BatteryEntry(f"rotational:{j}", TaylorSeries(cs), float(norm)))
        kernels = zip(PEAK_RUNGS, peaks, norms[THETA_FAMILY_COUNT:])
    else:
        kernels = []
        for j in PEAK_RUNGS:
            lam = 1.0 - 2.0 ** -j
            # exact sup-norm of the truncated kernel: (1+lam)(1 - lam^(N+1))
            kernels.append((j, radial_weight(2.0 ** -j, 1.0) * lam ** np.arange(degree + 1),
                            (1.0 + lam) * (1.0 - lam ** (degree + 1))))
    # each direction's powers once, as Python's complex ** int rounds them
    turns = np.array([[complex(math.cos(phi), math.sin(phi)) ** n for n in range(degree + 1)]
                      for phi in PEAK_DIRECTIONS])
    for j, mags, norm in kernels:
        for phi, cs in zip(PEAK_DIRECTIONS, mags * turns):
            entries.append(BatteryEntry(f"peak:{j}:{phi:.4f}", TaylorSeries(cs), float(norm)))
    return TestBattery(alpha=alpha, entries=tuple(entries))


@dataclass(frozen=True)
class LowerBoundReport:
    value: float
    best_label: str


def lower_bound_details(g: SymbolSpec, operator: OperatorKind, pair: SpacePair,
                        battery: Optional[TestBattery] = None,
                        degree: int = DEFAULT_DEGREE) -> LowerBoundReport:
    """Largest image-to-source norm ratio over the battery, which must be built
    for ``pair.alpha``: its source norms are norms in ``H^inf_alpha``."""
    battery = battery or build_battery(pair.alpha, degree)
    if battery.alpha != pair.alpha:
        raise ValueError(f"the battery is built for alpha = {battery.alpha}, not {pair.alpha}")
    g_series = g.taylor(degree)
    dg = derivative(g_series)
    images = [apply_operator(operator, g_series, entry.series, dg) for entry in battery.entries]
    nums = weighted_sup_norms(images, pair.beta, ESTIMATION_GRID).tolist()
    best, best_label = 0.0, ""
    for entry, num in zip(battery.entries, nums):
        ratio = num / entry.norm_alpha
        if ratio > best:
            best, best_label = ratio, entry.label
    return LowerBoundReport(value=best, best_label=best_label)


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
    ns = list(range(1, n_max + 1))
    images = monomial_images(operator, g.taylor(degree), n_max)
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
