"""Empirical operator-norm bounds and weakly-null compactness probes.

Lower bounds come straight from the definition: apply the operator to a battery
of test functions with known (or safely overestimated) source norms and measure
the image norms.  The battery mixes normalized monomials, the rotational family
``1/(1 - e^{-2 i theta} z^2)^alpha`` and a boundary-peaking kernel family aimed
at several directions, so divergences localized at any boundary angle are
witnessed.  The T_g upper bound is the boundedness ladder's cell envelope
(``_LadderEngine.envelope`` in :mod:`~volterra.criteria`), which bounds the
ladder at every radius up to its last rung.

A battery's families are rotations of one base: the 8 rotational entries, and
the 4 directions of each peak rung; at ``alpha > 0`` each member's source norm
is the Schwarz-Pick bound 1.  A member's image coefficients are at most, in
modulus, those of its family's magnitude image: ``Op`` applied in real
arithmetic to the moduli of ``g``'s coefficients and the battery's source of
the family, its members' largest coefficient moduli.  A report row takes its
lower bound and probe trace from one pass over coefficient rows
(:func:`estimate_row`): one :func:`~volterra.spaces.weighted_sup_norms` call on
``ESTIMATION_GRID`` measures the probe's rows ``Op z^n``, which also serve the
battery's monomial entries, its other entries outside every family and one
magnitude image per family; a second measures the members of only the families
that can win.  A default report calls :func:`apply_operator` 26 times
(``const``, 12 of 368 members) and builds 119 Taylor series, 72 in batteries.
Of its 1,010 images, the 86 % with all coefficients real and ``>= 0`` are read
on the ray ``theta = 0`` alone; the rest are swept on 482 of their 11,416 rings.

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
from .criteria import DEFAULT_LADDER, LadderConfig, VerdictTag, tg_boundedness
from .operators import OperatorKind, apply_operator, image_array, monomial_images
from .series import OVERFLOW_CLAMP, TaylorSeries, _derivative, derivative
from .spaces import (_SMALLEST_NORMAL, PRUNE_MARGIN, DiskGrid, SpacePair, radial_weight,
                     weighted_sup_norms)
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
    """``max_r r^n (1 - r^2)^alpha`` at ``r^2 = n / (n + 2 alpha)``, rounded up."""
    if n == 0 or alpha == 0.0:
        return 1.0
    # (n/(n + 2 alpha))^(n/2) would amplify its base's rounding by n/2, so it is
    # exp(-(n/2) log1p(2 alpha/n)).  With u = 2^-53 and exp, log1p and ** within
    # 1 ulp (2u), that exponent (at most alpha in modulus) is within 4u, the exp
    # within (4 alpha + 2)u, the second power within (2 alpha + 2)u and the
    # product adds u.  1 + (6 alpha + 10)u, itself within u, covers these.
    first = math.exp(-0.5 * n * math.log1p(2.0 * alpha / n))
    value = first * (2.0 * alpha / (n + 2.0 * alpha)) ** alpha
    return value * (1.0 + (3.0 * alpha + 5.0) * 2.0 ** -52)


@dataclass(frozen=True)
class BatteryEntry:
    label: str
    series: TaylorSeries
    norm_alpha: float  # the entry's source norm or a bound above it (build_battery)

    def __post_init__(self):
        if self.norm_alpha <= 0:
            raise ValueError("battery entries need a positive source norm")


@dataclass(frozen=True)
class TestBattery:
    alpha: float
    entries: tuple
    families: tuple  # index tuples of rotations of one base, each of one coefficient count
    sources: tuple  # each family's largest coefficient moduli, for its magnitude image
    alone: tuple  # (i, n) of each entry in no family, z^n, measured on every row


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
    families = []
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
        # Schwarz-Pick: every member's source norm is at most 1.  A truncated
        # series with coefficients >= 0 in w = e^{-2i theta} z^2 (or lambda z,
        # rotated) is at most the full series at |z|, and (1 - |z|^2)/|1 - w| <= 1
        # for |w| = |z|^2, (1 - |z|^2)(1 - lambda^2) <= (1 - lambda |z|)^2 (the
        # gap is (lambda - |z|)^2).  Rounding lifts a swept norm by up to 1.2e-14.
        families.append(tuple(range(len(entries), len(entries) + THETA_FAMILY_COUNT)))
        for j, cs in enumerate(rotational):
            entries.append(BatteryEntry(f"rotational:{j}", TaylorSeries(cs), 1.0))
        # (1 - lambda^2)^alpha of lambda = 1 - 2^-j, all exact at s = 2^-j
        kernels = [(j, radial_weight(2.0 ** -j, alpha) * d * lam ** np.arange(degree + 1), 1.0)
                   for j, lam in ((j, 1.0 - 2.0 ** -j) for j in PEAK_RUNGS)]
    else:
        # exact sup-norm of the truncated kernel: (1+lam)(1 - lam^(N+1))
        kernels = [(j, radial_weight(2.0 ** -j, 1.0) * lam ** np.arange(degree + 1),
                    (1.0 + lam) * (1.0 - lam ** (degree + 1)))
                   for j, lam in ((j, 1.0 - 2.0 ** -j) for j in PEAK_RUNGS)]
    # each direction's powers once, as Python's complex ** int rounds them
    turns = np.array([[complex(math.cos(phi), math.sin(phi)) ** n for n in range(degree + 1)]
                      for phi in PEAK_DIRECTIONS])
    for j, mags, norm in kernels:
        families.append(tuple(range(len(entries), len(entries) + len(PEAK_DIRECTIONS))))
        for phi, cs in zip(PEAK_DIRECTIONS, mags * turns):
            entries.append(BatteryEntry(f"peak:{j}:{phi:.4f}", TaylorSeries(cs), float(norm)))
    sources = tuple(np.max([np.abs(entries[i].series.array) for i in f], axis=0) for f in families)
    return TestBattery(alpha, tuple(entries), tuple(families), sources,
                       alone=tuple(enumerate((0,) + MONOMIAL_POWERS)))


@dataclass(frozen=True)
class LowerBoundReport:
    value: float
    best_label: str


def _first_max(entries, nums):
    """The largest ratio ``num / norm_alpha`` and the label of the first entry
    attaining it; ``(0.0, "")`` when no ratio is above 0."""
    best, best_label = 0.0, ""
    for entry, num in zip(entries, nums):
        ratio = num / entry.norm_alpha
        if ratio > best:
            best, best_label = ratio, entry.label
    return best, best_label


def lower_bound_details(g: SymbolSpec, operator: OperatorKind, pair: SpacePair,
                        battery: Optional[TestBattery] = None,
                        degree: int = DEFAULT_DEGREE) -> LowerBoundReport:
    """Largest image-to-source norm ratio over the battery, which must be built
    for ``pair.alpha``: its source norms are norms in ``H^inf_alpha``.  It is
    :func:`estimate_row` without a probe."""
    battery = battery or build_battery(pair.alpha, degree)
    return estimate_row(g.taylor(degree), operator, pair, battery)[0]


def tg_min_upper_bound(g: SymbolSpec, pair: SpacePair,
                       cfg: Optional[LadderConfig] = None, engine=None) -> float:
    """The T_g ladder's cell envelope (``_LadderEngine.envelope``), which bounds
    the ladder at every radius up to its last rung; only for a Bounded ladder."""
    outcome = tg_boundedness(g, pair, cfg or DEFAULT_LADDER, engine)
    if outcome.verdict.tag is not VerdictTag.BOUNDED:
        raise HypothesisError("the upper bound needs a Bounded ladder verdict")
    return outcome.engine.envelope()


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
    """The normalized-monomial probe: :func:`estimate_row` without a battery."""
    return estimate_row(g.taylor(degree), operator, pair, n_max=n_max)[1]


def estimate_row(g_series: TaylorSeries, operator: OperatorKind, pair: SpacePair,
                 battery: Optional[TestBattery] = None, n_max: Optional[int] = None
                 ) -> tuple[Optional[LowerBoundReport], Optional[ProbeTrace]]:
    """The largest image-to-source ratio over ``battery`` and the probe trace
    to ``n_max`` of ``Op`` with symbol ``g_series``, from one pass (module
    docstring); either is None when its argument is.  The families not measured
    have ratios below the best, so value and witness are the whole battery's."""
    if battery is not None and battery.alpha != pair.alpha:
        raise ValueError(f"the battery is built for alpha = {battery.alpha}, not {pair.alpha}")
    if n_max is not None and n_max < 16:
        raise ValueError("n_max must be at least 16")
    n_max = n_max or 0
    # g' of T_g, derived once for the probe's images and the battery's
    dg = derivative(g_series) if operator is OperatorKind.Tg else None
    probe = monomial_images(operator, g_series, n_max, dg) if n_max else []
    if battery is None:
        return None, _trace(weighted_sup_norms(probe, pair.beta, ESTIMATION_GRID).tolist(),
                            operator, pair)
    entries = battery.entries

    def images(indices):
        return [apply_operator(operator, g_series, entries[i].series, dg).array for i in indices]
    # an entry z^n, 1 <= n <= n_max, reads the probe's image norm, equal to its own
    shared = {i: n for i, n in battery.alone if 1 <= n <= n_max}
    alone = [i for i, _ in battery.alone]
    own = [i for i in alone if i not in shared]
    abs_g = np.abs(g_series.array)
    abs_dg = _derivative(abs_g)
    magnitude = [image_array(operator, abs_g, s, abs_dg) for s in battery.sources]
    nums = weighted_sup_norms(probe + images(own) + magnitude, pair.beta,
                              ESTIMATION_GRID).tolist()
    probe_nums, nums = nums[:n_max], nums[n_max:]
    measured = dict(zip(own, nums))
    measured.update((i, probe_nums[n - 1]) for i, n in shared.items())
    floor = _first_max([entries[i] for i in alone], [measured[i] for i in alone])[0]
    # a zero kernel (g' of T_g, g of S_g) makes every image exactly zero
    nonzero_kernel = np.any((dg if operator is OperatorKind.Tg else g_series).array)
    members = []
    for family, image, bound in zip(battery.families, magnitude, nums[len(own):]):
        # a member sample above the clamp reads inf, which a finite bound misses
        if not np.sum(image) <= OVERFLOW_CLAMP * (1.0 - PRUNE_MARGIN):
            bound = math.inf
        # slack as in spaces.PRUNE_MARGIN's comment; NaN and inf bounds stay live
        cap = (bound * (1.0 + PRUNE_MARGIN) + _SMALLEST_NORMAL) / min(
            entries[i].norm_alpha for i in family)
        if nonzero_kernel and not cap < floor:
            members.extend(family)
    measured.update(zip(members, weighted_sup_norms(images(members), pair.beta,
                                                    ESTIMATION_GRID).tolist()))
    order = sorted(measured)
    best, best_label = _first_max([entries[i] for i in order], [measured[i] for i in order])
    return (LowerBoundReport(value=best, best_label=best_label),
            _trace(probe_nums, operator, pair) if n_max else None)


def _trace(nums, operator: OperatorKind, pair: SpacePair) -> ProbeTrace:
    """The trace of the image norms ``||Op z^n||``, ``n = 1..len(nums)``."""
    n_max = len(nums)
    ns = list(range(1, n_max + 1))
    values = [num / monomial_norm(n, pair.alpha) for n, num in zip(ns, nums)]
    half = np.array(values[n_max // 2 - 1:])
    if np.all(half <= 1e-300):
        exponent = 0.0
    else:
        # least squares of log value on log n in closed form, with no BLAS call
        x, y = np.log(np.arange(n_max // 2, n_max + 1.0)), np.log(np.maximum(half, 1e-300))
        dx = x - np.mean(x)
        exponent = float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))
    return ProbeTrace(indices=tuple(ns), values=tuple(values), decay_exponent=exponent,
                      operator=operator, alpha=pair.alpha, beta=pair.beta)
