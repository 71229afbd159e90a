"""Weighted sup-norms on the disk and the grids used to estimate suprema.

The weight is ``(1-|z|^2)^alpha``, formed from ``s = 1 - |z|`` by
:func:`radial_weight` everywhere in the package.  Maxima in this problem family
concentrate at the boundary, so the radial grid is geometrically graded toward
``|z| = 1``.  A supremum along a fixed ray (the classifier's interior sweep and
the ``norm`` command on a symbol's peak ray) is :func:`ray_max` of profiles
``(r, s) -> |h|``, such as a symbol's moduli on its peak ray: a sample on the
radii of ``DEFAULT_GRID``, then a few vectorised zoom passes around each
profile's best sample, which can only increase it.  A supremum over the disk is
a sweep of a polar grid (:func:`weighted_sup_details`), with no refinement.  A
function is a truncated Taylor series or a vectorised closed form
``z -> f(z)``, evaluated pointwise.  All sweeps are pure and deterministic.

On every circle ``|f| <= sum |c_m| r^m``, the ring majorant.  The majorants of
a stack of series come from one pass over all of them, with one matrix-vector
product per series at its own length against a memoised ``r^m`` table.  A
series whose coefficients are all real and ``>= 0`` attains it at
``theta = 0``, so its ring maxima are its majorants and no angle is swept.  Any
other series is swept a whole ring at a time by the folded-FFT ring evaluator of
:mod:`volterra.series`; :func:`weighted_sup_norms` sweeps it on the ring of
largest majorant, then only on the rings whose majorant reaches that ring's
maximum, about a tenth of them in a default report.  The evaluator takes ring
rows, one coefficient row per ring, up to ``RING_GROUP`` per call, so the
per-call work of a sweep is paid once per call.  The call is bounded because a
sweep holds several ``(K, N)`` arrays at once: at ``N = 128`` a complex one
takes about 0.7 MB for 4 x 82 rows (four series on the estimation grid's 82
rings), but 1.3 MB for twice as many, and then the sweep no longer fits a 2 MB
per-core cache and measured slower than one series at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .series import (OVERFLOW_CLAMP, TaylorSeries, _clamp, _ring_powers, derivative,
                     evaluate_on_rings)

# ray_max's zoom passes and their radii per bracket: each pass narrows a
# bracket to 2/64 of its width, (2/64)^6 = 9.3e-10 in all
ZOOM_PASSES = 6
ZOOM_POINTS = 65
# the radii's positions in a bracket, exact multiples of 1/64
_ZOOM_STEPS = np.arange(ZOOM_POINTS) / (ZOOM_POINTS - 1)
# ring rows per evaluator call of weighted_sup_norms (why bounded: module docstring)
RING_GROUP = 4 * 82
# Relative slack of the pruning test in weighted_sup_norms.  With u = 2^-53, a
# swept sample exceeds its ring's exact majorant sum |c_m| r^m by at most the
# sweep's rounding relative to that sum: about 3u per Horner step in w = r^N
# (ceil(D/N) steps), u for r^m, about 5u per FFT stage (log2 N stages), 2u for
# the modulus and u for the weight.  The computed majorant falls short of the
# exact one by at most (D - 1)u for its D-term sum.  For N = 128 and D <= 513
# that is about 570u, or 1e-13.  1e-9 keeps the bound for D up to about
# 9e6 coefficients (the largest report images have about 8,200) and still
# prunes the same rings.
# estimation.estimate_row prunes battery families with the same slack.
# There a member's image coefficient, a D-term convolution of complex
# coefficients, exceeds in modulus its magnitude image's coefficient, the same
# convolution of their moduli, by at most about 2 gamma_D (gamma_D = D u /
# (1 - D u)): each sum is within gamma_D of its exact value, and the moduli,
# products and divisions by the index add a few u.  A swept sample of the
# member exceeds its exact majorant by about 570u as above, and the magnitude
# image's ring maxima are its computed majorants, short by (D - 1)u.  For
# D = 8,200 that is about 3.3 D u = 3e-12 in all.  Underflow costs each
# coefficient at most D 2^-1075 absolutely, which _SMALLEST_NORMAL covers.
PRUNE_MARGIN = 1e-9
# Absolute slack of the same test: underflow costs each sample at most
# 2^-1075 per operation, far below the smallest normal number
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class SpacePair:
    """Source/target weight exponents (alpha, beta), both finite and >= 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("weight exponents must be finite and nonnegative")


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling grid with geometric grading toward the boundary.

    Radial rungs are ``r_k = 1 - 2^(-k/4)`` for ``k = 0..radial_k``; angles are
    uniform.  A sweep with samples that overflow reads divergent when its
    outermost ``outer_rungs`` rung maxima grow.
    """

    radial_k: int = 96
    n_angles: int = 512
    outer_rungs: int = 8

    def __post_init__(self):
        if self.n_angles < 64:
            raise ValueError("need at least 64 angular nodes")
        if 2.0 ** (-self.radial_k / 4.0) > 1e-6:
            raise ValueError("outermost radial node must reach 1 - 1e-6")

    def one_minus_r(self) -> np.ndarray:
        # stored as exact powers of 2^(1/4); 1 - r is never formed by subtraction
        return 2.0 ** (-np.arange(self.radial_k + 1) / 4.0)

    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles


DEFAULT_GRID = DiskGrid()


@dataclass(frozen=True)
class SupremumReport:
    """Weighted supremum estimate with its arg-max and divergence diagnostics."""

    value: float
    argmax: complex
    divergent: bool = False
    clamped_samples: int = 0


def radial_weight(one_minus_r, alpha: float):
    """``(1-r^2)^alpha`` as ``(s(2-s))^alpha`` of ``s = 1 - r``, carried exactly;
    ones for ``alpha = 0``.  ``alpha`` may be negative."""
    s = np.asarray(one_minus_r, dtype=float)
    return np.ones_like(s) if alpha == 0.0 else (s * (2.0 - s)) ** alpha


def _values(f: TaylorSeries | Callable, z):
    """``f(z)`` for a series or a vectorised closed form; divergent samples
    (overflow, poles, NaN) come back as the tagged infinite marker."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return _clamp(f(np.asarray(z, dtype=complex)))


def _rings(grid: DiskGrid, alpha: float, boundary: bool):
    """Radii of the grid's rungs, with the boundary circle ``r = 1`` appended
    when ``boundary``, and their weights."""
    s = grid.one_minus_r()
    if boundary:
        s = np.append(s, 0.0)
    return 1.0 - s, radial_weight(s, alpha)


def ray_argmax(fn: Callable, exponent: float):
    """``max_r (1-r^2)^exponent fn(r, 1-r)`` for each column of ``fn``, and the
    radius of the first sample that attains it, as two arrays.

    ``fn(r, s)`` broadcasts: a column of radii gives ``(R, P)`` values and a
    ``(K, P)`` array of radii, one column per profile, gives ``(K, P)``.  The
    first call samples the radii of ``DEFAULT_GRID``, all inside the disk.
    Each of ``ZOOM_PASSES`` further calls samples every column's bracket, the
    radii next to its best sample so far, at ``ZOOM_POINTS`` evenly spaced
    radii.  The result is each column's best sample, so it never falls below
    the grid.  Values that are not finite read as ``inf``.
    """
    s = DEFAULT_GRID.one_minus_r()[:, None]
    r = 1.0 - s
    best, arg = -np.inf, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(1 + ZOOM_PASSES):
            v = radial_weight(s, exponent) * fn(r, s)
            v = np.where(np.isfinite(v), v, np.inf)
            j, r, cols = np.argmax(v, axis=0), np.broadcast_to(r, v.shape), np.arange(v.shape[1])
            top = v[j, cols]
            arg = np.where(top > best, r[j, cols], arg)
            best = np.maximum(best, top)
            # the next bracket: the neighbours of each column's best sample
            lo, hi = r[np.maximum(j - 1, 0), cols], r[np.minimum(j + 1, len(v) - 1), cols]
            r = lo + _ZOOM_STEPS[:, None] * (hi - lo)
            s = 1.0 - r
    return best, arg


def ray_max(fn: Callable, exponent: float) -> np.ndarray:
    """The maxima of :func:`ray_argmax` alone."""
    return ray_argmax(fn, exponent)[0]


def _ring_sweep(coeffs: np.ndarray, radii, weights, n_angles: int) -> np.ndarray:
    """Weighted magnitudes ``(1-|z|^2)^alpha |f(z)|`` on ring rows (the
    broadcast of :func:`~volterra.series.evaluate_on_rings`), each ring with its
    weight; divergent samples are ``inf``."""
    with np.errstate(invalid="ignore", over="ignore"):
        mags = np.abs(evaluate_on_rings(coeffs, radii, n_angles))
    mags *= weights[..., None]
    return mags


def _ring_majorants(rows, radii, weights, n_angles: int):
    """Weighted ring majorants ``(1-r^2)^alpha sum_m |c_m| r^m`` of each
    coefficient row of ``rows``, shaped ``(len(rows), R)``, and whether they are
    the row's ring maxima: they are when its coefficients are all real and
    ``>= 0`` (an exact test: a NaN fails it), since then
    ``|sum c_m r^m e^{i m theta}| <= sum c_m r^m`` is attained at the grid angle
    ``theta = 0``.  The test, the magnitudes, the clamp and the weights run
    once over the stacked rows.  Values above the clamp are ``inf``, tagged
    before weighting as on the ring sweep."""
    lengths = np.array([len(c) for c in rows])
    flat = np.concatenate(rows)
    starts = np.cumsum(lengths) - lengths
    exact = ~np.logical_or.reduceat((flat.imag != 0.0) | ~(flat.real >= 0.0), starts)
    mags = np.where(np.repeat(exact, lengths), flat.real, np.abs(flat))
    powers = _ring_powers(radii.tobytes(), -(-int(np.max(lengths)) // n_angles) * n_angles)
    v = np.empty((len(rows), len(radii)))
    with np.errstate(invalid="ignore", over="ignore"):
        # one matrix-vector product per row at its own length: zero padding or a
        # matrix-matrix product would round a row by the rest of the stack
        for k, (i, d) in enumerate(zip(starts.tolist(), lengths.tolist())):
            v[k] = powers[:, :d] @ mags[i:i + d]
    return np.where(v <= OVERFLOW_CLAMP, v, np.inf) * weights, exact


def _sweep_ring_rows(series, rows, radii, weights, n_angles: int) -> np.ndarray:
    """The weighted maximum of each ring row ``(k, i)``, series ``k`` on ring
    ``i``, swept at most ``RING_GROUP`` rows per evaluator call; the rows of
    one call share a block count ``ceil(len / n_angles)``, so that no series is
    padded with zero blocks."""
    rows = np.array(rows, dtype=np.intp).reshape(-1, 2)
    blocks = np.array([-(-len(series[k].array) // n_angles) for k in rows[:, 0]], dtype=np.intp)
    out = np.empty(len(rows))
    for q in np.unique(blocks).tolist():
        run = np.flatnonzero(blocks == q)
        members, which = np.unique(rows[run, 0], return_inverse=True)
        padded = np.zeros((len(members), q * n_angles), dtype=complex)
        for row, k in enumerate(members.tolist()):
            padded[row, :len(series[k].array)] = series[k].array
        for i in range(0, len(run), RING_GROUP):
            part = run[i:i + RING_GROUP]
            rings = rows[part, 1]
            mags = _ring_sweep(padded[which[i:i + RING_GROUP]], radii[rings], weights[rings],
                               n_angles)
            out[part] = np.max(mags, axis=1)
    return out


def weighted_sup_norms(series, alpha: float, grid: DiskGrid) -> np.ndarray:
    """``weighted_sup_norm(f, alpha, grid)`` for each series ``f`` of ``series``,
    as a float array.

    The weighted ring majorants ``(1-r^2)^alpha sum |c_m| r^m`` of all series
    come first, in one pass (:func:`_ring_majorants`); for real, nonnegative
    coefficients they are the ring maxima.  Any other series is swept on its ring of largest
    majorant, then only on the rings whose majorant, widened by
    ``PRUNE_MARGIN``, reaches that ring's maximum: the rest cannot hold a
    larger sample.  A series whose coefficient 1-norm is above
    ``OVERFLOW_CLAMP * (1 - PRUNE_MARGIN)``, or NaN, is swept on every ring:
    the clamp acts on block sums and unweighted samples, which its weighted
    majorants do not bound.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    if not len(series):
        return np.empty(0)
    radii, weights = _rings(grid, alpha, alpha == 0.0)
    maj, exact = _ring_majorants([f.array for f in series], radii, weights, grid.n_angles)
    out = np.where(exact, np.max(maj, axis=1), -np.inf)
    odd = np.flatnonzero(~exact)
    guarded = np.array([np.sum(np.abs(series[k].array)) <= OVERFLOW_CLAMP * (1.0 - PRUNE_MARGIN)
                        for k in odd.tolist()], dtype=bool)
    first, whole = odd[guarded], odd[~guarded]
    best = np.argmax(maj[first], axis=1)
    out[first] = _sweep_ring_rows(series, np.column_stack((first, best)), radii, weights,
                                  grid.n_angles)
    # written so that a NaN majorant is swept
    keep = ~(maj[first] * (1.0 + PRUNE_MARGIN) + _SMALLEST_NORMAL < out[first, None])
    keep[np.arange(len(first)), best] = False
    kept, rings = np.nonzero(keep)
    rest = np.column_stack((np.r_[np.repeat(whole, len(radii)), first[kept]],
                            np.r_[np.tile(np.arange(len(radii)), len(whole)), rings]))
    np.maximum.at(out, rest[:, 0], _sweep_ring_rows(series, rest, radii, weights, grid.n_angles))
    return out


def weighted_sup_details(f: TaylorSeries | Callable, alpha: float,
                         grid: Optional[DiskGrid] = None) -> SupremumReport:
    """Estimate ``sup (1-|z|^2)^alpha |f(z)|`` over the disk.

    ``f`` is a :class:`~volterra.series.TaylorSeries` or a vectorised closed
    form ``z -> f(z)``.  Sweeps the polar grid, with no refinement.  A
    series takes the path it takes in :func:`weighted_sup_norms`: one sample
    per ring at ``theta = 0`` when its coefficients are real and ``>= 0``,
    else a sweep ring by ring with :func:`~volterra.series.evaluate_on_rings`.
    A closed form is evaluated at every grid point, all strictly inside the
    disk.  For ``alpha = 0`` the weight is short-circuited, and a series is
    additionally sampled on the boundary circle (a polynomial attains its
    sup-norm there).
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    grid = grid or DEFAULT_GRID
    thetas = grid.angles()
    if isinstance(f, TaylorSeries):
        radii, weights = _rings(grid, alpha, alpha == 0.0)
        maj, exact = _ring_majorants([f.array], radii, weights, grid.n_angles)
        # an exact majorant is the ring's value at thetas[0] = 0
        vals = maj.T if exact[0] else _ring_sweep(f.array, radii, weights, grid.n_angles)
    else:
        radii, weights = _rings(grid, alpha, False)
        with np.errstate(invalid="ignore", over="ignore"):
            vals = weights[:, None] * np.abs(_values(f, radii[:, None] * np.exp(1j * thetas)))
    clamped = int(np.count_nonzero(np.isinf(vals)))
    rung_max = np.max(vals, axis=1)
    rung_arg = np.argmax(vals, axis=1)
    i_best = int(np.argmax(rung_max))
    best_val = float(rung_max[i_best])
    best_z = radii[i_best] * np.exp(1j * thetas[rung_arg[i_best]])

    divergent = False
    if clamped > 0:
        tail = rung_max[-grid.outer_rungs:]
        growing = np.all(np.diff(tail[np.isfinite(tail)]) > 0) if np.any(np.isfinite(tail)) else True
        divergent = bool(growing or not np.all(np.isfinite(tail)))
    if not math.isfinite(best_val):
        divergent = True
    return SupremumReport(value=float(best_val), argmax=complex(best_z),
                          divergent=divergent, clamped_samples=clamped)


def weighted_sup_norm(f: TaylorSeries | Callable, alpha: float,
                      grid: Optional[DiskGrid] = None) -> float:
    """Weighted sup-norm estimate (the value of :func:`weighted_sup_details`)."""
    return weighted_sup_details(f, alpha, grid).value


def bloch_norm(f: TaylorSeries | Callable, df: Optional[Callable] = None,
               grid: Optional[DiskGrid] = None) -> float:
    """``|f(0)| + sup (1-|z|^2) |f'(z)|``.

    A series differentiates itself; a closed form needs its derivative
    evaluator ``df`` and raises DomainError without one.
    """
    if df is None:
        if not isinstance(f, TaylorSeries):
            raise DomainError("a closed form needs its derivative evaluator df")
        df = derivative(f)
    return float(abs(_values(f, 0j))) + weighted_sup_norm(df, 1.0, grid)

