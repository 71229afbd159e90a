"""Weighted sup-norms on the disk and the grids used to estimate suprema.

The weight is ``(1-|z|^2)^alpha``.  Maxima in this problem family concentrate at
the boundary, so the radial grid is geometrically graded toward ``|z| = 1``, and
one batched golden-section search refines the best candidates: in the angle on
the outermost rungs, then in the radius at each refined angle.  The same
:func:`golden_max` kernel serves every refinement in the package.  A function
is a truncated Taylor series, swept a whole ring at a time by the folded-FFT
ring evaluator of :mod:`volterra.series`, or a vectorised closed form
``z -> f(z)``, evaluated pointwise.  All sweeps are pure and deterministic;
refinement can only increase the reported supremum.

:func:`weighted_sup_norms` sweeps many series on a grid without refinement as
stacks of ``RING_GROUP`` series, so the per-call work of a sweep is paid once
per stack.  The stack is bounded because a sweep holds several ``(P, R, N)``
arrays at once: on the estimation grid's 82 x 128 rings a complex one takes
about 0.7 MB for 4 series, but 1.3 MB for 8, and then the sweep no longer fits
a 2 MB per-core cache and measured slower than one series at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, SymbolZeroDerivative
from .series import TaylorSeries, _clamp, evaluate_on_rings

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section steps per bracket of the sweep refinement
REFINE_ITERS = 40
# series per stacked sweep of weighted_sup_norms (why bounded: module docstring)
RING_GROUP = 4


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
    uniform.  Golden-section search (``REFINE_ITERS`` steps) refines the top
    ``refine_top`` angular maxima of the outermost ``outer_rungs`` rungs (and
    the interior maximum); ``refine_top = 0`` turns refinement off.
    """

    radial_k: int = 96
    n_angles: int = 512
    refine_top: int = 3
    outer_rungs: int = 8

    def __post_init__(self):
        if self.n_angles < 64:
            raise ValueError("need at least 64 angular nodes")
        if 2.0 ** (-self.radial_k / 4.0) > 1e-6:
            raise ValueError("outermost radial node must reach 1 - 1e-6")

    def one_minus_r(self) -> np.ndarray:
        # stored as exact powers of 2^(1/4); 1 - r is never formed by subtraction
        return 2.0 ** (-np.arange(self.radial_k + 1) / 4.0)

    def radii(self) -> np.ndarray:
        return 1.0 - self.one_minus_r()

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

    def __float__(self) -> float:
        return self.value


def _weight(one_minus_r, alpha: float):
    # 1 - r^2 = s (2 - s) with s = 1 - r carried exactly
    if alpha == 0.0:
        return np.ones_like(np.asarray(one_minus_r, dtype=float))
    s = np.asarray(one_minus_r, dtype=float)
    return (s * (2.0 - s)) ** alpha


def golden_max(fn, lo, hi, iters: int):
    """Golden-section maximization on a batch of brackets ``[lo[i], hi[i]]``.

    ``fn`` maps an array of points, one per bracket, to their values.  Returns
    the best point and value evaluated in each bracket, arrays shaped like
    ``lo``; for a unimodal objective these are the bracket's maximum to within
    ``0.618^iters`` of its width.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_t = np.where(fc >= fd, c, d)
    best_v = np.maximum(fc, fd)
    for _ in range(iters):
        # keep [a, d] when f(c) >= f(d), else [c, b]; one new probe per step
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fp = fn(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        best_t = np.where(fp > best_v, probe, best_t)
        best_v = np.maximum(best_v, fp)
    return best_t, best_v


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
    return 1.0 - s, _weight(s, alpha)


def _ring_sweep(stack: np.ndarray, alpha: float, grid: DiskGrid):
    """Radii and weighted magnitudes ``(1-|z|^2)^alpha |f(z)|``, shaped
    ``(P, R, N)``, of a ``(P, D)`` stack of coefficient rows on the grid rings;
    divergent samples are ``inf``.  For ``alpha = 0`` the rings include the
    boundary circle, where a polynomial attains its sup-norm."""
    radii, weights = _rings(grid, alpha, alpha == 0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        mags = np.abs(evaluate_on_rings(stack, radii, grid.n_angles))
    mags *= weights[:, None]
    return radii, mags


def weighted_sup_norms(series, alpha: float, grid: DiskGrid) -> np.ndarray:
    """``weighted_sup_norm(f, alpha, grid)`` for each series ``f`` of ``series``,
    on a grid without refinement (``refine_top = 0``), as a float array.

    The series are swept ``RING_GROUP`` at a time through the ring evaluator,
    each group of one block count ``ceil(len / n_angles)``, so that no series is
    padded with zero blocks.
    """
    if grid.refine_top > 0:
        raise ValueError("stacked sweeps need a grid without refinement (refine_top = 0)")
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    lengths = [len(f.array) for f in series]
    blocks = [-(-d // grid.n_angles) for d in lengths]
    out = np.empty(len(series))
    order = sorted(range(len(series)), key=blocks.__getitem__)
    for q, run in itertools.groupby(order, key=blocks.__getitem__):
        run = list(run)
        for i in range(0, len(run), RING_GROUP):
            group = run[i:i + RING_GROUP]
            stack = np.zeros((len(group), q * grid.n_angles), dtype=complex)
            for row, k in enumerate(group):
                stack[row, :lengths[k]] = series[k].array
            out[group] = np.max(_ring_sweep(stack, alpha, grid)[1], axis=(1, 2))
    return out


def weighted_sup_details(f: TaylorSeries | Callable, alpha: float,
                         grid: Optional[DiskGrid] = None) -> SupremumReport:
    """Estimate ``sup (1-|z|^2)^alpha |f(z)|`` over the disk.

    ``f`` is a :class:`~volterra.series.TaylorSeries` or a vectorised closed
    form ``z -> f(z)``.  Sweeps the polar grid, then refines the best
    candidates by golden-section search unless ``grid.refine_top`` is 0.  A
    series is swept ring by ring with
    :func:`~volterra.series.evaluate_on_rings`, as a stack of one row for
    :func:`weighted_sup_norms`; a closed form is evaluated at every grid point,
    all strictly inside the disk.  For ``alpha = 0`` the weight is
    short-circuited, and a series is additionally sampled on the boundary
    circle (a polynomial attains its sup-norm there).
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    grid = grid or DEFAULT_GRID
    thetas = grid.angles()
    if isinstance(f, TaylorSeries):
        radii, vals = _ring_sweep(f.array[None, :], alpha, grid)
        vals = vals[0]
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
    if grid.refine_top > 0:
        # seeds: the top angles of the outermost rungs, plus the grid maximum
        # when it lies inside them; each is searched in the angle at its rung,
        # then in the radius between the neighboring rungs at the refined
        # angle (for maxima attained strictly inside the disk)
        n = len(radii)
        outer = np.arange(max(0, n - grid.outer_rungs), n)
        order = np.argsort(-vals[outer], axis=1, kind="stable")[:, : grid.refine_top]
        rung, col = np.repeat(outer, order.shape[1]), order.ravel()
        if i_best < n - grid.outer_rungs:
            rung, col = np.append(rung, i_best), np.append(col, rung_arg[i_best])

        def weighted_abs(r, t):
            with np.errstate(invalid="ignore", over="ignore"):
                m = np.abs(_values(f, r * np.exp(1j * t)))
            w = 1.0 if alpha == 0.0 else (1.0 - r * r) ** alpha
            return np.where(np.isfinite(m), w * m, np.inf)

        r = radii[rung]
        dtheta = 2.0 * np.pi / grid.n_angles
        t_star, v_ang = golden_max(lambda t: weighted_abs(r, t), thetas[col] - dtheta,
                                   thetas[col] + dtheta, REFINE_ITERS)
        r_lo = np.where(rung > 0, radii[np.maximum(rung - 1, 0)], 0.0)
        r_star, v_rad = golden_max(lambda rr: weighted_abs(rr, t_star), r_lo,
                                   radii[np.minimum(rung + 1, n - 1)], REFINE_ITERS)
        # candidates in seed order, angular before radial; argmax keeps the
        # first of equal maxima
        cand_v = np.column_stack([v_ang, v_rad]).ravel()
        k = int(np.argmax(cand_v))
        if cand_v[k] > best_val:
            best_val = float(cand_v[k])
            best_z = np.column_stack([r, r_star]).ravel()[k] * np.exp(1j * t_star[k // 2])

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
        df = f.derivative()
    return float(abs(_values(f, 0j))) + weighted_sup_norm(df, 1.0, grid)


def log_deriv_bloch_seminorm(g, grid: Optional[DiskGrid] = None) -> float:
    """Grid surrogate ``sup (1-|z|^2) |g''(z)/g'(z)|`` for log(g') lying in the Bloch space.

    ``g`` is any object with vectorized ``deriv``/``deriv2`` evaluators (e.g. a
    registry symbol).  Raises SymbolZeroDerivative as soon as ``|g'|`` drops
    below 1e-12 at a grid node: the quotient says nothing about Bloch
    membership across an interior zero of g', so the caller must record the
    flag as unknown rather than trusting a blown-up number.
    """
    grid = grid or DEFAULT_GRID
    s = grid.one_minus_r()
    radii = 1.0 - s
    thetas = grid.angles()
    w = _weight(s, 1.0)
    best = 0.0
    for i, r in enumerate(radii):
        zs = r * np.exp(1j * thetas)
        d1 = np.asarray(g.deriv(zs))
        if np.any(np.abs(d1) < 1e-12):
            raise SymbolZeroDerivative(f"|g'| < 1e-12 at radius {r:.6f}")
        q = np.abs(np.asarray(g.deriv2(zs)) / d1)
        best = max(best, float(w[i] * np.max(q)))
    return best
